//! Live-runtime tests for the baseline protocol hostings: MPICH-V1
//! (Channel Memory logging, from-scratch replay recovery) and MPICH-P4
//! (no fault tolerance — a crash kills the run).

use mvr_core::{NodeId, Payload, Rank};
use mvr_mpi::ReduceOp;
use mvr_runtime::{
    fail_stop_group, run_cluster, Cluster, ClusterConfig, ClusterError, CountTrigger, NodeMpi,
    RuntimeProtocol, TurbulenceConfig,
};
use mvr_workloads::apps::{check_ring, ring_app};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// `protocol` on `world` ranks, each of `kills` killing the rank it
/// watches fail-stop as that rank's node makes its `at`-th fabric send
/// (counted across incarnations).
fn with_kills(protocol: RuntimeProtocol, world: u32, kills: &[(u32, u64)]) -> ClusterConfig {
    let crash_on_send = kills
        .iter()
        .map(|&(rank, at)| CountTrigger {
            watch: NodeId::Computing(Rank(rank)),
            at,
            kill: fail_stop_group(Rank(rank)),
        })
        .collect();
    ClusterConfig {
        world,
        protocol,
        turbulence: Some(TurbulenceConfig {
            crash_on_send,
            ..Default::default()
        }),
        ..Default::default()
    }
}

#[test]
fn v1_fault_free_ring() {
    let (n, iters) = (4, 300);
    let results = run_cluster(
        ClusterConfig {
            world: n,
            protocol: RuntimeProtocol::V1,
            ..Default::default()
        },
        ring_app(iters),
        TIMEOUT,
    )
    .unwrap();
    check_ring(&results, iters).unwrap();
}

#[test]
fn v1_fault_free_collectives() {
    let results = run_cluster(
        ClusterConfig {
            world: 5,
            protocol: RuntimeProtocol::V1,
            ..Default::default()
        },
        |mpi: &mut NodeMpi, _| {
            let sum = mpi.allreduce(ReduceOp::Sum, &[mpi.rank().0 as u64 + 1])?;
            Ok(Payload::from_vec(sum[0].to_le_bytes().to_vec()))
        },
        TIMEOUT,
    )
    .unwrap();
    for p in results {
        assert_eq!(u64::from_le_bytes(p.as_slice().try_into().unwrap()), 15);
    }
}

#[test]
fn v1_recovers_from_a_crash_via_channel_memory_replay() {
    // "After a crash, a re-executing process retrieves all lost receptions
    // in the correct order by requesting them to its Channel Memory" —
    // with no checkpoint image, recovery is a from-scratch replay, fully
    // independent of the other processes.
    // Rank 2 dies a fifth of the way through the ring and rank 0 at
    // about two fifths (a V1 lap is about two sends per rank: the token
    // to the successor's Channel Memory, the request to its own), each
    // well before the end, so both kills land.
    let (n, iters) = (4, 500);
    let cfg = with_kills(RuntimeProtocol::V1, n, &[(2, 200), (0, 400)]);
    let report = Cluster::launch(cfg, ring_app(iters))
        .wait_report(TIMEOUT)
        .expect("V1 recovers via CM replay");
    check_ring(&report.results, iters).unwrap();
    assert_eq!(report.restarts, 2, "ranks 2 and 0 restart once each");
}

#[test]
fn p4_fault_free_ring() {
    let (n, iters) = (4, 200);
    let results = run_cluster(
        ClusterConfig {
            world: n,
            protocol: RuntimeProtocol::P4,
            ..Default::default()
        },
        ring_app(iters),
        TIMEOUT,
    )
    .unwrap();
    check_ring(&results, iters).unwrap();
}

#[test]
fn p4_crash_is_fatal() {
    // Rank 1 dies at its 100th send, a fifth of the way through.
    let cfg = with_kills(RuntimeProtocol::P4, 3, &[(1, 100)]);
    let err = Cluster::launch(cfg, ring_app(500))
        .wait(TIMEOUT)
        .expect_err("P4 cannot survive a crash");
    match err {
        ClusterError::AppFailed { rank, error } => {
            assert_eq!(rank, Rank(1));
            assert!(error.contains("no fault tolerance"), "{error}");
        }
        other => panic!("expected AppFailed, got {other:?}"),
    }
}
