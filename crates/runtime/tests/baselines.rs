//! Live-runtime tests for the baseline protocol hostings: MPICH-V1
//! (Channel Memory logging, from-scratch replay recovery) and MPICH-P4
//! (no fault tolerance — a crash kills the run).

use mvr_core::{Payload, Rank};
use mvr_mpi::ReduceOp;
use mvr_runtime::{run_cluster, Cluster, ClusterConfig, ClusterError, NodeMpi, RuntimeProtocol};
use mvr_workloads::apps::{check_ring, ring_app};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

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
    let (n, iters) = (4, 500);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            protocol: RuntimeProtocol::V1,
            ..Default::default()
        },
        ring_app(iters),
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(2));
        std::thread::sleep(Duration::from_millis(15));
        handle.kill(Rank(0));
    });
    let results = cluster.wait(TIMEOUT).expect("V1 recovers via CM replay");
    killer.join().unwrap();
    check_ring(&results, iters).unwrap();
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
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 3,
            protocol: RuntimeProtocol::P4,
            ..Default::default()
        },
        ring_app(100_000), // long enough that the kill lands mid-run
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(1));
    });
    let err = cluster
        .wait(TIMEOUT)
        .expect_err("P4 cannot survive a crash");
    killer.join().unwrap();
    match err {
        ClusterError::AppFailed { rank, error } => {
            assert_eq!(rank, Rank(1));
            assert!(error.contains("no fault tolerance"), "{error}");
        }
        other => panic!("expected AppFailed, got {other:?}"),
    }
}
