//! End-to-end fault-tolerance tests on the real multithreaded runtime:
//! applications running over the full stack (MPI library → daemon →
//! V2 engine → fabric → event logger / checkpoint server), with fail-stop
//! kills injected at arbitrary times. The invariant checked everywhere is
//! the paper's: the post-recovery execution is equivalent to a fault-free
//! one.

use mvr_core::{Payload, Rank};
use mvr_mpi::ReduceOp;
use mvr_runtime::{run_cluster, Cluster, ClusterConfig, NodeMpi, SchedulerConfig};
use mvr_workloads::apps::{
    allreduce_app, check, check_fanin, check_ring, expected_allreduce, fanin_app, ring_app,
};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Fault-free runs
// ---------------------------------------------------------------------

#[test]
fn fault_free_allreduce() {
    let results = run_cluster(
        ClusterConfig {
            world: 4,
            ..Default::default()
        },
        |mpi: &mut NodeMpi, _| {
            let mine = vec![mpi.rank().0 as u64 + 1];
            let sum = mpi.allreduce(ReduceOp::Sum, &mine)?;
            Ok(Payload::from_vec(sum[0].to_le_bytes().to_vec()))
        },
        TIMEOUT,
    )
    .unwrap();
    for p in results {
        assert_eq!(
            u64::from_le_bytes(p.as_slice().try_into().unwrap()),
            1 + 2 + 3 + 4
        );
    }
}

#[test]
fn fault_free_ring() {
    let (n, iters) = (4, 300);
    let results = run_cluster(
        ClusterConfig {
            world: n,
            ..Default::default()
        },
        ring_app(iters),
        TIMEOUT,
    )
    .unwrap();
    check_ring(&results, iters).unwrap();
}

#[test]
fn fault_free_with_checkpointing_enabled() {
    let (n, iters) = (3, 400);
    let cfg = ClusterConfig {
        world: n,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let results = run_cluster(cfg, ring_app(iters), TIMEOUT).unwrap();
    check_ring(&results, iters).unwrap();
}

// ---------------------------------------------------------------------
// Crash / recovery
// ---------------------------------------------------------------------

/// Kill the given ranks at the given delays (ms) while the app runs.
fn run_with_kills(cfg: ClusterConfig, iters: u32, kills: Vec<(u64, u32)>) -> Vec<Payload> {
    let cluster = Cluster::launch(cfg, ring_app(iters));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        for (delay_ms, victim) in kills {
            std::thread::sleep(Duration::from_millis(delay_ms));
            handle.kill(Rank(victim));
        }
    });
    let results = cluster
        .wait(TIMEOUT)
        .expect("cluster completes despite kills");
    killer.join().unwrap();
    check_ring(&results, iters).unwrap();
    results
}

#[test]
fn kill_one_rank_without_checkpoints() {
    run_with_kills(
        ClusterConfig {
            world: 4,
            ..Default::default()
        },
        600,
        vec![(10, 2)],
    );
}

#[test]
fn kill_one_rank_with_checkpointing() {
    let cfg = ClusterConfig {
        world: 4,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    run_with_kills(cfg, 800, vec![(25, 1)]);
}

#[test]
fn kill_two_ranks_concurrently() {
    run_with_kills(
        ClusterConfig {
            world: 5,
            ..Default::default()
        },
        600,
        vec![(10, 1), (0, 3)],
    );
}

#[test]
fn kill_same_rank_repeatedly() {
    let cfg = ClusterConfig {
        world: 3,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    run_with_kills(cfg, 900, vec![(8, 1), (12, 1), (12, 1)]);
}

#[test]
fn kill_every_rank_once() {
    // n concurrent faults of n processes — the headline claim.
    run_with_kills(
        ClusterConfig {
            world: 4,
            ..Default::default()
        },
        700,
        vec![(8, 0), (4, 1), (4, 2), (4, 3)],
    );
}

#[test]
fn kill_checkpoint_server_then_a_rank() {
    // §4.3: losing a checkpoint component degrades to from-scratch
    // restarts but never breaks correctness.
    let (n, iters) = (4, 500);
    let cfg = ClusterConfig {
        world: n,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, ring_app(iters));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        handle.kill_checkpoint_server();
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(2));
    });
    let results = cluster
        .wait(TIMEOUT)
        .expect("survives checkpoint-server loss");
    killer.join().unwrap();
    check_ring(&results, iters).unwrap();
}

// ---------------------------------------------------------------------
// Nondeterministic reception order (ANY_SOURCE) under faults
// ---------------------------------------------------------------------

#[test]
fn any_source_fault_free() {
    let (n, msgs) = (4, 100);
    let results = run_cluster(
        ClusterConfig {
            world: n,
            ..Default::default()
        },
        fanin_app(msgs),
        TIMEOUT,
    )
    .unwrap();
    check_fanin(&results, msgs).unwrap();
}

#[test]
fn any_source_survives_receiver_crash() {
    // Crash the rank whose nondeterministic reception order must be
    // replayed exactly — the heart of the protocol.
    let (n, msgs) = (4, 200);
    let cfg = ClusterConfig {
        world: n,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, fanin_app(msgs));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(0));
        std::thread::sleep(Duration::from_millis(15));
        handle.kill(Rank(0));
    });
    let results = cluster.wait(TIMEOUT).expect("receiver recovers");
    killer.join().unwrap();
    check_fanin(&results, msgs).unwrap();
}

#[test]
fn any_source_survives_sender_crashes() {
    let (n, msgs) = (4, 150);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            ..Default::default()
        },
        fanin_app(msgs),
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(8));
        handle.kill(Rank(1));
        handle.kill(Rank(3));
    });
    let results = cluster.wait(TIMEOUT).expect("senders recover");
    killer.join().unwrap();
    check_fanin(&results, msgs).unwrap();
}

// ---------------------------------------------------------------------
// Collectives under faults
// ---------------------------------------------------------------------

#[test]
fn collectives_survive_a_crash() {
    let (n, iters) = (4, 150);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            ..Default::default()
        },
        allreduce_app(iters),
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(2));
    });
    let results = cluster.wait(TIMEOUT).expect("collectives recover");
    killer.join().unwrap();
    check(&results, |_| expected_allreduce(n, iters)).unwrap();
}
