//! End-to-end fault-tolerance tests on the real multithreaded runtime:
//! applications running over the full stack (MPI library → daemon →
//! V2 engine → fabric → event logger / checkpoint server), with fail-stop
//! kills placed at fixed points of a node's own send history. The
//! invariant checked everywhere is the paper's: the post-recovery
//! execution is equivalent to a fault-free one.
//!
//! A kill is a count trigger, not a wall-clock sleep: however fast the
//! runtime gets, it lands inside the run, and each test asserts the
//! restarts it planned, so a kill that never landed fails the test.

use mvr_core::{NodeId, Payload, Rank};
use mvr_mpi::ReduceOp;
use mvr_runtime::{
    fail_stop_group, run_cluster, Cluster, ClusterConfig, CountTrigger, MpiApp, NodeMpi, RunReport,
    SchedulerConfig, TurbulenceConfig,
};
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

fn with_checkpointing(world: u32) -> ClusterConfig {
    ClusterConfig {
        world,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    }
}

fn without_checkpoints(world: u32) -> ClusterConfig {
    ClusterConfig {
        world,
        ..Default::default()
    }
}

/// Kill rank `victim` fail-stop as its node makes its `at`-th fabric
/// send, counted across its incarnations. A ring step is two sends (the
/// token, then its reception event's batch), so a ring of `iters` laps
/// makes about `2 * iters`.
fn kill_rank(victim: u32, at: u64) -> CountTrigger {
    kill_ranks_together(victim, at, &[victim])
}

/// Kill every rank in `victims` fail-stop at one instant: as rank
/// `watch`'s node makes its `at`-th fabric send.
fn kill_ranks_together(watch: u32, at: u64, victims: &[u32]) -> CountTrigger {
    CountTrigger {
        watch: NodeId::Computing(Rank(watch)),
        at,
        kill: victims
            .iter()
            .flat_map(|&v| fail_stop_group(Rank(v)))
            .collect(),
    }
}

/// Run `app` under `kills` and assert that each one fired exactly once:
/// every rank a trigger kills is one rank restart, every service it
/// kills one service restart.
fn run_with_kills(cfg: ClusterConfig, app: impl MpiApp, kills: Vec<CountTrigger>) -> RunReport {
    let killed: Vec<NodeId> = kills.iter().flat_map(|t| t.kill.clone()).collect();
    let ranks = killed
        .iter()
        .filter(|n| matches!(n, NodeId::Computing(_)))
        .count() as u64;
    let planned = (ranks, killed.len() as u64 - ranks);
    let cfg = ClusterConfig {
        turbulence: Some(TurbulenceConfig {
            crash_on_send: kills,
            ..Default::default()
        }),
        ..cfg
    };
    let report = Cluster::launch(cfg, app)
        .wait_report(TIMEOUT)
        .expect("cluster completes despite kills");
    assert_eq!(
        (report.restarts, report.service_restarts),
        planned,
        "(rank, service) restarts: every planned kill lands, once"
    );
    report
}

fn ring_with_kills(cfg: ClusterConfig, iters: u32, kills: Vec<CountTrigger>) {
    let report = run_with_kills(cfg, ring_app(iters), kills);
    check_ring(&report.results, iters).unwrap();
}

#[test]
fn kill_one_rank_without_checkpoints() {
    ring_with_kills(without_checkpoints(4), 600, vec![kill_rank(2, 400)]);
}

#[test]
fn kill_one_rank_with_checkpointing() {
    ring_with_kills(with_checkpointing(4), 800, vec![kill_rank(1, 800)]);
}

#[test]
fn kill_two_ranks_concurrently() {
    // One trigger takes both down at once, so their recoveries overlap.
    ring_with_kills(
        without_checkpoints(5),
        600,
        vec![kill_ranks_together(1, 400, &[1, 3])],
    );
}

#[test]
fn kill_same_rank_repeatedly() {
    ring_with_kills(
        with_checkpointing(3),
        900,
        vec![kill_rank(1, 300), kill_rank(1, 700), kill_rank(1, 1100)],
    );
}

#[test]
fn kill_every_rank_once() {
    // n concurrent faults of n processes — the headline claim: every
    // rank dies at one instant, and all recover together.
    ring_with_kills(
        without_checkpoints(4),
        700,
        vec![kill_ranks_together(0, 400, &[0, 1, 2, 3])],
    );
}

#[test]
fn kill_checkpoint_server_then_a_rank() {
    // §4.3: losing a checkpoint component degrades to from-scratch
    // restarts but never breaks correctness. The server dies as it sends
    // its first reply: a checkpoint's acknowledgement, or at the latest
    // its answer to rank 2's image request, which rank 2 then never
    // gets and restarts from scratch.
    let cs = NodeId::CheckpointServer(0);
    let kill_cs = CountTrigger {
        watch: cs,
        at: 1,
        kill: vec![cs],
    };
    ring_with_kills(with_checkpointing(4), 500, vec![kill_cs, kill_rank(2, 500)]);
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
    // replayed exactly — the heart of the protocol — and then its
    // reincarnation. Its only sends are event batches (and checkpoint
    // images), at most 32 events each: its 600 receptions need at least
    // 19 of them.
    let msgs = 200;
    let report = run_with_kills(
        with_checkpointing(4),
        fanin_app(msgs),
        vec![kill_rank(0, 4), kill_rank(0, 12)],
    );
    check_fanin(&report.results, msgs).unwrap();
}

#[test]
fn any_source_survives_sender_crashes() {
    let msgs = 150;
    let report = run_with_kills(
        without_checkpoints(4),
        fanin_app(msgs),
        vec![kill_ranks_together(1, 40, &[1, 3])],
    );
    check_fanin(&report.results, msgs).unwrap();
}

// ---------------------------------------------------------------------
// Collectives under faults
// ---------------------------------------------------------------------

#[test]
fn collectives_survive_a_crash() {
    // Rank 2 sends about four times per allreduce (two data messages,
    // two event batches).
    let (n, iters) = (4, 150);
    let report = run_with_kills(
        without_checkpoints(n),
        allreduce_app(iters),
        vec![kill_rank(2, 200)],
    );
    check(&report.results, |_| expected_allreduce(n, iters)).unwrap();
}
