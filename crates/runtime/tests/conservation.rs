//! Conservation invariants: the message ledger must balance, fault-free
//! and under seeded crash storms alike.
//!
//! The headline identity `sum(msgs_sent) == sum(msgs_delivered) +
//! sum(duplicates_dropped) − sum(replayed_deliveries)` mixes two ledgers
//! that only coincide fault-free: the *logical* ledger (what the
//! application's finishing incarnations executed) and the *wire* ledger
//! (copies that crossed the fabric, including retransmissions to dead
//! incarnations that no finishing rank ever consumed). Without faults
//! the correction terms are zero and the identity is asserted literally.
//! Under chaos the suite asserts the forms that are actually conserved:
//!
//!   * logical flow — for a symmetric exchange every finishing
//!     incarnation pairs each send with a delivery, so
//!     `sum(msgs_sent) == sum(msgs_delivered)` regardless of how many
//!     incarnations died in between;
//!   * exactly-once at the event logger — the EL's cumulative *unique*
//!     event count equals the fault-free delivery count: restarts,
//!     replays and retransmissions never double-log a logical delivery;
//!   * cross-layer histogram identities — every deferred send left one
//!     gate-wait sample, every retired batch one EL-RTT sample, every
//!     completed replay one replay-duration sample. The histograms ride
//!     in [`mvr_runtime::RunReport::timings`]; the counters in
//!     [`mvr_runtime::RunReport::rank_metrics`]. They are maintained by
//!     different layers, so agreement is a real consistency check.

use mvr_runtime::{
    merged_unique_events, ChaosConfig, Cluster, ClusterConfig, RunReport, SchedulerConfig,
    TurbulenceConfig,
};
use mvr_workloads::apps::{check_ring, ring_app};
use std::sync::atomic::Ordering;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);
const WORLD: u32 = 4;
const ITERS: u32 = 200;

/// The identities that hold in every run, faulty or not.
fn check_cross_layer_identities(report: &RunReport, label: &str) {
    let m = &report.rank_metrics;
    assert_eq!(m.len(), WORLD as usize, "{label}: one Metrics per rank");

    let deferred: u64 = m.iter().map(|x| x.gate_deferred_sends).sum();
    assert_eq!(
        report.timings.gate_wait.count(),
        deferred,
        "{label}: one gate-wait sample per deferred send"
    );

    let acked: u64 = m.iter().map(|x| x.el_batches_acked).sum();
    assert_eq!(
        report.timings.el_ack_rtt.count(),
        acked,
        "{label}: one EL-RTT sample per retired batch"
    );

    assert_eq!(
        report.timings.replay.count(),
        report.replays_completed,
        "{label}: one replay-duration sample per completed replay"
    );

    for (r, x) in m.iter().enumerate() {
        // The final flush batch is typically still in flight at finish,
        // so retired ≤ shipped (never the other way around).
        assert!(
            x.el_batches_acked <= x.el_batches_sent,
            "{label}: rank {r} retired {} of {} shipped batches",
            x.el_batches_acked,
            x.el_batches_sent
        );
    }
}

#[test]
fn conservation_exact_without_faults() {
    // Seeded link delays perturb interleavings but nothing dies: every
    // correction term must be exactly zero and the literal identity
    // sent == delivered + duplicates − replayed must hold.
    let cluster = Cluster::launch(
        ClusterConfig {
            world: WORLD,
            turbulence: Some(TurbulenceConfig::delays(0x5EED_BA1A, 80)),
            ..Default::default()
        },
        ring_app(ITERS),
    );
    let counters = cluster.el_event_counters();
    let report = cluster.wait_report(TIMEOUT).expect("fault-free run");
    check_ring(&report.results, ITERS).unwrap();

    let m = &report.rank_metrics;
    let sent: u64 = m.iter().map(|x| x.msgs_sent).sum();
    let delivered: u64 = m.iter().map(|x| x.msgs_delivered).sum();
    let duplicates: u64 = m.iter().map(|x| x.duplicates_dropped).sum();
    let replayed: u64 = m.iter().map(|x| x.replayed_deliveries).sum();
    assert_eq!(duplicates, 0, "no faults, no retransmissions, no dups");
    assert_eq!(replayed, 0, "no faults, no replay");
    assert_eq!(
        sent,
        delivered + duplicates - replayed,
        "fault-free ledger must balance exactly"
    );
    assert_eq!(sent, (WORLD * ITERS) as u64, "one send per rank per iter");

    check_cross_layer_identities(&report, "fault-free");

    // Every delivery became exactly one unique EL event. The tail batch
    // of each rank races dispatcher teardown (the EL may be killed with
    // the final flush still in its mailbox), hence the small slack below
    // the exact count — but never above it.
    let el_unique: u64 = counters.iter().map(|c| c.load(Ordering::Acquire)).sum();
    let logical = (WORLD * ITERS) as u64;
    assert!(
        el_unique <= logical,
        "EL over-counted: {el_unique} > {logical}"
    );
    assert!(
        el_unique >= logical - (16 * WORLD) as u64,
        "EL lost more than a tail batch per rank: {el_unique} < {logical}"
    );
}

#[test]
fn conservation_under_seeded_chaos() {
    // Crash storms with re-kills and continuous checkpointing. Dead
    // incarnations take their counters with them; what must survive is
    // the logical balance of the finishing incarnations, the EL's
    // exactly-once unique-event count, and the histogram identities.
    for seed in [0xC0FFEEu64, 0x2A] {
        let cluster = Cluster::launch(
            ClusterConfig {
                world: WORLD,
                checkpointing: Some(SchedulerConfig {
                    interval: Duration::from_millis(1),
                    ..Default::default()
                }),
                chaos: Some(ChaosConfig {
                    seed,
                    kills: 5,
                    rekill_pct: 50,
                    max_burst: 2,
                    ..Default::default()
                }),
                turbulence: Some(TurbulenceConfig::delays(seed ^ 0x7A17, 50)),
                ..Default::default()
            },
            ring_app(ITERS),
        );
        let counters = cluster.el_event_counters();
        let report = cluster.wait_report(TIMEOUT).expect("storm masked");
        check_ring(&report.results, ITERS).unwrap();

        let m = &report.rank_metrics;
        let sent: u64 = m.iter().map(|x| x.msgs_sent).sum();
        let delivered: u64 = m.iter().map(|x| x.msgs_delivered).sum();
        let duplicates: u64 = m.iter().map(|x| x.duplicates_dropped).sum();
        let replayed: u64 = m.iter().map(|x| x.replayed_deliveries).sum();
        let retransmissions: u64 = m.iter().map(|x| x.retransmissions).sum();

        // Logical flow balances: the exchange is symmetric, so each
        // finishing incarnation's sends and deliveries pair off exactly,
        // however many predecessors died.
        assert_eq!(sent, delivered, "seed {seed:#x}: logical ledger");
        // Duplicates are always the shadow of a retransmission.
        assert!(
            duplicates <= retransmissions,
            "seed {seed:#x}: {duplicates} dups from {retransmissions} retx"
        );
        assert!(
            replayed <= delivered,
            "seed {seed:#x}: replayed deliveries are deliveries"
        );
        if report.restarts > 0 {
            assert!(
                report.recoveries > 0,
                "seed {seed:#x}: restarts without recoveries"
            );
        }

        check_cross_layer_identities(&report, "chaos");

        // Exactly-once at the EL: ~100 retransmissions and repeated
        // crash/replay cycles must not change the unique-event count —
        // re-logged events deduplicate against the receiver-clock
        // watermark. Upper bound is hard; the lower bound leaves slack
        // for tail batches lost to the teardown race.
        let el_unique: u64 = counters.iter().map(|c| c.load(Ordering::Acquire)).sum();
        let logical = (WORLD * ITERS) as u64;
        assert!(
            el_unique <= logical,
            "seed {seed:#x}: EL double-counted under chaos: {el_unique} > {logical}"
        );
        assert!(
            el_unique >= logical - (16 * WORLD) as u64,
            "seed {seed:#x}: EL lost events: {el_unique} < {logical}"
        );
    }
}

#[test]
fn conservation_across_shard_ledgers_with_replicas() {
    // Sharded, replicated event logging under a storm that also kills EL
    // replicas. The cluster-wide unique-event count is NOT the sum of
    // the flat counters (each shard's ledger exists R times); it is the
    // per-shard max across replicas, summed across shards — exactly what
    // `merged_unique_events` computes. Rank crashes, replica crashes,
    // retransmissions and replica catch-up absorption must all leave
    // that merged count at the fault-free delivery count: exactly-once
    // holds per shard ledger, and absorption never double-counts.
    const REPLICAS: u32 = 2;
    const SHARDS: u32 = 4;
    let cluster = Cluster::launch(
        ClusterConfig {
            world: WORLD,
            el_shards: SHARDS,
            el_replicas: REPLICAS,
            checkpointing: Some(SchedulerConfig {
                interval: Duration::from_millis(1),
                ..Default::default()
            }),
            chaos: Some(ChaosConfig {
                seed: 0xC0FFEE,
                kills: 4,
                rekill_pct: 30,
                el_kill_pct: 50,
                el_total: SHARDS * REPLICAS,
                ..Default::default()
            }),
            ..Default::default()
        },
        ring_app(ITERS),
    );
    let counters = cluster.el_event_counters();
    let report = cluster.wait_report(TIMEOUT).expect("sharded storm masked");
    check_ring(&report.results, ITERS).unwrap();
    check_cross_layer_identities(&report, "sharded");

    let per_replica: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Acquire)).collect();
    assert_eq!(per_replica.len(), (SHARDS * REPLICAS) as usize);
    let el_unique = merged_unique_events(&per_replica, REPLICAS as usize);
    let logical = (WORLD * ITERS) as u64;
    assert!(
        el_unique <= logical,
        "shard ledgers over-counted: {el_unique} > {logical}"
    );
    assert!(
        el_unique >= logical - (16 * WORLD) as u64,
        "shard ledgers lost events: {el_unique} < {logical}"
    );
}
