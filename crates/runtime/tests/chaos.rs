//! Seeded chaos regression tests: deterministic fault placement via the
//! fabric's turbulence layer (crash-on-Nth-send/receive lands crashes at
//! exact causal points — mid-replay, mid-checkpoint), plus the hardened
//! dispatcher restart policy (non-blocking scheduled respawns, restart
//! budget, fail-fast without `auto_restart`) and the randomized
//! crash-storm driver.
//!
//! Every failure here is replayable: the fault schedule is a pure
//! function of the seed and trigger counts in the test body.

use mvr_core::{NodeId, Payload, Rank};
use mvr_runtime::{
    fail_stop_group, ChaosConfig, Cluster, ClusterConfig, ClusterError, CountTrigger, MpiApp,
    NodeMpi, SchedulerConfig, ShardMap, Topology, TurbulenceConfig,
};
use mvr_workloads::apps::{check_ring, ring_app};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

fn ckpt_cfg() -> Option<SchedulerConfig> {
    Some(SchedulerConfig {
        interval: Duration::from_millis(1),
        ..Default::default()
    })
}

// ---------------------------------------------------------------------
// Turbulence: seeded delays and count-trigger crashes
// ---------------------------------------------------------------------

#[test]
fn seeded_link_delays_preserve_results() {
    // Delay-only turbulence perturbs interleavings without any crash; the
    // run must be indistinguishable from a fault-free one.
    let (n, iters) = (3, 120);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            turbulence: Some(TurbulenceConfig::delays(0xD31A_5EED, 120)),
            ..Default::default()
        },
        ring_app(iters),
    );
    let results = cluster.wait(TIMEOUT).expect("delays are not faults");
    check_ring(&results, iters).unwrap();
}

#[test]
fn crash_on_nth_send_recovers() {
    // Rank 1 dies fail-stop the instant its node completes send #35 — a
    // fixed point of its causal history, replayable from the config alone:
    // two sends per ring step (the data, its reception event's batch), so
    // about its 17th delivery.
    let (n, iters) = (3, 250);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            turbulence: Some(TurbulenceConfig {
                seed: 0xAB,
                crash_on_send: vec![CountTrigger {
                    watch: NodeId::Computing(Rank(1)),
                    at: 35,
                    kill: fail_stop_group(Rank(1)),
                }],
                ..Default::default()
            }),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("recovers");
    check_ring(&report.results, iters).unwrap();
    assert!(report.restarts >= 1, "the trigger must have fired");
    assert!(
        report.recoveries >= 1,
        "the reincarnation must have run a recovery"
    );
    assert!(report.replays_completed >= 1);
}

#[test]
fn rekill_during_replay_recovers() {
    // Receive-counters are cumulative across incarnations: the first
    // trigger kills rank 2, the second (a few deliveries later) lands on
    // its reincarnation while it is still consuming retransmissions —
    // i.e. mid-replay. The third incarnation must still converge on the
    // fault-free result.
    let (n, iters) = (3, 300);
    let watch = NodeId::Computing(Rank(2));
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            turbulence: Some(TurbulenceConfig {
                seed: 0x2E,
                crash_on_recv: vec![
                    CountTrigger {
                        watch,
                        at: 60,
                        kill: fail_stop_group(Rank(2)),
                    },
                    CountTrigger {
                        watch,
                        at: 72,
                        kill: fail_stop_group(Rank(2)),
                    },
                ],
                ..Default::default()
            }),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("survives re-kill");
    check_ring(&report.results, iters).unwrap();
    assert!(report.restarts >= 2, "both triggers must have fired");
}

#[test]
fn overlapping_rank_crashes_recover() {
    // Two ranks die at nearly the same causal instant (each on its own
    // 27th send, about its 13th delivery); their recoveries proceed
    // concurrently under the non-blocking respawn scheduler.
    let (n, iters) = (4, 300);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            restart_delay: Duration::from_millis(5),
            turbulence: Some(TurbulenceConfig {
                seed: 0x0B,
                crash_on_send: vec![
                    CountTrigger {
                        watch: NodeId::Computing(Rank(1)),
                        at: 27,
                        kill: fail_stop_group(Rank(1)),
                    },
                    CountTrigger {
                        watch: NodeId::Computing(Rank(3)),
                        at: 27,
                        kill: fail_stop_group(Rank(3)),
                    },
                ],
                ..Default::default()
            }),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("overlap recovers");
    check_ring(&report.results, iters).unwrap();
    assert!(report.restarts >= 2);
}

#[test]
fn checkpoint_server_crash_mid_checkpoint() {
    // §4.3: "in case of crash of ... checkpoint servers, the related
    // processes may restart from scratch, at worst". The CS is killed the
    // instant it accepts its 4th packet — mid-checkpoint-traffic — then a
    // rank dies (rank 0, at its 52nd send: about its 25th delivery); the
    // rank's restart degrades to scratch (or to whatever image survived)
    // and the run still completes correctly.
    //
    // The event logger, by contrast, is the one component this deployment
    // *assumes* reliable (§4.3); no test here kills it, and the EL-kill
    // stall behaviour is pinned by `tests/deployment.rs`.
    //
    // However fast the ring runs, no rank returns before the dispatcher
    // has relaunched the CS: a 1000-lap ring alone could end before the
    // liveness scan that relaunches it (release builds, 2 runs in 20), or
    // before the CS's 4th packet. So a rank that has finished its ring
    // keeps offering checkpoint sites, whose image holds its result,
    // until the dispatcher's health page counts the relaunch.
    // The scheduler's first order can go down with rank 0 (killed a few
    // ms in), and waiting out the default 500 ms for its completion
    // would stop checkpointing for the rest of the run (1 run in 3,
    // standalone).
    let (n, iters) = (3, 1000);
    const DONE: &[u8] = b"ring done:";
    let health = Arc::new(OnceLock::<SocketAddr>::new());
    let ring = ring_app(iters);
    let seen = health.clone();
    let app = move |mpi: &mut NodeMpi, restored: Option<Payload>| {
        let out = match restored {
            Some(img) if img.as_slice().starts_with(DONE) => {
                Payload::from_vec(img.as_slice()[DONE.len()..].to_vec())
            }
            img => ring.run(mpi, img)?,
        };
        let image = [DONE, out.as_slice()].concat();
        let deadline = Instant::now() + TIMEOUT;
        while seen.get().is_none_or(|&addr| service_restarts(addr) == 0) {
            assert!(Instant::now() < deadline, "the CS was never relaunched");
            mpi.checkpoint_site(&image)?;
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(out)
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            health_addr: Some("127.0.0.1:0".into()),
            checkpointing: Some(SchedulerConfig {
                interval: Duration::from_millis(1),
                completion_timeout: Duration::from_millis(10),
                ..Default::default()
            }),
            turbulence: Some(TurbulenceConfig {
                seed: 0xC5,
                crash_on_recv: vec![CountTrigger {
                    watch: NodeId::CheckpointServer(0),
                    at: 4,
                    kill: vec![NodeId::CheckpointServer(0)],
                }],
                crash_on_send: vec![CountTrigger {
                    watch: NodeId::Computing(Rank(0)),
                    at: 52,
                    kill: fail_stop_group(Rank(0)),
                }],
                ..Default::default()
            }),
            ..Default::default()
        },
        app,
    );
    assert!(health.set(cluster.health_addr().expect("bound")).is_ok());
    let report = cluster.wait_report(TIMEOUT).expect("survives CS loss");
    check_ring(&report.results, iters).unwrap();
    assert!(
        report.service_restarts >= 1,
        "the dispatcher must have relaunched the checkpoint server"
    );
    assert!(report.restarts >= 1);
}

/// `mvr_service_restarts_total` from the health page at `addr` (0 while
/// the page cannot be read).
fn service_restarts(addr: SocketAddr) -> u64 {
    let mut page = String::new();
    if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
        let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
        let _ = s.read_to_string(&mut page);
    }
    page.lines()
        .find_map(|l| l.strip_prefix("mvr_service_restarts_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Dispatcher restart policy
// ---------------------------------------------------------------------

#[test]
fn auto_restart_off_fails_fast_with_rank_lost() {
    // Without the execution monitor's relaunch there is no recovery path:
    // the run must fail immediately with RankLost, not idle to timeout.
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 2,
            auto_restart: false,
            ..Default::default()
        },
        ring_app(100_000),
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(1));
    });
    let start = Instant::now();
    let err = cluster.wait(TIMEOUT).expect_err("rank is unrecoverable");
    killer.join().unwrap();
    match err {
        ClusterError::RankLost { rank } => assert_eq!(rank, Rank(1)),
        other => panic!("expected RankLost, got: {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "must fail fast, not wait out the {TIMEOUT:?} timeout"
    );
}

#[test]
fn restart_budget_exhaustion_fails_the_run() {
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 2,
            max_rank_restarts: 1,
            ..Default::default()
        },
        ring_app(100_000),
    );
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(0));
        // Wait for the reincarnation, then kill it too: budget of 1 is
        // now exhausted.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_alive(Rank(0)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        handle.kill(Rank(0));
    });
    let err = cluster.wait(TIMEOUT).expect_err("budget exhausted");
    killer.join().unwrap();
    match err {
        ClusterError::RestartBudgetExhausted { rank, restarts } => {
            assert_eq!(rank, Rank(0));
            assert!(restarts >= 1);
        }
        other => panic!("expected RestartBudgetExhausted, got: {other}"),
    }
}

#[test]
fn restart_delay_does_not_block_other_recoveries() {
    // Two ranks killed back-to-back with a sizeable restart_delay: under
    // the old blocking policy the second respawn waited out the first
    // rank's full sleep; scheduled respawns overlap the delays instead.
    // The kills land at program points (each victim's 35th send, about
    // its 17th ring step), so they land however fast the ring runs.
    let (n, iters) = (4, 200);
    let delay = Duration::from_millis(40);
    let kill_at_send = |r| CountTrigger {
        watch: NodeId::Computing(Rank(r)),
        at: 35,
        kill: fail_stop_group(Rank(r)),
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            restart_delay: delay,
            checkpointing: ckpt_cfg(),
            turbulence: Some(TurbulenceConfig {
                seed: 0xDE1A,
                crash_on_send: vec![kill_at_send(1), kill_at_send(2)],
                ..Default::default()
            }),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("both recover");
    check_ring(&report.results, iters).unwrap();
    assert_eq!(report.restarts, 2, "each trigger kills its victim once");
}

// ---------------------------------------------------------------------
// Randomized (but seeded) crash storms
// ---------------------------------------------------------------------

#[test]
fn seeded_chaos_storm_completes_with_correct_results() {
    let (n, iters) = (4, 400);
    let chaos = ChaosConfig {
        seed: 0xB00,
        kills: 5,
        max_burst: 2,
        rekill_pct: 40,
        cs_kill_pct: 20,
        ..Default::default()
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            chaos: Some(chaos.clone()),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster
        .wait_report(TIMEOUT)
        .unwrap_or_else(|e| panic!("storm seed {:#x} failed: {e}", chaos.seed));
    check_ring(&report.results, iters).unwrap();
    let storm = report.chaos.expect("chaos driver ran");
    assert!(!storm.plan.is_empty());
    assert_eq!(
        storm.plan,
        chaos.plan(&Topology::new(n, 1, 1).unwrap()),
        "the executed plan must be replayable from the seed"
    );
}

#[test]
fn chaos_storm_under_ring_backpressure() {
    // Storm with the fabric's SPSC rings shrunk to 2 slots: bursts
    // overflow the ring fast path into the spill lane constantly, so
    // kills land while lanes hold spilled messages and producers race the
    // drain. Kill-empties-channels (§4.1) and per-sender FIFO must hold
    // across the ring→spill→ring seam; the closed-form ring accumulator
    // proves exactly-once, correctly-ordered delivery end to end.
    let (n, iters) = (4, 300);
    let chaos = ChaosConfig {
        seed: 0xBACC,
        kills: 4,
        max_burst: 2,
        rekill_pct: 30,
        ..Default::default()
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            ring_capacity: Some(2),
            chaos: Some(chaos.clone()),
            turbulence: Some(TurbulenceConfig::delays(0xBACC, 60)),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster
        .wait_report(TIMEOUT)
        .unwrap_or_else(|e| panic!("backpressure storm seed {:#x} failed: {e}", chaos.seed));
    check_ring(&report.results, iters).unwrap();
    assert!(report.restarts >= 1, "the storm must have killed someone");
}

// ---------------------------------------------------------------------
// Replicated event loggers: quorum failover
// ---------------------------------------------------------------------

#[test]
fn el_replica_kill_mid_run_is_masked_by_quorum_failover() {
    // The sharded/replicated acceptance scenario: 4 shards × 2 replicas,
    // continuous checkpointing, the online invariant monitor on, and one
    // replica of rank 0's shard killed mid-run. With R = 2 the quorum is
    // 2, so the daemons' gates stall during the sub-quorum window; the
    // dispatcher revives the replica on its surviving ledger (absorbing
    // the live peer's snapshot), its catch-up announcement re-acks the
    // watermarks, and the run completes with fault-free results. A
    // monitor violation would fail the wait, so success implies the
    // invariants held throughout the failover.
    let (n, iters) = (4, 300);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            el_shards: 4,
            el_replicas: 2,
            checkpointing: ckpt_cfg(),
            monitor: true,
            ..Default::default()
        },
        ring_app(iters),
    );
    let handle = cluster.fault_handle();
    let shard = ShardMap::new(4).shard_for(Rank(0));
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(15));
        handle.kill_el_replica(shard, 1);
    });
    let report = cluster
        .wait_report(TIMEOUT)
        .expect("an EL replica kill must be masked by the quorum");
    killer.join().unwrap();
    check_ring(&report.results, iters).unwrap();
    assert!(
        report.service_restarts >= 1,
        "the dispatcher must have revived the killed replica"
    );
    assert_eq!(
        report.restarts, 0,
        "no rank may die because an EL replica did"
    );
}

#[test]
fn chaos_storm_with_el_replica_kills() {
    // Rank kills and EL replica kills interleaved by the seeded driver:
    // every non-rekill event also takes down one of the four replicas
    // (2 shards × 2). Revival + catch-up must keep masking while ranks
    // crash and replay concurrently.
    let (n, iters) = (4, 300);
    let chaos = ChaosConfig {
        seed: 0xE1,
        kills: 3,
        el_kill_pct: 100,
        ..Default::default()
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            el_shards: 2,
            el_replicas: 2,
            checkpointing: ckpt_cfg(),
            chaos: Some(chaos.clone()),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster
        .wait_report(TIMEOUT)
        .unwrap_or_else(|e| panic!("EL storm seed {:#x} failed: {e}", chaos.seed));
    check_ring(&report.results, iters).unwrap();
    let storm = report.chaos.expect("chaos driver ran");
    assert!(
        storm.el_kills >= 1,
        "at least one EL replica kill must have executed"
    );
    assert_eq!(
        storm.plan,
        chaos.plan(&Topology::new(n, 2, 2).unwrap()),
        "EL kills must be replayable from the seed"
    );
}

#[test]
fn chaos_storm_with_turbulence_delays() {
    // Storm + seeded link jitter together: the harshest standard setup of
    // the soak harness, pinned here at small scale as a regression.
    let (n, iters) = (3, 250);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: ckpt_cfg(),
            chaos: Some(ChaosConfig {
                seed: 0x51,
                kills: 3,
                ..Default::default()
            }),
            turbulence: Some(TurbulenceConfig::delays(0x51, 80)),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("storm + jitter");
    check_ring(&report.results, iters).unwrap();
}
