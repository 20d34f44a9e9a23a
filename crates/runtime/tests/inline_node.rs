//! The two-driver node under load and under fire: the MPI process makes
//! its channel calls on the node core while the daemon thread serves the
//! node mailbox into the same core, and kills land on either of them.
//!
//! A window stream (rank 0 sends a window, rank 1 consumes it — mostly
//! straight from the receive buffer, without a thread switch — and acks)
//! and a 4-rank ring run under seeded link delays, with crashes placed
//! by count triggers at points of a node's own history: a sender killed
//! mid-window, a receiver killed while its process is consuming a
//! backlog, and its reincarnation killed again while it replays. Every
//! result must equal the fault-free fold, which has a closed form. A
//! three-rank relay checks the other thing two drivers could get wrong:
//! a forwarder fed faster than it forwards must still forward.
//!
//! Deterministic in its verdict (CI loops it): thread interleavings vary
//! from run to run, and every one of them must produce the same folds.

use mvr_core::{NodeId, Payload, Rank};
use mvr_mpi::{MpiResult, Source, Tag};
use mvr_runtime::{
    fail_stop_group, Cluster, ClusterConfig, CountTrigger, NodeMpi, SchedulerConfig,
    TurbulenceConfig,
};
use mvr_workloads::apps::{check_ring, ring_app};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);
const DATA: i32 = 11;
const ACK: i32 = 12;
const WINDOW: u64 = 48;

fn step(fold: u64, v: u64) -> u64 {
    (fold ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

fn word(p: &Payload) -> u64 {
    u64::from_le_bytes(p.as_slice().try_into().expect("8 bytes"))
}

/// Rank 0 streams `windows` windows of [`WINDOW`] numbered messages and
/// folds the acks; rank 1 folds the messages and acks each window. No
/// checkpoint sites: a restart replays its whole history.
fn window_app(windows: u64) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, _restored| {
        let me = mpi.rank().0;
        let peer = Rank(1 - me);
        let mut fold = 0u64;
        for w in 0..windows {
            for i in w * WINDOW..(w + 1) * WINDOW {
                if me == 0 {
                    mpi.send(peer, DATA, &i.to_le_bytes())?;
                } else {
                    let (_, _, body) = mpi.recv(Source::Rank(peer), Tag::Value(DATA))?;
                    fold = step(fold, word(&body));
                }
            }
            if me == 0 {
                let (_, _, body) = mpi.recv(Source::Rank(peer), Tag::Value(ACK))?;
                fold = step(fold, word(&body));
            } else {
                mpi.send(peer, ACK, &w.to_le_bytes())?;
            }
        }
        Ok(Payload::from_vec(fold.to_le_bytes().to_vec()))
    }
}

/// What a fault-free window run returns: rank 0 folds the window
/// numbers, rank 1 the message numbers.
fn window_folds(windows: u64) -> [u64; 2] {
    [
        (0..windows).fold(0, step),
        (0..windows * WINDOW).fold(0, step),
    ]
}

fn kill_rank(watch: u32, at: u64) -> CountTrigger {
    CountTrigger {
        watch: NodeId::Computing(Rank(watch)),
        at,
        kill: fail_stop_group(Rank(watch)),
    }
}

fn folds(results: &[Payload]) -> Vec<u64> {
    results.iter().map(word).collect()
}

#[test]
fn window_stream_under_delays_equals_the_fault_free_folds() {
    let windows = 40;
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 2,
            checkpointing: None,
            turbulence: Some(TurbulenceConfig::delays(0x51DE, 40)),
            ..Default::default()
        },
        window_app(windows),
    );
    let report = cluster.wait_report(TIMEOUT).expect("delays are not faults");
    assert_eq!(folds(&report.results), window_folds(windows));
    assert_eq!(report.restarts, 0);
    // The receiver consumes whole backlogs between two event ships.
    let m = &report.rank_metrics[1];
    assert_eq!(m.events_logged, windows * WINDOW);
    assert!(
        m.el_batches_sent < m.events_logged,
        "a windowed stream must batch its events ({} batches for {} events)",
        m.el_batches_sent,
        m.events_logged
    );
}

#[test]
fn window_stream_survives_kills_of_sender_and_receiver_mid_window() {
    // Rank 0's fabric sends are its data messages plus one event batch
    // per ack, so its 7th-window-and-a-half send is a data message with
    // half a window already in flight. Rank 1's mailbox accepts little
    // but data: its trigger fires while the process is consuming the
    // window being streamed at it, and the second (counters run on
    // across incarnations) a few dozen resends into the reincarnation's
    // replay of the first three windows.
    let windows = 30;
    let mid_window = |w: u64| w * (WINDOW + 2) + WINDOW / 2;
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 2,
            checkpointing: None,
            turbulence: Some(TurbulenceConfig {
                seed: 0x1A7E,
                max_delay_us: 30,
                crash_on_send: vec![kill_rank(0, mid_window(7))],
                crash_on_recv: vec![
                    kill_rank(1, mid_window(3)),
                    kill_rank(1, mid_window(3) + 40),
                ],
            }),
            ..Default::default()
        },
        window_app(windows),
    );
    let report = cluster.wait_report(TIMEOUT).expect("recovers");
    assert_eq!(folds(&report.results), window_folds(windows));
    assert!(report.restarts >= 3, "all three triggers must have fired");
    assert!(report.replays_completed >= 1);
}

#[test]
fn ring_survives_kills_during_inline_receive_and_replay() {
    let (n, iters) = (4, 200);
    let cluster = Cluster::launch(
        ClusterConfig {
            world: n,
            checkpointing: Some(SchedulerConfig {
                interval: Duration::from_millis(1),
                ..Default::default()
            }),
            turbulence: Some(TurbulenceConfig {
                seed: 0x0417,
                max_delay_us: 60,
                crash_on_send: vec![kill_rank(2, 90)],
                // Rank 1 dies accepting a message, and its
                // reincarnation again a handful of messages into its
                // recovery (image, events, handshakes, resends).
                crash_on_recv: vec![kill_rank(1, 70), kill_rank(1, 77)],
            }),
            ..Default::default()
        },
        ring_app(iters),
    );
    let report = cluster.wait_report(TIMEOUT).expect("recovers");
    check_ring(&report.results, iters).unwrap();
    assert!(report.restarts >= 3, "all three triggers must have fired");
}

#[test]
fn a_forwarder_under_sustained_inflow_does_not_starve_its_downstream() {
    // Rank 0 streams at rank 1 until rank 2 has received NEEDED messages
    // — or CAP, far more than that could ever take — and rank 1 forwards
    // each one. Rank 0 only sends; rank 1 receives, sends and logs, so it
    // builds a backlog: if consuming it kept the forwards behind the
    // gate, they would reach rank 2 when rank 0 runs out.
    const NEEDED: u64 = 64;
    const CAP: u64 = 200_000;
    const STOP: u64 = u64::MAX;
    let reached = Arc::new(AtomicBool::new(false));
    let seen = reached.clone();
    let app = move |mpi: &mut NodeMpi, _restored: Option<Payload>| -> MpiResult<Payload> {
        let me = mpi.rank().0;
        let mut n = 0u64;
        if me == 0 {
            while n < CAP && !seen.load(Ordering::Acquire) {
                mpi.send(Rank(1), DATA, &n.to_le_bytes())?;
                n += 1;
            }
            mpi.send(Rank(1), DATA, &STOP.to_le_bytes())?;
        } else {
            loop {
                let (_, _, body) = mpi.recv(Source::Rank(Rank(me - 1)), Tag::Value(DATA))?;
                if me == 1 {
                    mpi.send(Rank(2), DATA, body.as_slice())?;
                }
                if word(&body) == STOP {
                    break;
                }
                n += 1;
                if me == 2 && n == NEEDED {
                    seen.store(true, Ordering::Release);
                }
            }
        }
        Ok(Payload::from_vec(n.to_le_bytes().to_vec()))
    };
    let cluster = Cluster::launch(
        ClusterConfig {
            world: 3,
            checkpointing: None,
            // Flight recording on, checked live.
            monitor: true,
            ..Default::default()
        },
        app,
    );
    let hub = cluster.recorder_hub();
    let report = cluster.wait_report(TIMEOUT).expect("no faults");
    let sent = folds(&report.results);
    assert_eq!([sent[1], sent[2]], [sent[0], sent[0]], "all relayed");
    assert!(
        sent[0] < CAP,
        "rank 2 had not received {NEEDED} messages when rank 0 had sent {CAP}"
    );
    // The mechanism, which holds on every interleaving: rank 1 never
    // receives past a forward that is still behind the gate, so no second
    // forward ever queues up behind it.
    let deepest = hub
        .timeline()
        .iter()
        .filter_map(|r| match r.event {
            mvr_obs::ProtoEvent::GateDefer { queued, .. } if r.rank == 1 => Some(queued),
            _ => None,
        })
        .max();
    assert_eq!(deepest, Some(1), "forwards piled up behind the gate");
}
