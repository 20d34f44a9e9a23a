//! Observability on the live runtime: the invariant monitor watching
//! real engine record streams, the live health endpoint scraped mid-run,
//! and the merged dump of an in-process run.

use mvr_core::{NodeId, Payload, Rank};
use mvr_obs::{audit, read_dump, ProtoEvent, SendDisposition};
use mvr_runtime::{
    fail_stop_group, Cluster, ClusterConfig, ClusterError, CountTrigger, NodeMpi, SchedulerConfig,
    TurbulenceConfig,
};
use mvr_workloads::apps::ring_app;
use std::io::{Read, Write};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn monitor_passes_a_clean_run() {
    let cfg = ClusterConfig {
        world: 4,
        monitor: true,
        ..Default::default()
    };
    let results = Cluster::launch(cfg, ring_app(20))
        .wait(TIMEOUT)
        .expect("clean run must not trip the monitor");
    assert_eq!(results.len(), 4);
}

#[test]
fn monitor_stays_clean_through_crash_and_recovery() {
    // Recovery traffic (RESTART handshake, replay, retransmits) obeys
    // the same invariants; a crash must not produce false positives.
    let cfg = ClusterConfig {
        world: 4,
        monitor: true,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, ring_app(40));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        handle.kill(Rank(1));
    });
    let results = cluster
        .wait(TIMEOUT)
        .expect("recovery must not trip the monitor");
    killer.join().unwrap();
    assert_eq!(results.len(), 4);
}

#[test]
fn monitor_catches_an_injected_gate_violation() {
    // A rogue recorder (pseudo-rank beyond the world) emits a stream
    // that violates the pessimism gate: a payload transmitted while a
    // reception event is still unacked. The run must fail with
    // InvariantViolated naming the gate invariant.
    let cfg = ClusterConfig {
        world: 2,
        monitor: true,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, ring_app(10));
    let rogue = cluster.recorder_hub().recorder(7);
    rogue.record(
        1,
        ProtoEvent::Deliver {
            from: 0,
            sender_clock: 5,
            receiver_clock: 1,
            replay: false,
        },
    );
    rogue.record(
        2,
        ProtoEvent::Send {
            to: 0,
            clock: 1,
            bytes: 64,
            disposition: SendDisposition::Wire,
        },
    );
    match cluster.wait(TIMEOUT) {
        Err(ClusterError::InvariantViolated { violation }) => {
            assert_eq!(violation.invariant, "pessimism-gate");
            assert_eq!(violation.rank, 7);
        }
        other => panic!("expected InvariantViolated, got {other:?}"),
    }
}

fn scrape(addr: std::net::SocketAddr) -> Option<String> {
    let mut s = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    Some(out)
}

#[test]
fn health_endpoint_serves_a_live_page_mid_run() {
    // Ranks idle long enough for the scraper thread to catch the run in
    // flight; the dispatcher republishes the page every poll tick.
    let app = |_mpi: &mut NodeMpi, _restored: Option<Payload>| {
        for _ in 0..60 {
            std::thread::sleep(Duration::from_millis(4));
        }
        Ok(Payload::from_vec(vec![1]))
    };
    let cfg = ClusterConfig {
        world: 3,
        health_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, app);
    let addr = cluster.health_addr().expect("endpoint bound");
    let scraper = std::thread::spawn(move || {
        // Poll until the dispatcher has published a real page.
        for _ in 0..500 {
            if let Some(page) = scrape(addr) {
                if page.contains("mvr_world") {
                    return Some(page);
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        None
    });
    let results = cluster.wait(TIMEOUT).expect("run completes");
    assert_eq!(results.len(), 3);
    let page = scraper
        .join()
        .unwrap()
        .expect("a live page was scraped before the run ended");
    assert!(page.starts_with("HTTP/1.0 200 OK"), "{page}");
    assert!(page.contains("mvr_up 1"), "{page}");
    assert!(page.contains("mvr_world 3"), "{page}");
    assert!(page.contains("mvr_rank_alive{rank=\"0\"} 1"), "{page}");
    assert!(
        page.contains("mvr_rank_restart_budget_remaining{rank=\"0\"} 256"),
        "{page}"
    );
    assert!(page.contains("mvr_el_events_total{el=\"0\"}"), "{page}");
    assert!(page.contains("mvr_monitor_enabled 0"), "{page}");
    assert!(
        page.contains("mvr_timing_count{interval=\"gate_wait\"}"),
        "{page}"
    );
}

/// An in-process run with a run directory keeps every record: each
/// incarnation streams to its own file and the launcher merges them
/// into one dump that passes the strict audit. Before, each recorder
/// kept only its last 4 096 records, so a 2 000-lap ring lost most of
/// its timeline and the audit found hundreds of orphan edges.
#[test]
fn an_in_process_dump_keeps_every_record_and_audits_clean() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("inproc_dump");
    let kill_at_send = |r| CountTrigger {
        watch: NodeId::Computing(Rank(r)),
        at: 40,
        kill: fail_stop_group(Rank(r)),
    };
    let cfg = ClusterConfig {
        world: 4,
        turbulence: Some(TurbulenceConfig {
            seed: 0x0D1,
            crash_on_send: vec![kill_at_send(1), kill_at_send(2)],
            ..Default::default()
        }),
        obs_dir: Some(dir.clone()),
        ..Default::default()
    };
    let report = Cluster::launch(cfg, ring_app(2000))
        .wait_report(TIMEOUT)
        .expect("both kills recover");
    assert_eq!(report.restarts, 2);
    let merge = report.merge.expect("a run directory yields a merged dump");
    assert_eq!(merge.jsonl, dir.join("merged.jsonl"));
    let (header, timeline) = read_dump(&merge.jsonl).expect("the dump reads back");
    let header = header.expect("a merged dump has a header");
    assert!(
        timeline.len() > 4 * 4096,
        "{} records: more than four rings' worth",
        timeline.len()
    );
    let audit = audit(Some(&header), &timeline).expect("well-formed");
    assert!(audit.findings.is_empty(), "{:?}", audit.findings);
    // One process, one epoch: the merge has nothing to correct.
    assert!(header.track.is_empty(), "{:?}", header.track);
}
