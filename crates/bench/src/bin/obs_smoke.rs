//! CI smoke test for the observability layer: one seeded chaos scenario
//! with flight recorders on, a forced dump, and structural validation of
//! the dumped artifacts.
//!
//! Checks, in order:
//!   1. the run still completes with bit-exact payloads under the storm;
//!   2. the merged timeline passes schema validation — every record
//!      round-trips through the wire encoding, per-rank wall clocks are
//!      monotone, and per-rank logical clocks are monotone except across
//!      recovery resets ([`mvr_obs::validate_records`]);
//!   3. the dumped JSONL is byte-identical to re-rendering the timeline;
//!   4. the Chrome-trace/Perfetto export exists and is non-trivial;
//!   5. the timeline actually captured the storm (chaos kills) and the
//!      protocol reacting to it (restart/recovery records).
//!
//! Exits nonzero with a triage message on the first violated check.

use mvr_bench::storm_deployment;
use mvr_obs::{header_line, jsonl_line, validate_records, DumpHeader, ProtoEvent, DISPATCHER_RANK};
use mvr_runtime::{ChaosConfig, Cluster, ClusterConfig};
use mvr_workloads::apps::{check, expected_stream, stream_app};
use std::path::PathBuf;
use std::time::Duration;

const WORLD: u32 = 4;
const MSGS: u32 = 80;
const SEED: u64 = 0x0B5E7EED;

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let dump_dir = PathBuf::from("chaos_dumps/obs-smoke");
    let chaos = ChaosConfig {
        seed: SEED,
        kills: 3,
        min_gap: Duration::from_millis(2),
        max_gap: Duration::from_millis(8),
        max_burst: 2,
        cs_kill_pct: 0,
        rekill_pct: 50,
        ..Default::default()
    };
    let cfg = ClusterConfig {
        monitor: true,
        ..storm_deployment(WORLD, chaos, dump_dir.clone())
    };
    let cluster = Cluster::launch(cfg, stream_app(MSGS));
    let hub = cluster.recorder_hub();
    let report = match cluster.wait_report(Duration::from_secs(60)) {
        Ok(r) => r,
        Err(e) => fail(&format!(
            "seeded scenario did not complete: {e} (dump in {})",
            dump_dir.display()
        )),
    };

    // 1. Exactly-once delivery held under the storm.
    if let Err(detail) = check(&report.results, |r| expected_stream(r, MSGS)) {
        let msg = format!(
            "payload mismatch: {detail} (dump in {})",
            dump_dir.display()
        );
        hub.recorder(DISPATCHER_RANK)
            .record(0, ProtoEvent::Divergence { detail });
        let _ = hub.dump(&dump_dir, "divergence");
        fail(&msg);
    }

    // 2. Forced dump of the successful run, then schema validation.
    let paths = hub
        .dump(&dump_dir, "smoke")
        .unwrap_or_else(|e| fail(&format!("dump failed: {e}")));
    let timeline = hub.timeline();
    if timeline.is_empty() {
        fail("timeline is empty with recorders enabled");
    }
    if let Err(e) = validate_records(&timeline) {
        fail(&format!("schema validation: {e}"));
    }

    // 3. The dumped JSONL is exactly the canonical rendering: one
    // header line carrying the drop count, then one record per line,
    // clock-ordered.
    let dumped = std::fs::read_to_string(&paths.jsonl)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", paths.jsonl.display())));
    let mut canonical = header_line(&DumpHeader {
        records: timeline.len() as u64,
        dropped: paths.dropped,
        ..DumpHeader::default()
    });
    canonical.push('\n');
    for rec in &timeline {
        canonical.push_str(&jsonl_line(rec));
        canonical.push('\n');
    }
    if dumped != canonical {
        fail("dumped JSONL differs from canonical re-rendering");
    }
    if dumped.lines().count() != paths.records + 1 {
        fail("JSONL line count disagrees with reported record count");
    }
    if paths.dropped > 0 {
        fail("recorder ring wrapped during the smoke scenario; raise its capacity");
    }

    // 4. Perfetto export present and non-trivial.
    let trace = std::fs::read_to_string(&paths.trace)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", paths.trace.display())));
    if !trace.contains("traceEvents") || trace.len() < 128 {
        fail("Chrome-trace export looks malformed");
    }

    // 5. The storm and the recovery machinery both left records.
    let kills = timeline
        .iter()
        .filter(|r| matches!(r.event, ProtoEvent::ChaosKill { .. }))
        .count();
    if kills == 0 {
        fail("no ChaosKill records: chaos driver not threaded through obs");
    }
    let respawns = timeline
        .iter()
        .filter(|r| matches!(r.event, ProtoEvent::RespawnScheduled { .. }))
        .count();
    if respawns == 0 {
        fail("no RespawnScheduled records: dispatcher not threaded through obs");
    }
    if report.restarts == 0 {
        fail("storm executed no restarts: scenario too weak to smoke-test recovery");
    }

    println!(
        "obs_smoke: ok — {} records, {} chaos kills, {} respawns, {} restarts\n{}",
        timeline.len(),
        kills,
        respawns,
        report.restarts,
        paths.summary()
    );
}
