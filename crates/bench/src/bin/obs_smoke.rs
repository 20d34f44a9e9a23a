//! CI smoke test for the observability layer: one pinned crash
//! scenario recorded to per-incarnation streams, their merge into
//! `smoke.jsonl`, and structural validation of that dump.
//!
//! The kills are count triggers, not timed: rank 1 dies at its 20th
//! send (about its 10th delivery), rank 2 at its 50th mailbox accept
//! and its reincarnation again at the 58th (during recovery). Victims
//! and kill count are the same on every run; where in the application a
//! kill lands still moves a little, since the counted traffic includes
//! EL acks and control messages.
//!
//! Checks, in order:
//!   1. the run still completes with bit-exact payloads;
//!   2. the dump is byte-identical to re-rendering what it reads back as
//!      ([`mvr_obs::render_dump`]) and passes the strict
//!      [`mvr_obs::audit`]: header counts, the record schema, closed
//!      spans, a clean invariant replay;
//!   3. every kill left its respawn record and the protocol reacted
//!      (recovery records, restarts).
//!
//! CI then runs `obs_analyze --strict chaos_dumps/obs-smoke/smoke.jsonl`
//! (the report and the Perfetto trace) and `obs_diff` against
//! `results/obs_smoke_baseline.json`.
//!
//! Exits nonzero with a triage message on the first violated check.

use mvr_core::{NodeId, Rank};
use mvr_obs::{audit, merge_streams, read_dump, render_dump, ProtoEvent, DISPATCHER_RANK};
use mvr_runtime::{
    fail_stop_group, Cluster, ClusterConfig, CountTrigger, SchedulerConfig, TurbulenceConfig,
};
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

fn kill(rank: u32, at: u64) -> CountTrigger {
    CountTrigger {
        watch: NodeId::Computing(Rank(rank)),
        at,
        kill: fail_stop_group(Rank(rank)),
    }
}

fn main() {
    let dump_dir = PathBuf::from("chaos_dumps/obs-smoke");
    let turbulence = TurbulenceConfig {
        crash_on_send: vec![kill(1, 20)],
        crash_on_recv: vec![kill(2, 50), kill(2, 58)],
        ..TurbulenceConfig::delays(SEED, 50)
    };
    let kills = turbulence.crash_on_send.len() + turbulence.crash_on_recv.len();
    let cfg = ClusterConfig {
        world: WORLD,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        turbulence: Some(turbulence),
        obs_dir: Some(dump_dir.clone()),
        monitor: true,
        ..Default::default()
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

    // 1. Exactly-once delivery held under the kills.
    if let Err(detail) = check(&report.results, |r| expected_stream(r, MSGS)) {
        let msg = format!(
            "payload mismatch: {detail} (dump in {})",
            dump_dir.display()
        );
        hub.recorder(DISPATCHER_RANK)
            .record(0, ProtoEvent::Divergence { detail });
        let _ = merge_streams(&dump_dir, "divergence");
        fail(&msg);
    }

    // 2. The successful run's streams merged into one dump: it reads
    // back to exactly what it renders as, and is clean under the strict
    // audit.
    let dump =
        merge_streams(&dump_dir, "smoke").unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
    let (header, timeline) = read_dump(&dump.jsonl).unwrap_or_else(|e| fail(&e));
    if timeline.is_empty() {
        fail("timeline is empty with recorders enabled");
    }
    let dumped = std::fs::read_to_string(&dump.jsonl)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", dump.jsonl.display())));
    if header.as_ref() != Some(&dump.header) || dumped != render_dump(&dump.header, &timeline) {
        fail("dumped JSONL differs from canonical re-rendering");
    }
    let audit = audit(Some(&dump.header), &timeline).unwrap_or_else(|e| fail(&e));
    if !audit.findings.is_empty() {
        fail(&format!("strict audit: {}", audit.findings.join("; ")));
    }

    // 3. Every kill and the recovery machinery left records.
    let count = |pred: fn(&ProtoEvent) -> bool| timeline.iter().filter(|r| pred(&r.event)).count();
    let respawns = count(|e| matches!(e, ProtoEvent::RespawnScheduled { .. }));
    if respawns != kills {
        fail(&format!(
            "{respawns} RespawnScheduled records for {kills} count-triggered kills"
        ));
    }
    let recoveries = count(|e| matches!(e, ProtoEvent::RecoveryBegin { .. }));
    if recoveries == 0 || report.restarts == 0 {
        fail("no restart recovered: scenario too weak to smoke-test recovery");
    }

    println!(
        "obs_smoke: ok — {} records, {} kills, {} recoveries, {} restarts\n{}",
        timeline.len(),
        respawns,
        recoveries,
        report.restarts,
        dump.summary()
    );
}
