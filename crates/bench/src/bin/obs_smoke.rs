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

use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiResult, Source, Tag};
use mvr_obs::{header_line, jsonl_line, validate_records, DumpHeader, ProtoEvent, DISPATCHER_RANK};
use mvr_runtime::{
    ChaosConfig, Cluster, ClusterConfig, NodeMpi, SchedulerConfig, TurbulenceConfig,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

const WORLD: u32 = 4;
const MSGS: u32 = 80;
const SEED: u64 = 0x0B5E7EED;

#[derive(Clone, Serialize, Deserialize)]
struct IterState {
    iter: u32,
    acc: u64,
}

fn stream_app(msgs: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let mut st: IterState = match &restored {
            Some(p) => bincode::deserialize(p.as_slice()).expect("valid state"),
            None => IterState { iter: 0, acc: 0 },
        };
        let me = mpi.rank().0;
        let n = mpi.size();
        while st.iter < msgs {
            let w = if me == 0 {
                let w = st.iter as u64;
                mpi.send(Rank(1), 5, &w.to_le_bytes())?;
                w
            } else {
                let (_, _, body) = mpi.recv(Source::Rank(Rank(me - 1)), Tag::Value(5))?;
                let v = u64::from_le_bytes(body.as_slice().try_into().expect("8 bytes"));
                let w = v.wrapping_mul(31).wrapping_add(me as u64);
                if me + 1 < n {
                    mpi.send(Rank(me + 1), 5, &w.to_le_bytes())?;
                }
                w
            };
            st.acc = st.acc.wrapping_mul(131).wrapping_add(w);
            st.iter += 1;
            mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
        }
        Ok(Payload::from_vec(st.acc.to_le_bytes().to_vec()))
    }
}

fn expected_stream(me: u32, msgs: u32) -> u64 {
    let mut acc: u64 = 0;
    for i in 0..msgs {
        let mut w = i as u64;
        for r in 1..=me {
            w = w.wrapping_mul(31).wrapping_add(r as u64);
        }
        acc = acc.wrapping_mul(131).wrapping_add(w);
    }
    acc
}

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let dump_dir = PathBuf::from("chaos_dumps/obs-smoke");
    let cfg = ClusterConfig {
        world: WORLD,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        chaos: Some(ChaosConfig {
            seed: SEED,
            kills: 3,
            min_gap: Duration::from_millis(2),
            max_gap: Duration::from_millis(8),
            max_burst: 2,
            cs_kill_pct: 0,
            rekill_pct: 50,
            ..Default::default()
        }),
        turbulence: Some(TurbulenceConfig::delays(SEED ^ 0x7A17, 50)),
        // Recording on; a failing run leaves its merged timeline here.
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

    // 1. Exactly-once delivery held under the storm.
    for (r, p) in report.results.iter().enumerate() {
        let got = u64::from_le_bytes(p.as_slice().try_into().expect("8 bytes"));
        let want = expected_stream(r as u32, MSGS);
        if got != want {
            hub.recorder(DISPATCHER_RANK).record(
                0,
                ProtoEvent::Divergence {
                    detail: format!("rank {r} got {got:#x} want {want:#x}"),
                },
            );
            let _ = hub.dump(&dump_dir, "divergence");
            fail(&format!(
                "payload mismatch on rank {r} (dump in {})",
                dump_dir.display()
            ));
        }
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
