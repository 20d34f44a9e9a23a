//! Debug-build bug hunter: loops a short stream pipeline under a
//! high-rekill crash storm plus link turbulence, a fresh seed per
//! iteration, verifying bit-exact results every time. Run it from a
//! *debug* build (the engine's exactly-once `debug_assert`s fire at the
//! exact corruption point) and run several instances in parallel — the
//! deep incarnation races only surface under scheduler load.
//!
//!     cargo build --workspace
//!     for j in 1 2 3 4 5; do ./target/debug/chaos_hunt 150 $j & done; wait
//!
//! `chaos_hunt <iters> <base>` derives seed `base*1_000_003 + i`; with
//! `iters == 1`, `base` is the exact seed to replay (as printed by a
//! failure). Flight recorders run throughout: any failure — cluster
//! error or payload mismatch — dumps the merged clock-ordered timeline
//! (JSONL + Chrome trace + triage note) into `chaos_dumps/hunt-<base>/`
//! and prints the paths. `MVR_ENGINE_TRACE=1` additionally mirrors every
//! record to stderr as it happens. Complements the release-build
//! `chaos_soak` scenario suite.
//!
//! Triage: a *timeout* whose dump shows live threads and small restart
//! counts, on a machine oversubscribed well beyond the 5-hunter load,
//! is usually the 120 s budget expiring on a slow-but-progressing debug
//! run — replay the printed seed on a quiet machine before digging. A
//! wrong result, a protocol error, or a replayable timeout is always a
//! real bug.

use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiResult, Source, Tag};
use mvr_obs::{ProtoEvent, DISPATCHER_RANK};
use mvr_runtime::{
    ChaosConfig, Cluster, ClusterConfig, NodeMpi, SchedulerConfig, TurbulenceConfig,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

const WORLD: u32 = 4;
const MSGS: u32 = 160;

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

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let base: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // Flight recorders stay on for the whole hunt; any failure dumps the
    // merged timeline here (per-instance dir so parallel hunters don't
    // clobber each other's dumps).
    let dump_dir = PathBuf::from(format!("chaos_dumps/hunt-{base}"));
    for i in 0..iters {
        // With a single iteration, `base` is the exact seed to replay.
        let seed = if iters == 1 {
            base
        } else {
            base.wrapping_mul(1_000_003).wrapping_add(i)
        };
        let cfg = ClusterConfig {
            world: WORLD,
            checkpointing: Some(SchedulerConfig {
                interval: Duration::from_millis(1),
                ..Default::default()
            }),
            chaos: Some(ChaosConfig {
                seed,
                kills: 6,
                min_gap: Duration::from_millis(2),
                max_gap: Duration::from_millis(7),
                max_burst: 2,
                cs_kill_pct: 0,
                rekill_pct: 80,
                ..Default::default()
            }),
            turbulence: Some(TurbulenceConfig::delays(seed ^ 0x7A17, 50)),
            // Recording on; a failing run leaves its merged timeline here.
            obs_dir: Some(dump_dir.clone()),
            ..Default::default()
        };
        let cluster = Cluster::launch(cfg, stream_app(MSGS));
        // Keep a handle on the recorders: payload mismatches are detected
        // here, after the dispatcher is gone, and still want a timeline.
        let hub = cluster.recorder_hub();
        let report = match cluster.wait_report(Duration::from_secs(120)) {
            Ok(r) => r,
            Err(e) => {
                // The dispatcher already dumped the timeline (obs_dir).
                eprintln!("seed {seed}: cluster error: {e}");
                eprintln!("triage: flight-recorder dump in {}", dump_dir.display());
                std::process::exit(1);
            }
        };
        for (r, p) in report.results.iter().enumerate() {
            let got = u64::from_le_bytes(p.as_slice().try_into().expect("8 bytes"));
            let want = expected_stream(r as u32, MSGS);
            if got != want {
                let detail = format!("seed {seed}: rank {r} got {got:#x} want {want:#x}");
                eprintln!("{detail}");
                hub.recorder(DISPATCHER_RANK)
                    .record(0, ProtoEvent::Divergence { detail });
                match hub.dump(&dump_dir, "divergence") {
                    Ok(paths) => eprintln!("triage: {}", paths.summary()),
                    Err(e) => eprintln!("triage: flight-recorder dump failed: {e}"),
                }
                std::process::exit(1);
            }
        }
        if i % 20 == 19 {
            eprintln!("  ...{} clean (last seed {seed})", i + 1);
        }
    }
    eprintln!("all {iters} iterations clean");
}
