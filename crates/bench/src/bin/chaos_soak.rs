//! Crash-storm soak harness: N seeded chaos scenarios against the live
//! runtime, asserting exactly-once delivery and bit-exact final payloads
//! under randomized (but fully replayable) kill schedules.
//!
//! Every scenario is `pattern × storm × seed`: a communication pattern
//! (ring exchange, pipeline stream, any-source fan-in), a storm preset
//! (fault rate / burst / re-kill / checkpoint-server-kill mix), and an
//! RNG seed. The whole fault schedule — kill times, victims, bursts,
//! re-kills during replay, CS kills mid-checkpoint, per-link jitter — is
//! a pure function of the printed seed, so any failure is reproducible
//! by rerunning with that seed.
//!
//! `--smoke` runs the CI subset; the full sweep is 30 scenarios.
//! `--proc-storm` adds the multi-process preset: the same seeded storm
//! plans delivered as **real SIGKILLs** to real OS processes over the
//! TCP socket backend (this binary re-executes itself as the children).
//! Output: a text table plus `results/BENCH_chaos.json`.

use mvr_bench::{print_table, write_json};
use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiResult, Source, Tag};
use mvr_obs::{ProtoEvent, TimingSummary, DISPATCHER_RANK};
use mvr_runtime::proc::{maybe_run_child, run_proc};
use mvr_runtime::{
    ChaosConfig, Cluster, ClusterConfig, NodeMpi, RunReport, SchedulerConfig, TurbulenceConfig,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: u32 = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Communication patterns (deterministic, closed-form expected results)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pattern {
    /// Symmetric neighbor exchange: every rank sendrecvs around a ring.
    Ring,
    /// Pipeline: rank 0 produces, middle ranks transform and forward.
    Stream,
    /// Fan-in with `Source::Any`: nondeterministic reception order at the
    /// root — the protocol's event-logging core under maximal stress.
    Fanin,
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::Ring => "ring",
            Pattern::Stream => "stream",
            Pattern::Fanin => "fanin",
        }
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct IterState {
    iter: u32,
    acc: u64,
}

fn ring_app(iters: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let mut st: IterState = match &restored {
            Some(p) => bincode::deserialize(p.as_slice()).expect("valid state"),
            None => IterState { iter: 0, acc: 0 },
        };
        let me = mpi.rank().0;
        let n = mpi.size();
        let next = Rank((me + 1) % n);
        let prev = Rank((me + n - 1) % n);
        while st.iter < iters {
            let token = ((st.iter as u64) << 32) | me as u64;
            let (_, _, body) = mpi.sendrecv(
                next,
                7,
                &token.to_le_bytes(),
                Source::Rank(prev),
                Tag::Value(7),
            )?;
            let v = u64::from_le_bytes(body.as_slice().try_into().expect("8 bytes"));
            st.acc = st.acc.wrapping_mul(31).wrapping_add(v);
            st.iter += 1;
            mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
        }
        Ok(Payload::from_vec(st.acc.to_le_bytes().to_vec()))
    }
}

fn expected_ring(me: u32, n: u32, iters: u32) -> u64 {
    let prev = (me + n - 1) % n;
    let mut acc: u64 = 0;
    for i in 0..iters {
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(((i as u64) << 32) | prev as u64);
    }
    acc
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

fn fanin_app(msgs_per_rank: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let me = mpi.rank();
        let n = mpi.size();
        if me == Rank(0) {
            let (mut got, mut sum): (u32, u64) = match &restored {
                Some(p) => bincode::deserialize(p.as_slice()).expect("valid state"),
                None => (0, 0),
            };
            let total = (n - 1) * msgs_per_rank;
            while got < total {
                let _ = mpi.iprobe(Source::Any, Tag::Any)?;
                let (_, _, body) = mpi.recv(Source::Any, Tag::Any)?;
                sum = sum.wrapping_add(u64::from_le_bytes(body.as_slice().try_into().expect("8")));
                got += 1;
                mpi.checkpoint_site(&bincode::serialize(&(got, sum)).expect("serializable"))?;
            }
            Ok(Payload::from_vec(sum.to_le_bytes().to_vec()))
        } else {
            let mut i: u32 = match &restored {
                Some(p) => bincode::deserialize(p.as_slice()).expect("valid state"),
                None => 0,
            };
            while i < msgs_per_rank {
                let v = (me.0 as u64) * 1000 + i as u64;
                mpi.send(Rank(0), 3, &v.to_le_bytes())?;
                i += 1;
                mpi.checkpoint_site(&bincode::serialize(&i).expect("serializable"))?;
            }
            Ok(Payload::empty())
        }
    }
}

fn expected_fanin_sum(n: u32, msgs: u32) -> u64 {
    let mut sum = 0u64;
    for r in 1..n {
        for i in 0..msgs {
            sum = sum.wrapping_add(r as u64 * 1000 + i as u64);
        }
    }
    sum
}

fn verify(pattern: Pattern, results: &[Payload]) -> Result<(), String> {
    let n = WORLD;
    match pattern {
        Pattern::Ring => {
            for (r, p) in results.iter().enumerate() {
                let got = u64::from_le_bytes(p.as_slice().try_into().map_err(|_| "bad len")?);
                let want = expected_ring(r as u32, n, RING_ITERS);
                if got != want {
                    return Err(format!("rank {r}: got {got:#x}, want {want:#x}"));
                }
            }
        }
        Pattern::Stream => {
            for (r, p) in results.iter().enumerate() {
                let got = u64::from_le_bytes(p.as_slice().try_into().map_err(|_| "bad len")?);
                let want = expected_stream(r as u32, STREAM_MSGS);
                if got != want {
                    return Err(format!("rank {r}: got {got:#x}, want {want:#x}"));
                }
            }
        }
        Pattern::Fanin => {
            let got = u64::from_le_bytes(results[0].as_slice().try_into().map_err(|_| "bad len")?);
            let want = expected_fanin_sum(n, FANIN_MSGS);
            if got != want {
                return Err(format!("root sum: got {got}, want {want}"));
            }
            for (r, p) in results.iter().enumerate().skip(1) {
                if !p.as_slice().is_empty() {
                    return Err(format!("rank {r}: expected empty payload"));
                }
            }
        }
    }
    Ok(())
}

const RING_ITERS: u32 = 300;
const STREAM_MSGS: u32 = 400;
const FANIN_MSGS: u32 = 120;

// ---------------------------------------------------------------------
// Storm presets
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Storm {
    name: &'static str,
    kills: u32,
    max_burst: u32,
    rekill_pct: u8,
    cs_kill_pct: u8,
    /// Chance each kill event also SIGKILLs an event-logger replica.
    /// Non-zero storms run on a sharded, replicated EL deployment
    /// (`EL_SHARDS` x `EL_REPLICAS`) so quorum failover is what masks
    /// the loss.
    el_kill_pct: u8,
}

/// EL topology for storms that kill replicas (quorum of 2 per shard).
const EL_SHARDS: u32 = 2;
const EL_REPLICAS: u32 = 2;

const STORMS: &[Storm] = &[
    // A handful of isolated faults.
    Storm {
        name: "light",
        kills: 3,
        max_burst: 1,
        rekill_pct: 0,
        cs_kill_pct: 0,
        el_kill_pct: 0,
    },
    // Overlapping multi-rank crashes (concurrent recoveries).
    Storm {
        name: "bursty",
        kills: 5,
        max_burst: 2,
        rekill_pct: 20,
        cs_kill_pct: 0,
        el_kill_pct: 0,
    },
    // Aggressive re-kills: reincarnations die again mid-replay.
    Storm {
        name: "rekill",
        kills: 5,
        max_burst: 1,
        rekill_pct: 80,
        cs_kill_pct: 0,
        el_kill_pct: 0,
    },
    // Checkpoint-server kills mid-checkpoint traffic (§4.3).
    Storm {
        name: "cs-storm",
        kills: 4,
        max_burst: 2,
        rekill_pct: 30,
        cs_kill_pct: 50,
        el_kill_pct: 0,
    },
    // Event-logger replica kills on a sharded, replicated deployment:
    // the gate must ride out sub-quorum windows until revival.
    Storm {
        name: "el-storm",
        kills: 3,
        max_burst: 1,
        rekill_pct: 20,
        cs_kill_pct: 0,
        el_kill_pct: 75,
    },
];

fn storm_chaos(storm: &Storm, seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        kills: storm.kills,
        max_burst: storm.max_burst,
        rekill_pct: storm.rekill_pct,
        cs_kill_pct: storm.cs_kill_pct,
        el_kill_pct: storm.el_kill_pct,
        el_total: if storm.el_kill_pct > 0 {
            EL_SHARDS * EL_REPLICAS
        } else {
            0
        },
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    pattern: &'static str,
    storm: &'static str,
    seed: u64,
    world: u32,
    passed: bool,
    error: Option<String>,
    wall_ms: f64,
    restarts: u64,
    service_restarts: u64,
    rank_kills: u64,
    cs_kills: u64,
    el_kills: u64,
    recoveries: u64,
    replays_completed: u64,
    replayed_deliveries: u64,
    duplicates_dropped: u64,
    retransmissions: u64,
    timings: TimingSummary,
}

fn run_scenario(pattern: Pattern, storm: &Storm, seed: u64, dump_ok: bool) -> ScenarioResult {
    // One dump dir per scenario: a failure leaves its merged timeline
    // (JSONL + Chrome trace + triage note) here.
    let dump_dir = PathBuf::from("chaos_dumps").join(format!(
        "soak-{}-{}-{seed:x}",
        pattern.name(),
        storm.name
    ));
    let (el_shards, el_replicas) = if storm.el_kill_pct > 0 {
        (EL_SHARDS, EL_REPLICAS)
    } else {
        (1, 1)
    };
    let cfg = ClusterConfig {
        world: WORLD,
        el_shards,
        el_replicas,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        chaos: Some(storm_chaos(storm, seed)),
        // Seeded per-link jitter rides along in every scenario.
        turbulence: Some(TurbulenceConfig::delays(seed ^ 0x7A17, 50)),
        // Recording on; a failing run leaves its merged timeline here.
        obs_dir: Some(dump_dir.clone()),
        ..Default::default()
    };
    let start = Instant::now();
    let cluster = match pattern {
        Pattern::Ring => Cluster::launch(cfg, ring_app(RING_ITERS)),
        Pattern::Stream => Cluster::launch(cfg, stream_app(STREAM_MSGS)),
        Pattern::Fanin => Cluster::launch(cfg, fanin_app(FANIN_MSGS)),
    };
    // Payload divergence is detected here after the dispatcher has torn
    // down; keep the recorders alive so a mismatch can still dump.
    let hub = cluster.recorder_hub();
    let outcome: Result<RunReport, String> =
        cluster.wait_report(TIMEOUT).map_err(|e| e.to_string());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let scenario = format!("{}/{}/seed={seed:#x}", pattern.name(), storm.name);
    let (passed, error, report) = match outcome {
        Ok(report) => match verify(pattern, &report.results) {
            Ok(()) => {
                // `--dump` leaves the timeline of *successful* runs too,
                // for offline span/critical-path analysis (obs_analyze).
                if dump_ok {
                    match hub.dump(&dump_dir, "soak") {
                        Ok(paths) => println!("  dumped: {}", paths.jsonl.display()),
                        Err(io) => eprintln!("  flight-recorder dump failed: {io}"),
                    }
                }
                (true, None, Some(report))
            }
            Err(e) => {
                let detail = format!("payload mismatch: {e}");
                hub.recorder(DISPATCHER_RANK).record(
                    0,
                    ProtoEvent::Divergence {
                        detail: detail.clone(),
                    },
                );
                let note = match hub.dump(&dump_dir, "divergence") {
                    Ok(paths) => format!(" [{}]", paths.summary()),
                    Err(io) => format!(" [flight-recorder dump failed: {io}]"),
                };
                (false, Some(format!("{detail}{note}")), Some(report))
            }
        },
        // The dispatcher dumped the timeline on its way out (obs_dir).
        Err(e) => (
            false,
            Some(format!("{e} [flight recorder: {}]", dump_dir.display())),
            None,
        ),
    };
    let chaos = report.as_ref().and_then(|r| r.chaos.clone());
    ScenarioResult {
        scenario,
        pattern: pattern.name(),
        storm: storm.name,
        seed,
        world: WORLD,
        passed,
        error,
        wall_ms,
        restarts: report.as_ref().map_or(0, |r| r.restarts),
        service_restarts: report.as_ref().map_or(0, |r| r.service_restarts),
        rank_kills: chaos.as_ref().map_or(0, |c| c.rank_kills),
        cs_kills: chaos.as_ref().map_or(0, |c| c.cs_kills),
        el_kills: chaos.as_ref().map_or(0, |c| c.el_kills),
        recoveries: report.as_ref().map_or(0, |r| r.recoveries),
        replays_completed: report.as_ref().map_or(0, |r| r.replays_completed),
        replayed_deliveries: report.as_ref().map_or(0, |r| r.replayed_deliveries),
        duplicates_dropped: report.as_ref().map_or(0, |r| r.duplicates_dropped),
        retransmissions: report.as_ref().map_or(0, |r| r.retransmissions),
        timings: report
            .as_ref()
            .map(|r| r.timings.summary())
            .unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------
// Multi-process preset: the same storm planning, delivered as real
// SIGKILLs to real OS processes over the TCP socket backend.
// ---------------------------------------------------------------------

const PROC_ITERS: u32 = 120;
const PROC_EL_REPLICAS: u32 = 3;

/// Storm plan for the process preset. Gaps are stretched relative to
/// the in-process storms — real processes take tens of milliseconds to
/// boot, and the interesting kills are the mid-stream ones. Still a
/// pure function of the seed: rerunning replays the identical SIGKILL
/// schedule.
fn proc_storm_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        kills: 2,
        min_gap: Duration::from_millis(30),
        max_gap: Duration::from_millis(120),
        max_burst: 1,
        rekill_pct: 0,
        cs_kill_pct: 25,
        el_kill_pct: 50,
        el_total: PROC_EL_REPLICAS,
    }
}

fn run_proc_scenario(seed: u64) -> ScenarioResult {
    let chaos = proc_storm_chaos(seed);
    // The plan is pure: count what the storm will do before running it.
    let plan = chaos.plan(WORLD);
    let rank_kills: u64 = plan.iter().map(|e| e.victims.len() as u64).sum();
    let cs_kills = plan.iter().filter(|e| e.kill_checkpoint_server).count() as u64;
    let el_kills = plan.iter().filter(|e| e.kill_el_replica.is_some()).count() as u64;

    let mut opts = ClusterConfig::new(WORLD, format!("soak-ring {PROC_ITERS}"));
    opts.el_replicas = PROC_EL_REPLICAS;
    opts.checkpointing = Some(SchedulerConfig::default());
    opts.timeout = TIMEOUT;
    opts.chaos = Some(chaos);

    let start = Instant::now();
    let outcome = run_proc(opts);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let scenario = format!("ring/proc-storm/seed={seed:#x}");
    let (passed, error, restarts, service_restarts) = match outcome {
        Ok(report) => {
            let mut verdict = Ok(());
            for (r, p) in report.results.iter().enumerate() {
                let got = p
                    .as_slice()
                    .try_into()
                    .map(u64::from_le_bytes)
                    .map_err(|_| format!("rank {r}: bad payload length"));
                let want = expected_ring(r as u32, WORLD, PROC_ITERS);
                match got {
                    Ok(g) if g == want => {}
                    Ok(g) => {
                        verdict = Err(format!("rank {r}: got {g:#x}, want {want:#x}"));
                        break;
                    }
                    Err(e) => {
                        verdict = Err(e);
                        break;
                    }
                }
            }
            (
                verdict.is_ok(),
                verdict.err(),
                report.restarts as u64,
                report.service_restarts as u64,
            )
        }
        Err(e) => (false, Some(e.to_string()), 0, 0),
    };
    ScenarioResult {
        scenario,
        pattern: "ring",
        storm: "proc-storm",
        seed,
        world: WORLD,
        passed,
        error,
        wall_ms,
        restarts,
        service_restarts,
        rank_kills,
        cs_kills,
        el_kills,
        recoveries: restarts,
        replays_completed: 0,
        replayed_deliveries: 0,
        duplicates_dropped: 0,
        retransmissions: 0,
        timings: TimingSummary::default(),
    }
}

fn table_row(r: &ScenarioResult) -> Vec<String> {
    vec![
        r.pattern.to_string(),
        r.storm.to_string(),
        format!("{:#x}", r.seed),
        r.rank_kills.to_string(),
        r.cs_kills.to_string(),
        r.el_kills.to_string(),
        r.restarts.to_string(),
        r.replays_completed.to_string(),
        r.replayed_deliveries.to_string(),
        r.duplicates_dropped.to_string(),
        r.retransmissions.to_string(),
        format!("{:.0}", r.wall_ms),
        if r.passed { "ok" } else { "FAIL" }.to_string(),
    ]
}

fn main() {
    // Re-entry point for the process preset's children: every rank, EL
    // replica and checkpoint server of a `--proc-storm` run is this
    // same binary.
    if maybe_run_child(&|spec: &str| {
        let mut it = spec.split_whitespace();
        match it.next() {
            Some("soak-ring") => {
                let iters: u32 = it.next()?.parse().ok()?;
                Some(Arc::new(ring_app(iters)) as Arc<dyn mvr_runtime::MpiApp>)
            }
            _ => None,
        }
    }) {
        return;
    }

    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let dump_ok = std::env::args().any(|a| a == "--dump");
    let proc_storm = std::env::args().any(|a| a == "--proc-storm");
    let patterns = [Pattern::Ring, Pattern::Stream, Pattern::Fanin];
    let seeds: &[u64] = if smoke {
        &[0xC0FFEE]
    } else {
        &[0xC0FFEE, 0xBEEF]
    };

    let mut scenarios: Vec<(Pattern, &Storm, u64)> = Vec::new();
    for storm in STORMS {
        for &p in &patterns {
            if smoke && storm.name == "light" && p != Pattern::Ring {
                continue; // smoke: light storm once is enough
            }
            for &s in seeds {
                scenarios.push((p, storm, s));
            }
        }
    }

    println!(
        "chaos soak: {} scenarios, world={WORLD} (replay any failure with its printed seed)",
        scenarios.len()
    );
    let mut results = Vec::new();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for (p, storm, seed) in scenarios {
        let r = run_scenario(p, storm, seed, dump_ok);
        println!(
            "  [{}] {}  kills={} restarts={} replays={} dup_drop={} {:.0}ms{}",
            if r.passed { "ok" } else { "FAIL" },
            r.scenario,
            r.rank_kills,
            r.restarts,
            r.replays_completed,
            r.duplicates_dropped,
            r.wall_ms,
            r.error
                .as_deref()
                .map(|e| format!("  <-- {e}"))
                .unwrap_or_default(),
        );
        if !r.passed {
            failures += 1;
        }
        rows.push(table_row(&r));
        results.push(r);
    }

    if proc_storm {
        println!(
            "proc-storm: {} seed(s), socket backend — the storm plan lands as real SIGKILLs",
            seeds.len()
        );
        for &seed in seeds {
            let r = run_proc_scenario(seed);
            println!(
                "  [{}] {}  kills={} cs={} el={} restarts={} svc={} {:.0}ms{}",
                if r.passed { "ok" } else { "FAIL" },
                r.scenario,
                r.rank_kills,
                r.cs_kills,
                r.el_kills,
                r.restarts,
                r.service_restarts,
                r.wall_ms,
                r.error
                    .as_deref()
                    .map(|e| format!("  <-- {e}"))
                    .unwrap_or_default(),
            );
            if !r.passed {
                failures += 1;
            }
            rows.push(table_row(&r));
            results.push(r);
        }
    }

    print_table(
        "Chaos soak — seeded crash storms, exactly-once delivery verified",
        &[
            "pattern", "storm", "seed", "kills", "cs", "el", "restarts", "replays", "replayed",
            "dup-drop", "retx", "ms", "verdict",
        ],
        &rows,
    );
    write_json("BENCH_chaos", &results);

    if failures > 0 {
        eprintln!(
            "\n{failures} scenario(s) FAILED — rerun with the printed seed to replay the storm"
        );
        std::process::exit(1);
    }
    println!(
        "\nall {} scenarios verified: every payload matches the fault-free execution",
        results.len()
    );
}
