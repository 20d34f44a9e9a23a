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
//! Output: a text table, plus `results/BENCH_chaos.json` from a full
//! sweep (a `--smoke` run writes nothing under `results/`).
//!
//! `--hunt <iters> <base>` is the bug hunter instead: it loops a short
//! stream pipeline under a high-rekill crash storm plus link turbulence,
//! a fresh seed per iteration (`base*1_000_003 + i`; with `iters == 1`,
//! `base` is the exact seed to replay, as printed by a failure),
//! verifying bit-exact results every time. Run it from a *debug* build
//! (the engine's exactly-once `debug_assert`s fire at the exact
//! corruption point) and run several instances in parallel — the deep
//! incarnation races only surface under scheduler load:
//!
//!     cargo build --workspace
//!     for j in 1 2 3 4 5; do ./target/debug/chaos_soak --hunt 150 $j & done; wait
//!
//! Flight recorders run throughout: any failure — cluster error or
//! payload mismatch — dumps the merged clock-ordered timeline (JSONL +
//! Chrome trace + triage note) into `chaos_dumps/hunt-<base>/` and
//! prints the paths.
//!
//! Hunt triage: a *timeout* whose dump shows live threads and small
//! restart counts, on a machine oversubscribed well beyond the 5-hunter
//! load, is usually the 120 s budget expiring on a slow-but-progressing
//! debug run — replay the printed seed on a quiet machine before
//! digging. A wrong result, a protocol error, or a replayable timeout is
//! always a real bug.

use mvr_bench::{print_table, quick_mode, storm_deployment, write_json};
use mvr_core::Payload;
use mvr_obs::{ProtoEvent, TimingSummary, DISPATCHER_RANK};
use mvr_runtime::proc::{maybe_run_child, run_proc};
use mvr_runtime::{ChaosConfig, Cluster, ClusterConfig, RunReport, SchedulerConfig, Topology};
use mvr_workloads::apps::{
    check, check_fanin, check_ring, expected_stream, fanin_app, make_app, ring_app, stream_app,
};
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORLD: u32 = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Communication patterns (the shared apps, with their fault-free oracles)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pattern {
    /// Symmetric neighbor exchange: every rank sendrecvs around a ring.
    Ring(u32),
    /// Pipeline: rank 0 produces, middle ranks transform and forward.
    Stream(u32),
    /// Fan-in with `Source::Any`: nondeterministic reception order at the
    /// root — the protocol's event-logging core under maximal stress.
    Fanin(u32),
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::Ring(_) => "ring",
            Pattern::Stream(_) => "stream",
            Pattern::Fanin(_) => "fanin",
        }
    }

    fn launch(self, cfg: ClusterConfig) -> Cluster {
        match self {
            Pattern::Ring(iters) => Cluster::launch(cfg, ring_app(iters)),
            Pattern::Stream(msgs) => Cluster::launch(cfg, stream_app(msgs)),
            Pattern::Fanin(msgs) => Cluster::launch(cfg, fanin_app(msgs)),
        }
    }

    fn check(self, results: &[Payload]) -> Result<(), String> {
        match self {
            Pattern::Ring(iters) => check_ring(results, iters),
            Pattern::Stream(msgs) => check(results, |r| expected_stream(r, msgs)),
            Pattern::Fanin(msgs) => check_fanin(results, msgs),
        }
    }
}

const PATTERNS: [Pattern; 3] = [
    Pattern::Ring(300),
    Pattern::Stream(400),
    Pattern::Fanin(120),
];

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
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

#[derive(Default, Serialize)]
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

/// Launch `pattern` under `cfg` and check its results against the
/// fault-free oracle. Recording is on (`cfg.obs_dir`): a failed run left
/// its merged timeline there on the way out, a wrong result is recorded
/// as a `Divergence` and dumped there, and with `dump_ok` so is the
/// timeline of a verified run.
fn run_verified(
    pattern: Pattern,
    cfg: ClusterConfig,
    timeout: Duration,
    dump_ok: bool,
) -> (Option<RunReport>, Result<(), String>) {
    let dump_dir = cfg.obs_dir.clone().expect("recording on");
    let cluster = pattern.launch(cfg);
    // Payload divergence is detected here after the dispatcher has torn
    // down; keep the recorders alive so a mismatch can still dump.
    let hub = cluster.recorder_hub();
    let report = match cluster.wait_report(timeout) {
        Ok(report) => report,
        Err(e) => {
            let dir = dump_dir.display();
            return (None, Err(format!("{e} [flight recorder: {dir}]")));
        }
    };
    let verdict = match pattern.check(&report.results) {
        Ok(()) => {
            // `--dump` leaves the timeline of *successful* runs too,
            // for offline span/critical-path analysis (obs_analyze).
            if dump_ok {
                match hub.dump(&dump_dir, "soak") {
                    Ok(paths) => println!("  dumped: {}", paths.jsonl.display()),
                    Err(io) => eprintln!("  flight-recorder dump failed: {io}"),
                }
            }
            Ok(())
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
            Err(format!("{detail}{note}"))
        }
    };
    (Some(report), verdict)
}

fn run_scenario(pattern: Pattern, storm: &Storm, seed: u64, dump_ok: bool) -> ScenarioResult {
    // One dump dir per scenario: a failure leaves its merged timeline
    // (JSONL + Chrome trace + triage note) here.
    let dump_dir = PathBuf::from("chaos_dumps").join(format!(
        "soak-{}-{}-{seed:x}",
        pattern.name(),
        storm.name
    ));
    let mut cfg = storm_deployment(WORLD, storm_chaos(storm, seed), dump_dir);
    if storm.el_kill_pct > 0 {
        (cfg.el_shards, cfg.el_replicas) = (EL_SHARDS, EL_REPLICAS);
    }
    let start = Instant::now();
    let (report, verdict) = run_verified(pattern, cfg, TIMEOUT, dump_ok);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let scenario = format!("{}/{}/seed={seed:#x}", pattern.name(), storm.name);
    let (passed, error) = (verdict.is_ok(), verdict.err());
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
    }
}

fn run_proc_scenario(seed: u64) -> ScenarioResult {
    let chaos = proc_storm_chaos(seed);
    // The plan is pure: count what the storm will do before running it.
    let topology = Topology::new(WORLD, 1, PROC_EL_REPLICAS).expect("valid topology");
    let plan = chaos.plan(&topology);
    let rank_kills: u64 = plan.iter().map(|e| e.victims.len() as u64).sum();
    let cs_kills = plan.iter().filter(|e| e.kill_checkpoint_server).count() as u64;
    let el_kills = plan.iter().filter(|e| e.kill_el_replica.is_some()).count() as u64;

    let mut opts = ClusterConfig::new(WORLD, format!("ring {PROC_ITERS}"));
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
            let verdict = check_ring(&report.results, PROC_ITERS);
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
        ..Default::default()
    }
}

/// One progress line per scenario, printed as it completes.
fn print_scenario(r: &ScenarioResult) {
    let error = r.error.as_deref().map(|e| format!("  <-- {e}"));
    println!(
        "  [{}] {}  kills={} cs={} el={} restarts={} svc={} replays={} dup_drop={} {:.0}ms{}",
        if r.passed { "ok" } else { "FAIL" },
        r.scenario,
        r.rank_kills,
        r.cs_kills,
        r.el_kills,
        r.restarts,
        r.service_restarts,
        r.replays_completed,
        r.duplicates_dropped,
        r.wall_ms,
        error.unwrap_or_default(),
    );
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

// ---------------------------------------------------------------------
// Bug hunter
// ---------------------------------------------------------------------

const HUNT_MSGS: u32 = 160;

/// `--hunt <iters> <base>`: loop a short stream pipeline under a
/// high-rekill storm plus link turbulence, seed `base*1_000_003 + i` for
/// iteration `i` (with `iters == 1`, `base` is the exact seed), and stop
/// at the first failure.
fn hunt(iters: u64, base: u64) {
    // Per-instance dir so parallel hunters don't clobber each other's
    // dumps.
    let dump_dir = PathBuf::from(format!("chaos_dumps/hunt-{base}"));
    for i in 0..iters {
        let seed = if iters == 1 {
            base
        } else {
            base.wrapping_mul(1_000_003).wrapping_add(i)
        };
        let chaos = ChaosConfig {
            seed,
            kills: 6,
            min_gap: Duration::from_millis(2),
            max_gap: Duration::from_millis(7),
            max_burst: 2,
            cs_kill_pct: 0,
            rekill_pct: 80,
            ..Default::default()
        };
        let cfg = storm_deployment(WORLD, chaos, dump_dir.clone());
        let timeout = Duration::from_secs(120);
        if let (_, Err(e)) = run_verified(Pattern::Stream(HUNT_MSGS), cfg, timeout, false) {
            eprintln!("seed {seed}: {e}");
            std::process::exit(1);
        }
        if i % 20 == 19 {
            eprintln!("  ...{} clean (last seed {seed})", i + 1);
        }
    }
    eprintln!("all {iters} iterations clean");
}

fn main() {
    // Re-entry point for the process preset's children: every rank, EL
    // replica and checkpoint server of a `--proc-storm` run is this
    // same binary.
    if maybe_run_child(&make_app) {
        return;
    }

    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--hunt") {
        let num = |k: usize| args.get(at + k).and_then(|s| s.parse().ok());
        return hunt(num(1).unwrap_or(200), num(2).unwrap_or(1));
    }
    let smoke = quick_mode();
    let dump_ok = args.iter().any(|a| a == "--dump");
    let proc_storm = args.iter().any(|a| a == "--proc-storm");
    let seeds: &[u64] = if smoke {
        &[0xC0FFEE]
    } else {
        &[0xC0FFEE, 0xBEEF]
    };

    let mut scenarios: Vec<(Pattern, &Storm, u64)> = Vec::new();
    for storm in STORMS {
        for p in PATTERNS {
            if smoke && storm.name == "light" && p != PATTERNS[0] {
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
    for (p, storm, seed) in scenarios {
        results.push(run_scenario(p, storm, seed, dump_ok));
        print_scenario(&results[results.len() - 1]);
    }
    if proc_storm {
        println!(
            "proc-storm: {} seed(s), socket backend — the storm plan lands as real SIGKILLs",
            seeds.len()
        );
        for &seed in seeds {
            results.push(run_proc_scenario(seed));
            print_scenario(&results[results.len() - 1]);
        }
    }

    let rows: Vec<Vec<String>> = results.iter().map(table_row).collect();
    print_table(
        "Chaos soak — seeded crash storms, exactly-once delivery verified",
        &[
            "pattern", "storm", "seed", "kills", "cs", "el", "restarts", "replays", "replayed",
            "dup-drop", "retx", "ms", "verdict",
        ],
        &rows,
    );
    write_json("BENCH_chaos", &results);

    let failures = results.iter().filter(|r| !r.passed).count();
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
