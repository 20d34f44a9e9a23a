//! The benchmark's one binary. Invoked by the driver as
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! by hand as `benchmark run | trace | selfcheck` (see `README.md`). The
//! same binary re-enters itself as a per-repetition worker and, on the
//! socket backend, as the rank / event-logger / checkpoint-server children.

use benchmark::apps::{make_app, AppSpec};
use benchmark::harness::{
    result_line, run_end_to_end, run_traced, worker_main, Measured, Settings, WORKER_ENV,
};
use benchmark::layers::{self, DriverResult, DRIVERS, RUNS};
use benchmark::workloads::{find, Workload, WORKLOADS};
use benchmark::{sys, END_TO_END};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--quick]
       benchmark run|trace|selfcheck [--seed <n>] [--seconds <s>] [--out <dir>] [--quick]
       benchmark manifest";

/// Op-count scale of `--quick` smoke runs.
const QUICK_SCALE: f64 = 0.01;
/// Time of one timed driver run when nothing caps the traced pass.
const FULL_SLOT: Duration = Duration::from_millis(100);

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    trace: bool,
    quick: bool,
    settings: Settings,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        trace: false,
        quick: false,
        settings: Settings {
            seed: 1,
            seconds: f64::from(benchmark::RUN_SECONDS),
            scale: 1.0,
            out: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.settings.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.settings.seconds.is_nan() || cli.settings.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => cli.trace = matches!(value()?.as_str(), "1" | "true"),
            "--out" => cli.settings.out = PathBuf::from(value()?),
            "--quick" => {
                cli.quick = true;
                cli.settings.scale = QUICK_SCALE;
            }
            "run" | "trace" | "selfcheck" | "manifest" if cli.command.is_none() => {
                cli.command = Some(a.clone())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Pin to one CPU, switch to first-in-first-out scheduling and say where
/// and how the numbers were taken. Measuring unpinned is refused
/// (cross-CPU wake-ups make the latencies bimodal); measuring under the
/// default policy is possible but unsteady, so it only warns.
fn pin() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = sys::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let policy = match sys::set_fifo(sys::ORCHESTRATOR_PRIORITY) {
        Ok(()) => "SCHED_FIFO".to_string(),
        Err(e) => format!(
            "the default policy (SCHED_FIFO refused: {e}) — EXPECT UNSTEADY TIMINGS, run as root"
        ),
    };
    eprintln!(
        "benchmark: pinned to CPU {cpu} (nproc {nproc}) under {policy}, loadavg {}; socket workloads cross the host loopback, not a link",
        sys::loadavg()
    );
    Ok(())
}

fn drivers_within(budget: Duration) -> Vec<DriverResult> {
    // Probing and set-up take about as long again as the timed runs.
    let slot = (budget / 2 / (DRIVERS.len() * RUNS) as u32).min(FULL_SLOT);
    layers::measure_all(slot)
}

/// Print each workload's metrics, leaving out the first `skip` (the traced
/// pass repeats the drivers' values in every workload's list).
fn print_table(title: &str, all: &[Measured], skip: usize) {
    println!("\n== {title} ==");
    for m in all {
        println!(
            "\n{} — {} rep(s), {} op(s) attempted, {} failed",
            m.workload,
            m.reps.len(),
            m.attempted(),
            m.failed()
        );
        for r in m.reps.iter().filter(|r| !r.note.is_empty()) {
            println!("  note: {}", r.note);
        }
        if let Some(r) = m.reps.first() {
            println!(
                "  op percentiles over {} timed ops; tail = p{}",
                r.samples,
                r.tail_pct as f64 / 10.0
            );
        }
        for x in m.metrics.iter().skip(skip) {
            println!("  {:<36} {:>16.4} {}", x.name, x.value, x.unit);
        }
    }
}

#[derive(Serialize)]
struct FileOut {
    seed: u64,
    loadavg: String,
    drivers: Vec<DriverResult>,
    workloads: Vec<Measured>,
}

/// Write `<out>/<name>.json`: the printed metrics plus the raw integer
/// samples behind them (every repetition's nanosecond values and
/// counters, every driver run's picoseconds per operation).
fn write_results(s: &Settings, name: &str, all: &[Measured], drivers: &[DriverResult]) {
    let file = FileOut {
        seed: s.seed,
        loadavg: sys::loadavg(),
        drivers: drivers.to_vec(),
        workloads: all.to_vec(),
    };
    let path = s.out.join(format!("{name}.json"));
    let written = std::fs::create_dir_all(&s.out).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&file).expect("results serialize"),
        )
    });
    match written {
        Ok(()) => println!("\n[results written to {}]", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
}

fn all_correct(all: &[Measured]) -> bool {
    all.iter().all(|m| m.failed() == 0 && m.attempted() > 0)
}

fn end_to_end_set(s: &Settings) -> Vec<Measured> {
    WORKLOADS.iter().map(|wl| run_end_to_end(wl, s)).collect()
}

/// `selfcheck`: the end-to-end set twice on the same code; every metric
/// of every workload must agree within its own bound.
fn selfcheck(s: &Settings) -> bool {
    let (first, second) = (end_to_end_set(s), end_to_end_set(s));
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("\n== selfcheck: two back-to-back sets, seed {} ==", s.seed);
    println!(
        "{:<24} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.get(m.name).unwrap_or(0.0), b.get(m.name).unwrap_or(0.0));
            let worse = match m.better {
                benchmark::Better::Lower => (y - x) / x,
                benchmark::Better::Higher => (x - y) / x,
            };
            // NaN: the first set has no value to compare with (it failed).
            let breach = worse.is_nan() || worse > m.bound;
            ok &= !breach;
            println!(
                "{:<24} {:<12} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
                a.workload,
                m.name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    ok
}

fn driver_mode(wl: &Workload, trace: bool, s: &Settings) -> bool {
    let m = if trace {
        let begun = Instant::now();
        // The two repetitions of the traced pass take a second or two;
        // the drivers get the rest.
        let drivers = drivers_within(Duration::from_secs_f64(s.seconds * 0.8));
        let m = run_traced(wl, s, &drivers);
        eprintln!(
            "benchmark: traced pass took {:.1}s",
            begun.elapsed().as_secs_f64()
        );
        m
    } else {
        run_end_to_end(wl, s)
    };
    for r in m.reps.iter().filter(|r| !r.note.is_empty()) {
        eprintln!("benchmark: {}: {}", wl.name, r.note);
    }
    println!("{}", result_line(&m));
    m.attempted() > 0
}

fn main() -> ExitCode {
    // Rank / event-logger / checkpoint-server children of a socket run.
    if mvr_runtime::proc::maybe_run_child(&|spec| AppSpec::decode(spec).map(|s| make_app(s, false)))
    {
        return ExitCode::SUCCESS;
    }
    if let Ok(spec) = std::env::var(WORKER_ENV) {
        worker_main(&spec);
        return ExitCode::SUCCESS;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.command.as_deref() == Some("manifest") {
        print!("{}", benchmark::manifest());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = pin() {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    let s = &cli.settings;
    let ok = match (cli.command.as_deref(), cli.workload.as_deref()) {
        (None, Some(name)) => match find(name) {
            Some(wl) => driver_mode(wl, cli.trace, s),
            None => {
                eprintln!("benchmark: unknown workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        (Some("run"), None) => {
            let all = end_to_end_set(s);
            print_table(
                "end to end (recorder off, low decile over segments)",
                &all,
                0,
            );
            write_results(s, "e2e", &all, &[]);
            all_correct(&all)
        }
        (Some("trace"), None) => {
            let slot = if cli.quick {
                Duration::from_millis(1)
            } else {
                FULL_SLOT
            };
            let drivers = layers::measure_all(slot);
            let all: Vec<Measured> = WORKLOADS
                .iter()
                .map(|wl| run_traced(wl, s, &drivers))
                .collect();
            println!("\n== per layer: drivers (median of {RUNS} runs) ==");
            for d in &drivers {
                println!("  {:<36} {:>16.4} {}", d.name, d.value, d.unit);
            }
            print_table(
                "per layer: counts and spans of one untraced + one traced repetition",
                &all,
                drivers.len(),
            );
            write_results(s, "layers", &all, &drivers);
            all_correct(&all)
        }
        (Some("selfcheck"), None) => selfcheck(s),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: FAILED (an output check failed or a bound was breached)");
        ExitCode::FAILURE
    }
}
