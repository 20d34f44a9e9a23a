//! Regression oracle over two observability runs.
//!
//! Each input is either a merged flight-recorder dump (`*.jsonl`,
//! reduced on the fly via [`mvr_obs::RunProfile::from_dump`]) or an
//! already-reduced profile JSON (written by a previous
//! `--write-baseline` run). The comparison gates three surfaces:
//! protocol-interval timing percentiles/sums, critical-path
//! attribution per edge category, and event-kind counters — see
//! `mvr_obs::compare` for the one-sided vs two-sided semantics and
//! noise floors.
//!
//! Exit status is the contract: 0 when every metric stayed inside
//! `--tolerance-pct`, 1 when at least one regressed (the verdict names
//! each offender), 2 on usage/IO errors. A verdict JSON is always
//! written (default `obs_diff.verdict.json`, override with `--out`) so
//! CI can archive the evidence.
//!
//! Usage:
//!   `obs_diff [--tolerance-pct N] [--out verdict.json] <baseline> <current>`
//!   `obs_diff --write-baseline <profile.json> <run.jsonl>`

use mvr_obs::{compare, read_dump, DiffReport, RunProfile};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: obs_diff [--tolerance-pct N] [--out verdict.json] <baseline> <current>\n\
         \x20      obs_diff --write-baseline <profile.json> <run.jsonl>\n\
         inputs ending in .jsonl are merged dumps (reduced on the fly);\n\
         anything else is parsed as a reduced profile JSON"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("obs_diff: FAIL: {msg}");
    std::process::exit(2);
}

/// Load a profile from either a raw dump (`.jsonl`) or profile JSON.
fn load_profile(path: &Path) -> RunProfile {
    if path.extension().is_some_and(|e| e == "jsonl") {
        let (_, timeline) = read_dump(path).unwrap_or_else(|e| fail(&e));
        return RunProfile::from_dump(&timeline);
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
    RunProfile::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{}: not a profile: {e}", path.display())))
}

fn print_report(report: &DiffReport) {
    println!(
        "obs_diff: {} metric(s) compared at tolerance {}%",
        report.compared, report.tolerance_pct
    );
    for d in &report.regressions {
        println!(
            "  REGRESSED {}: {} -> {} ({:+}%)",
            d.metric, d.baseline, d.current, d.change_pct
        );
    }
}

fn main() {
    let mut tolerance_pct = 25u64;
    let mut out = PathBuf::from("obs_diff.verdict.json");
    let mut write_baseline = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance-pct" => {
                tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => usage(),
            _ if inputs.len() < 2 => inputs.push(PathBuf::from(a)),
            _ => usage(),
        }
    }
    if inputs.len() != 2 {
        usage();
    }

    if write_baseline {
        // Reduce the run and (over)write the baseline profile.
        let profile = load_profile(&inputs[1]);
        std::fs::write(&inputs[0], profile.to_json())
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", inputs[0].display())));
        println!(
            "obs_diff: baseline {} written from {} ({} records)",
            inputs[0].display(),
            inputs[1].display(),
            profile.records
        );
        return;
    }

    let baseline = load_profile(&inputs[0]);
    let current = load_profile(&inputs[1]);
    let report = compare(&baseline, &current, tolerance_pct);

    let verdict =
        serde_json::to_string_pretty(&report).unwrap_or_else(|e| fail(&format!("render: {e}")));
    std::fs::write(&out, verdict)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", out.display())));

    print_report(&report);
    println!("  verdict: {}", out.display());
    if report.is_clean() {
        println!("obs_diff: ok");
    } else {
        let names: Vec<&str> = report
            .regressions
            .iter()
            .map(|d| d.metric.as_str())
            .collect();
        eprintln!("obs_diff: REGRESSION: {}", names.join(", "));
        std::process::exit(1);
    }
}
