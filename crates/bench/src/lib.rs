//! # mvr-bench — the paper-figure harness
//!
//! One `figures <name>|all [--quick]` binary draws every table and
//! figure of the MPICH-V2 paper (see DESIGN.md §5 for the experiment
//! index); beside it sit the live-runtime harnesses (`chaos_soak`,
//! `proc_smoke`) and the observability tools (`obs_smoke`,
//! `obs_analyze`, `obs_diff`). Every harness prints a paper-style text
//! table to stdout and writes machine-readable JSON next to it under
//! `results/` — except a `--quick`/`--smoke` run, whose shrunken sweep
//! must not overwrite the committed full results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mvr_runtime::{ChaosConfig, ClusterConfig, SchedulerConfig, TurbulenceConfig};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Write a JSON result file under `results/`; a no-op in
/// [`quick_mode`].
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    if quick_mode() {
        return;
    }
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let s = serde_json::to_string_pretty(value).expect("serializable results");
            let _ = f.write_all(s.as_bytes());
            println!("\n[results written to {}]", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The deployment every seeded crash-storm harness runs: `world` ranks
/// checkpointing every millisecond under `chaos`, with seeded per-link
/// jitter riding along, recording into `dump_dir` (where a failed run
/// leaves its merged timeline).
pub fn storm_deployment(world: u32, chaos: ChaosConfig, dump_dir: PathBuf) -> ClusterConfig {
    ClusterConfig {
        world,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        turbulence: Some(TurbulenceConfig::delays(chaos.seed ^ 0x7A17, 50)),
        chaos: Some(chaos),
        obs_dir: Some(dump_dir),
        ..Default::default()
    }
}

/// Did the user pass `--quick` or `--smoke` (smaller sweeps for CI)?
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--smoke")
}

/// Human-readable byte size.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}kB", b >> 10)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(64), "64B");
        assert_eq!(fmt_bytes(2048), "2kB");
        assert_eq!(fmt_bytes(4 << 20), "4MB");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }
}
