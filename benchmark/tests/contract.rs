//! The benchmark against its own manifest: `BENCHMARK.json` is what the
//! binary's tables generate, every name is well formed, each mode emits
//! exactly the metrics the manifest lists for it, and a `--quick` pass over
//! all workloads and every layer driver finishes fast with no failed op.

use benchmark::layers::DRIVERS;
use benchmark::workloads::WORKLOADS;
use benchmark::{manifest, DERIVED_PER_LAYER, END_TO_END};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn out_dir(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn per_layer_names() -> Vec<&'static str> {
    DRIVERS
        .iter()
        .map(|d| d.name)
        .chain(DERIVED_PER_LAYER.iter().map(|m| m.0))
        .collect()
}

/// The metric names of a result line, in order (the vendored JSON reader
/// has no floats, so pick the keys of the `metrics` object out by hand).
fn emitted_names(line: &str) -> Vec<String> {
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    // Every chunk but the last ends with `"<name>`.
    let mut chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    chunks.pop();
    chunks
        .into_iter()
        .map(|chunk| chunk.rsplit_once('"').expect("quoted name").1.to_string())
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn the_committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
}

#[test]
fn names_are_well_formed_and_unique() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(per_layer_names())
        .collect();
    for n in &names {
        assert!(!n.is_empty() && n.len() <= 64, "{n}");
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
        assert!(
            n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
            "{n}"
        );
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}

#[test]
fn each_mode_emits_exactly_the_metrics_the_manifest_lists() {
    let out = out_dir("modes");
    let common = [
        "--workload",
        "pingpong_small_v2",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--quick",
        "--out",
    ];
    for (trace, want) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", per_layer_names()),
    ] {
        let mut args = common.to_vec();
        args.extend([out.to_str().unwrap(), "--trace", trace]);
        let (ok, stdout) = run(&args);
        assert!(ok, "trace {trace}: {stdout}");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        assert_eq!(emitted_names(last), want, "trace {trace}");
    }
    assert!(
        out.join("trace_pingpong_small_v2.json").exists(),
        "the traced pass writes its spans"
    );
}

#[test]
fn quick_smoke_covers_every_workload_and_driver_fast() {
    let out = out_dir("smoke");
    let begun = Instant::now();
    for pass in ["run", "trace"] {
        let (ok, stdout) = run(&[
            pass,
            "--quick",
            "--seconds",
            "0.1",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{pass}: {stdout}");
        for w in &WORKLOADS {
            assert!(
                stdout.contains(&format!("\n{} — ", w.name)),
                "{pass} skipped {}",
                w.name
            );
        }
        assert!(!stdout.contains("note:"), "{pass}: {stdout}");
    }
    assert!(
        begun.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        begun.elapsed()
    );
    let layers = std::fs::read_to_string(out.join("layers.json")).expect("layers.json");
    for d in &DRIVERS {
        assert!(
            layers.contains(&format!("\"{}\"", d.name)),
            "driver {} missing",
            d.name
        );
    }
    assert!(out.join("e2e.json").exists());
}

#[test]
fn unknown_workloads_and_arguments_are_refused() {
    assert!(
        !run(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .0
    );
    assert!(!run(&["--bogus"]).0);
}
