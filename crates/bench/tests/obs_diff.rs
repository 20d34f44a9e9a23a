//! End-to-end tests for the `obs_diff` binary: synthesize a dump, run
//! the real executable, and check the exit-status contract (0 clean,
//! 1 regression naming the metric, verdict JSON always written).

use mvr_obs::{Dump, DumpHeader, FlightRecord, ProtoEvent, SendDisposition};
use std::path::{Path, PathBuf};
use std::process::Command;

fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
    FlightRecord {
        rank,
        clock,
        ts_ns,
        event,
    }
}

/// A small but causally connected timeline: sends, deliveries, gate
/// waits and EL acks, with `gate_scale` multiplying the gate-wait
/// durations (1 = baseline, larger = injected slowdown).
fn synthetic_timeline(gate_scale: u64) -> Vec<FlightRecord> {
    let mut t = Vec::new();
    for i in 0..20u64 {
        let base = 1_000_000 * (i + 1);
        t.push(rec(
            0,
            i + 1,
            base,
            ProtoEvent::Send {
                to: 1,
                clock: i + 1,
                bytes: 64,
                disposition: SendDisposition::Wire,
            },
        ));
        t.push(rec(
            1,
            i + 1,
            base + 120_000,
            ProtoEvent::Deliver {
                from: 0,
                sender_clock: i + 1,
                receiver_clock: i + 1,
                replay: false,
            },
        ));
        t.push(rec(
            1,
            i + 1,
            base + 200_000,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: 50_000 * gate_scale,
            },
        ));
        t.push(rec(
            1,
            i + 1,
            base + 400_000,
            ProtoEvent::ElAck {
                up_to: i + 1,
                batches_retired: 1,
                rtt_ns: 150_000,
            },
        ));
    }
    t.sort_by_key(|r| r.ts_ns);
    t
}

fn write_dump(dir: &Path, name: &str, gate_scale: u64) -> PathBuf {
    let path = dir.join(name);
    let timeline = synthetic_timeline(gate_scale);
    let header = DumpHeader {
        records: timeline.len() as u64,
        ..DumpHeader::default()
    };
    Dump::write(&path, header, &timeline).expect("write dump");
    path
}

fn run_obs_diff(dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs_diff"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn obs_diff");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obs_diff_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn self_diff_of_a_dump_is_clean_and_writes_a_verdict() {
    let dir = temp_dir("self");
    let dump = write_dump(&dir, "run.jsonl", 1);
    let dump = dump.to_str().unwrap();
    let (code, stdout, stderr) = run_obs_diff(&dir, &["--tolerance-pct", "0", dump, dump]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("obs_diff: ok"), "{stdout}");
    let verdict = std::fs::read_to_string(dir.join("obs_diff.verdict.json")).expect("verdict");
    assert!(verdict.contains("\"regressions\": []"), "{verdict}");
}

#[test]
fn injected_slowdown_exits_nonzero_naming_the_regressed_metric() {
    let dir = temp_dir("slow");
    let base = write_dump(&dir, "base.jsonl", 1);
    let slow = write_dump(&dir, "slow.jsonl", 6);
    let (code, stdout, stderr) = run_obs_diff(
        &dir,
        &[
            "--tolerance-pct",
            "100",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
        ],
    );
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stderr.contains("timing/gate_wait"),
        "regression must name the metric, stderr:\n{stderr}"
    );
    let verdict = std::fs::read_to_string(dir.join("obs_diff.verdict.json")).expect("verdict");
    assert!(verdict.contains("timing/gate_wait"), "{verdict}");
    // The same pair inside tolerance in the speedup direction stays
    // clean: timing gates are one-sided.
    let (code, stdout, stderr) = run_obs_diff(
        &dir,
        &[
            "--tolerance-pct",
            "100",
            slow.to_str().unwrap(),
            base.to_str().unwrap(),
        ],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
}

#[test]
fn write_baseline_round_trips_through_profile_json() {
    let dir = temp_dir("baseline");
    let dump = write_dump(&dir, "run.jsonl", 1);
    let profile = dir.join("baseline.json");
    let (code, stdout, stderr) = run_obs_diff(
        &dir,
        &[
            "--write-baseline",
            profile.to_str().unwrap(),
            dump.to_str().unwrap(),
        ],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    // Diffing the dump against its own reduced profile is clean even
    // at zero tolerance.
    let (code, stdout, stderr) = run_obs_diff(
        &dir,
        &[
            "--tolerance-pct",
            "0",
            profile.to_str().unwrap(),
            dump.to_str().unwrap(),
        ],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let dir = temp_dir("usage");
    let (code, _, _) = run_obs_diff(&dir, &["only-one-input"]);
    assert_eq!(code, 2);
    let (code, _, stderr) = run_obs_diff(&dir, &["missing-a.json", "missing-b.json"]);
    assert_eq!(code, 2, "stderr:\n{stderr}");
}
