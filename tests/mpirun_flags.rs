//! `mpirun` parses its command line into ONE deployment description and
//! hands it to either backend, so every flag must act on both — or the
//! launcher must refuse it, exit code 2, naming the backend that cannot
//! honour it. Nothing is parsed and then dropped.
//!
//! The table below classifies every flag `usage()` prints; a flag added
//! to the usage text without a row here fails the test.

use std::path::PathBuf;
use std::process::Command;

/// Run `mpirun args…` on `backend`; returns combined output and exit code.
fn run(backend: &str, args: &[String]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpirun"))
        .args(["--backend", backend])
        .args(args)
        .output()
        .expect("mpirun binary must launch");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (text, out.status.code())
}

/// What a flag must do on one backend.
enum Expect {
    /// The run exits `code` and its output contains `evidence` — text
    /// only the flag's effect produces.
    Acts { code: i32, evidence: &'static str },
    /// The launcher exits 2 with a message naming the backend.
    Refused,
}
use Expect::{Acts, Refused};

fn acts(evidence: &'static str) -> Expect {
    Acts { code: 0, evidence }
}

struct Row {
    /// The flags this row classifies (a row may need a second flag to
    /// make the first one observable).
    flags: &'static [&'static str],
    args: Vec<String>,
    inproc: Expect,
    socket: Expect,
    /// A file the run must leave behind on a backend where it acts.
    leaves: Option<PathBuf>,
}

fn row(flags: &'static [&'static str], args: &[&str], inproc: Expect, socket: Expect) -> Row {
    Row {
        flags,
        args: args.iter().map(|a| a.to_string()).collect(),
        inproc,
        socket,
        leaves: None,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mpirun_flags");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn table() -> Vec<Row> {
    let pgfile = scratch("three.pg");
    std::fs::write(&pgfile, "cn a\ncn b\ncn c\nel l0\nel l1\ncs s\n").expect("write pgfile");
    let pgfile = pgfile.display().to_string();
    let obs_dir = scratch("obs");
    let obs = obs_dir.display().to_string();
    // A kill at 0 ms fires the moment its victim is ready, on either
    // backend, however quickly the application would otherwise finish.
    let one_rank_restart = "run completed (1 rank restarts, 0 service restarts)";
    let one_service_restart = "run completed (0 rank restarts, 1 service restarts)";
    vec![
        row(
            &["-np"],
            &["-np", "3", "ring", "20"],
            acts("rank 2: "),
            acts("rank 2: "),
        ),
        row(
            &["--protocol"],
            &["-np", "2", "--protocol", "p4", "ring", "20"],
            acts("protocol P4"),
            Refused,
        ),
        // Classified by every other row: each runs on both backends.
        row(
            &["--backend"],
            &["-np", "2", "ring", "20"],
            acts("backend inproc"),
            acts("backend socket"),
        ),
        row(
            &["--pgfile"],
            &["--pgfile", &pgfile, "ring", "20"],
            acts("3 ranks, protocol V2, backend inproc, 2 event logger shard(s)"),
            acts("3 ranks, protocol V2, backend socket, 2 event logger shard(s)"),
        ),
        row(
            &["--kill"],
            &["-np", "2", "--kill", "1@0ms", "ring", "200"],
            acts(one_rank_restart),
            acts(one_rank_restart),
        ),
        // Replica 1 exists only because of `--el-replicas 2`; the
        // supervisor drops a kill aimed at a node it does not have.
        row(
            &["--el-kill", "--el-replicas"],
            &[
                "-np",
                "2",
                "--el-replicas",
                "2",
                "--el-kill",
                "1@0ms",
                "ring",
                "200",
            ],
            acts(one_service_restart),
            acts(one_service_restart),
        ),
        row(
            &["--cs-kill"],
            &["-np", "2", "--cs-kill", "0ms", "ring", "200"],
            acts(one_service_restart),
            acts(one_service_restart),
        ),
        row(
            &["--no-checkpoints"],
            &["-np", "2", "--no-checkpoints", "ring", "20"],
            acts("checkpoints off"),
            acts("checkpoints off"),
        ),
        row(
            &["--timeout"],
            &["-np", "2", "--timeout", "1", "ring", "2000000000"],
            Acts {
                code: 1,
                evidence: "timed out",
            },
            Acts {
                code: 1,
                evidence: "timed out",
            },
        ),
        Row {
            leaves: Some(obs_dir.join("merged.jsonl")),
            ..row(
                &["--obs-dir"],
                &["-np", "2", "--obs-dir", &obs, "ring", "20"],
                acts("merged.jsonl"),
                acts("merged.jsonl"),
            )
        },
        row(
            &["--health"],
            &["-np", "2", "--health", "127.0.0.1:0", "ring", "50"],
            acts("health endpoint at http://127.0.0.1:"),
            acts("health endpoint at http://127.0.0.1:"),
        ),
        // The socket detector and per-process clocks: there is nothing
        // in one process for these to act on.
        row(
            &["--fail-after"],
            &["-np", "2", "--fail-after", "400", "ring", "20"],
            Refused,
            acts("run completed"),
        ),
        row(
            &["--drift"],
            &["-np", "2", "--drift", "1@5000", "ring", "20"],
            Refused,
            acts("run completed"),
        ),
        // Both backends stream every incarnation's records the same way.
        row(
            &["--rotate-records"],
            &["-np", "2", "--rotate-records", "50", "ring", "20"],
            acts("run completed"),
            acts("run completed"),
        ),
        row(
            &["--rotate-bytes"],
            &["-np", "2", "--rotate-bytes", "4096", "ring", "20"],
            acts("run completed"),
            acts("run completed"),
        ),
    ]
}

/// Every `-x` / `--long-flag` token of the usage message.
fn usage_flags() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_mpirun"))
        .output()
        .expect("mpirun binary must launch");
    assert_eq!(out.status.code(), Some(2), "no arguments: usage, exit 2");
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let is_flag = |w: &&str| {
        w.starts_with('-') && w[1..].starts_with(|c: char| c == '-' || c.is_ascii_lowercase())
    };
    let words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
    let mut flags: Vec<String> = words.filter(is_flag).map(str::to_string).collect();
    flags.sort();
    flags.dedup();
    flags
}

#[test]
fn every_flag_acts_on_both_backends_or_is_refused_by_name() {
    let table = table();
    let classified: Vec<&str> = table.iter().flat_map(|r| r.flags.iter().copied()).collect();
    let flags = usage_flags();
    assert!(flags.len() >= 16, "usage parse lost flags: {flags:?}");
    for flag in &flags {
        assert!(
            classified.contains(&flag.as_str()),
            "`{flag}` is in usage() but not classified in this test"
        );
    }

    for row in &table {
        for (backend, expect) in [("inproc", &row.inproc), ("socket", &row.socket)] {
            if let Some(file) = &row.leaves {
                let _ = std::fs::remove_file(file);
            }
            let (text, code) = run(backend, &row.args);
            let label = format!("{:?} on {backend}", row.flags);
            match expect {
                Acts {
                    code: want,
                    evidence,
                } => {
                    assert_eq!(code, Some(*want), "{label}:\n{text}");
                    assert!(
                        text.contains(evidence),
                        "{label}: no `{evidence}` in\n{text}"
                    );
                    if let Some(file) = &row.leaves {
                        assert!(file.exists(), "{label}: {} missing", file.display());
                    }
                }
                Refused => {
                    assert_eq!(code, Some(2), "{label} must be refused:\n{text}");
                    let named = format!("the {backend} backend cannot honour");
                    assert!(
                        text.contains(&named),
                        "{label}: refusal must name it:\n{text}"
                    );
                    assert!(
                        !text.contains("launched"),
                        "{label}: refused after launch:\n{text}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_counts_are_refused_before_anything_launches() {
    for (args, field) in [
        (vec!["-np", "0", "ring", "5"], "world"),
        (
            vec!["-np", "2", "--el-replicas", "0", "ring", "5"],
            "el_replicas",
        ),
    ] {
        let args: Vec<String> = args.into_iter().map(str::to_string).collect();
        for backend in ["inproc", "socket"] {
            let (text, code) = run(backend, &args);
            assert_eq!(code, Some(2), "{field} = 0 on {backend}:\n{text}");
            assert!(
                text.contains(&format!("{field} must be at least 1")),
                "{field} on {backend}:\n{text}"
            );
            assert!(!text.contains("launched"), "{backend}:\n{text}");
        }
    }
}
