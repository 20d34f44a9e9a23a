//! Multi-process deployment tests: real `mpirun` child processes over
//! the TCP socket backend, real SIGKILLs, and the socket fail-stop
//! detector feeding recovery — the deployment story of MPICH-V2 §4.7
//! exercised across genuine OS process boundaries.
//!
//! Every test drives the built `mpirun` binary (CARGO_BIN_EXE), so the
//! full path is covered: progfile → process launch → hello/address-map
//! handshake → framed TCP data plane → supervisor verdicts → respawn.

use mpich_v::core::{NodeId, Rank};
use mpich_v::obs::{audit, parse_record_line, read_dump, DumpHeader};
use mpich_v::runtime::proc::{run_proc, sig, ProcError};
use mpich_v::runtime::{ClusterConfig, ClusterError, SchedulerConfig};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn mpirun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpirun"))
}

/// A fresh per-test observability directory under the target dir, and a
/// deployment that re-executes the built `mpirun` binary as its children
/// (the same child hook the CLI uses), checkpointing and monitored.
fn proc_opts(test: &str, world: u32, app: &str) -> (ClusterConfig, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = ClusterConfig::new(world, app);
    opts.checkpointing = Some(SchedulerConfig::default());
    opts.monitor = true;
    opts.proc.exe = PathBuf::from(env!("CARGO_BIN_EXE_mpirun"));
    opts.obs_dir = Some(dir.clone());
    opts.timeout = Duration::from_secs(60);
    (opts, dir)
}

/// On a failing test's unwind, copies every file of `dir` — the
/// per-process streams its merge is a pure function of — to
/// `chaos_dumps/proc_deploy-<test>/` at the repository root, and prints
/// where they went.
struct KeepDumpsOnFailure {
    dir: PathBuf,
    test: &'static str,
}

impl Drop for KeepDumpsOnFailure {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let keep = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("chaos_dumps")
            .join(format!("proc_deploy-{}", self.test));
        let _ = std::fs::remove_dir_all(&keep);
        let _ = std::fs::create_dir_all(&keep);
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let _ = std::fs::copy(entry.path(), keep.join(entry.file_name()));
        }
        eprintln!(
            "{}: per-process dumps kept in {}",
            self.test,
            keep.display()
        );
    }
}

/// Read a merged dump and put it through the strict audit
/// `obs_analyze --strict` applies: it must be well-formed with no
/// strict finding. Returns the header for the test's own checks.
fn audit_merged(path: &std::path::Path, what: &str) -> DumpHeader {
    let (header, timeline) = read_dump(path).expect("merged dump reads and parses");
    let header = header.expect("merged dump carries a header");
    let audit = audit(Some(&header), &timeline).expect("merged dump is well-formed");
    assert!(
        audit.findings.is_empty(),
        "{what} must leave a strict-clean dump: {:?} (first violation: {:?})",
        audit.findings,
        audit.violation
    );
    header
}

fn run_capture(args: &[&str]) -> (String, Option<i32>) {
    let out = mpirun()
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

/// The per-rank result lines (`rank N: ...`), the backend-independent
/// observable output of a run.
fn result_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with("rank "))
        .map(|l| l.to_string())
        .collect()
}

#[test]
fn socket_backend_matches_in_process_results() {
    let (inproc, code_a) = run_capture(&["-np", "4", "--timeout", "60", "ring", "40"]);
    let (socket, code_b) = run_capture(&[
        "-np",
        "4",
        "--backend",
        "socket",
        "--timeout",
        "60",
        "ring",
        "40",
    ]);
    assert_eq!(code_a, Some(0), "in-process run failed:\n{inproc}");
    assert_eq!(code_b, Some(0), "socket run failed:\n{socket}");
    let a = result_lines(&inproc);
    let b = result_lines(&socket);
    assert_eq!(a.len(), 4, "expected 4 rank results:\n{inproc}");
    assert_eq!(
        a, b,
        "backends must compute identical results:\ninproc:\n{inproc}\nsocket:\n{socket}"
    );
}

#[test]
fn sigkill_mid_stream_is_detected_and_recovered() {
    let start = Instant::now();
    // 2000 laps take about 0.4 s in a release build (1 s in a debug
    // one), so the kill at 30 ms lands mid-stream in either profile.
    let (text, code) = run_capture(&[
        "-np",
        "4",
        "--backend",
        "socket",
        "--timeout",
        "60",
        "--fail-after",
        "250",
        "--kill",
        "1@30ms",
        "ring",
        "2000",
    ]);
    let elapsed = start.elapsed();
    assert_eq!(code, Some(0), "run must recover and complete:\n{text}");
    // The kill really happened and was adjudicated — by the reaper or
    // the socket detector, whichever observed it first.
    assert!(
        text.contains("mpirun: SIGKILL cn1"),
        "planned kill missing:\n{text}"
    );
    assert!(
        text.contains("detected loss of cn1"),
        "fail-stop verdict missing:\n{text}"
    );
    // Detection fed recovery: exactly one reincarnation of the victim.
    assert!(
        text.contains("launched cn1") && text.contains("incarnation=1"),
        "respawn missing:\n{text}"
    );
    assert!(
        !text.contains("incarnation=2"),
        "one SIGKILL must cost exactly one respawn (no verdict storm):\n{text}"
    );
    assert_eq!(
        result_lines(&text).len(),
        4,
        "all ranks must deliver results after recovery:\n{text}"
    );
    // Mid-stream loss was repaired well inside the run budget — the
    // detector did not wait out the full supervision timeout.
    assert!(
        elapsed < Duration::from_secs(30),
        "recovery took {elapsed:?}"
    );
}

#[test]
fn el_replica_sigkill_revives_and_completes() {
    let (text, code) = run_capture(&[
        "-np",
        "4",
        "--backend",
        "socket",
        "--timeout",
        "60",
        "--el-replicas",
        "3",
        "--el-kill",
        "1@40ms",
        "ring",
        "60",
    ]);
    assert_eq!(
        code,
        Some(0),
        "run must survive an EL replica loss:\n{text}"
    );
    assert!(
        text.contains("mpirun: SIGKILL el1"),
        "planned EL kill missing:\n{text}"
    );
    assert!(
        text.contains("launched el1") && text.contains("incarnation=1"),
        "EL replica revival missing:\n{text}"
    );
    assert_eq!(result_lines(&text).len(), 4, "results missing:\n{text}");
}

/// Run `body` once per backend, concurrently: the parity tests hold one
/// behaviour to both launchers with one set of assertions.
fn on_both_backends(body: impl Fn(&str) + Sync) {
    std::thread::scope(|s| {
        for backend in ["inproc", "socket"] {
            let body = &body;
            s.spawn(move || body(backend));
        }
    });
}

#[test]
fn finished_rank_killed_while_a_peer_still_needs_its_log_is_revived() {
    // `fanout`: rank 0 has sent everything and returned its result within
    // the first second; ranks 1 and 2 consume for ≥ 2.5 s. Killing rank 0
    // then destroys the only copy of the messages not yet received, and
    // killing rank 1 afterwards makes it re-request even the early ones:
    // unless the supervisor revives the *finished* rank 0 (which re-runs
    // to rebuild its sender log), the survivors starve and the run times
    // out. The socket supervisor used to return early for finished ranks.
    on_both_backends(|backend| {
        let run = |kills: &[&str]| {
            let mut args = vec!["-np", "3", "--backend", backend, "--timeout", "30"];
            args.extend_from_slice(kills);
            args.extend_from_slice(&["fanout", "2500"]);
            run_capture(&args)
        };
        let (clean, code) = run(&[]);
        assert_eq!(code, Some(0), "{backend}: fault-free run failed:\n{clean}");
        let (text, code) = run(&["--kill", "0@1200ms", "--kill", "1@1600ms"]);
        assert_eq!(
            code,
            Some(0),
            "{backend}: finished rank not revived:\n{text}"
        );
        assert_eq!(
            result_lines(&text),
            result_lines(&clean),
            "{backend}: recovery changed the results:\n{text}"
        );
        // Both kills landed, each cost exactly one reincarnation, and
        // reviving the finished rank did not fail the run on its budget.
        assert!(
            text.contains("run completed (2 rank restarts, 0 service restarts)"),
            "{backend}:\n{text}"
        );
    });
}

#[test]
fn unreplicated_event_logger_killed_stays_dead_and_the_run_stalls() {
    // §4.5: with R = 1 the event logger is assumed reliable. Killing it
    // must stall the run at the pessimism gate on BOTH backends — the
    // socket supervisor used to respawn it with an empty ledger, which
    // would have acked events it never stored. A healthy `ring 2000`
    // finishes well inside the timeout, so only a stall can run it out.
    on_both_backends(|backend| {
        let (text, code) = run_capture(&[
            "-np",
            "3",
            "--backend",
            backend,
            "--timeout",
            "8",
            "--el-kill",
            "0@20ms",
            "ring",
            "2000",
        ]);
        assert_eq!(code, Some(1), "{backend}: run must stall:\n{text}");
        assert!(text.contains("timed out"), "{backend}:\n{text}");
        assert!(
            !text.contains("launched el0 pid") || !text.contains("incarnation=1"),
            "{backend}: the R = 1 event logger must not come back:\n{text}"
        );
    });
}

#[test]
fn skewed_epochs_are_corrected_in_merged_dump() {
    let (mut opts, dir) = proc_opts("skewed_epochs", 2, "ring 30");
    // Rank 1's recorder epoch is shifted 25ms late, so its raw
    // timestamps read 25ms early — every cross-rank deliver appears to
    // precede its send until the merge solves for the offset.
    opts.proc.epoch_skew = vec![(Rank(1), 25_000_000)];
    let report = run_proc(opts).expect("skewed run completes");
    let merge = report.merge.expect("merge summary present");
    let skew = merge.skew.expect("a merge carries its skew estimate");

    // The injected skew was visible, estimated, and fully corrected.
    assert!(
        skew.inversions_before >= 1,
        "expected causal inversions in the raw merge: {}",
        skew.summary()
    );
    assert_eq!(
        skew.inversions_after,
        0,
        "correction must remove every inversion: {}",
        skew.summary()
    );
    assert!(skew.is_correction(), "{}", skew.summary());

    // The corrected timeline passes the strict audit without
    // fabricated violations, and the applied track travelled into the
    // dump header.
    let header = audit_merged(&dir.join("merged.jsonl"), "skew correction");
    let rank1 = header
        .track
        .iter()
        .find(|t| t.rank == 1)
        .expect("header must record the applied rank-1 track");
    assert!(
        rank1.anchors[0] >= 1_000_000,
        "rank 1 offset should recover most of the 25ms skew, got {:?}",
        rank1.anchors
    );
}

#[test]
fn drifting_clock_is_corrected_by_piecewise_track_in_merged_dump() {
    let (mut opts, dir) = proc_opts("drifting_clock", 2, "ring 150");
    let _keep = KeepDumpsOnFailure {
        dir: dir.clone(),
        test: "drifting_clock",
    };
    // Rank 1's oscillator runs 3% fast (30M ppb): unlike a constant
    // epoch shift, the error GROWS over the run, so a single offset
    // per incarnation cannot reconcile the bidirectional ring traffic
    // — the piecewise-linear track must kick in.
    opts.proc.epoch_drift = vec![(Rank(1), 30_000_000)];
    let report = run_proc(opts).expect("drifting run completes");
    let merge = report.merge.expect("merge summary present");
    let skew = merge.skew.expect("a merge carries its skew estimate");

    // The drift was visible raw and fully corrected by the track.
    assert!(
        skew.inversions_before >= 1,
        "expected causal inversions in the raw merge: {}",
        skew.summary()
    );
    assert_eq!(
        skew.inversions_after,
        0,
        "piecewise correction must remove every inversion: {}",
        skew.summary()
    );
    assert!(
        !skew.infeasible,
        "clock model must be feasible: {}",
        skew.summary()
    );
    assert!(skew.is_correction(), "{}", skew.summary());

    // The corrected timeline passes the strict audit without
    // fabricated violations; the drift demanded a multi-segment track,
    // and it travelled into the dump header.
    let header = audit_merged(&dir.join("merged.jsonl"), "drift correction");
    // The raise-only solver lifts the relatively SLOW clock — every
    // other rank, from fast-running rank 1's point of view — so the
    // rising multi-anchor track lands on a peer of rank 1.
    assert!(
        !header.track.is_empty(),
        "header must record a piecewise offset track"
    );
    assert!(
        header
            .track
            .iter()
            .any(|t| t.anchors.len() >= 2 && t.anchors.last() > t.anchors.first()),
        "drift needs a rising multi-anchor track, got {:?}",
        header.track
    );
}

#[test]
fn rotated_jsonl_segments_reassemble_in_merged_dump() {
    let (mut opts, dir) = proc_opts("rotated_segments", 2, "ring 40");
    // Tiny segments: every child stream rotates every 50 records, so
    // the merge must reassemble multiple segments per incarnation.
    opts.proc.rotate_records = 50;
    let report = run_proc(opts).expect("rotated run completes");
    let merge = report.merge.expect("merge summary present");
    assert!(merge.header.records > 0, "merged dump must carry records");

    // At least one rank stream actually rotated.
    let seg_files: Vec<_> = std::fs::read_dir(&dir)
        .expect("obs dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".seg") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(
        !seg_files.is_empty(),
        "expected rotated .segN.jsonl segments in {}",
        dir.display()
    );

    // The merged dump still passes the strict audit: rotation lost
    // nothing.
    audit_merged(&dir.join("merged.jsonl"), "a rotated run");
}

#[test]
fn injected_gate_violation_is_caught_live_by_parent() {
    let (mut opts, dir) = proc_opts("live_violation", 2, "ring 200");
    opts.proc.inject_violation = Some(Rank(1));
    match run_proc(opts) {
        Err(ProcError::Supervision(ClusterError::InvariantViolated { violation: v })) => {
            assert_eq!(v.invariant, "pessimism-gate", "wrong invariant: {v}");
            assert_eq!(
                v.rank, 1,
                "violation must be attributed to the injecting rank: {v}"
            );
        }
        Ok(_) => panic!("run must fail live on the shipped violation"),
        Err(e) => panic!("expected a live invariant verdict, got: {e}"),
    }
    // First-violation triage: the parent merged every stream it had
    // into a crash dump before aborting the run.
    let crash = dir.join("crash.jsonl");
    assert!(crash.exists(), "crash dump missing at {}", crash.display());
    assert!(
        std::fs::metadata(&crash)
            .expect("crash dump metadata")
            .len()
            > 0,
        "crash dump must not be empty"
    );
}

#[test]
fn default_flush_cadence_survives_sigkill_without_partial_lines() {
    let (mut opts, dir) = proc_opts("sigkill_durability", 4, "ring 60");
    // One write(2) per record: a real SIGKILL mid-stream must leave the
    // victim's incarnation-0 stream non-empty and cleanly parseable to
    // the last byte.
    opts.kills = vec![(NodeId::Computing(Rank(1)), Duration::from_millis(30))];
    opts.proc.fail_after = Some(Duration::from_millis(250));
    let report = run_proc(opts).expect("killed run recovers");
    assert!(report.restarts >= 1, "the SIGKILL must have landed");

    let victim = dir.join("cn1-i0.jsonl");
    let text = std::fs::read_to_string(&victim).expect("victim stream exists");
    assert!(
        !text.is_empty(),
        "victim stream empty — per-record flush not durable"
    );
    for (i, line) in text.lines().enumerate() {
        parse_record_line(line).unwrap_or_else(|e| {
            panic!(
                "partial/corrupt line {} in {}: {e}\n{line}",
                i + 1,
                victim.display()
            )
        });
    }
}

/// Read lines from `child`'s stdout on a helper thread, forwarding each
/// over a channel so the test can wait with deadlines.
fn stream_stdout(child: &mut Child) -> mpsc::Receiver<String> {
    let stdout = child.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

#[test]
fn sigint_tears_down_without_orphans() {
    // An app far too long to finish on its own: the only way this run
    // ends in bounded time is the interrupt path.
    let mut child = mpirun()
        .args([
            "-np",
            "4",
            "--backend",
            "socket",
            "--timeout",
            "300",
            "ring",
            "100000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("mpirun spawns");
    let lines = stream_stdout(&mut child);

    // Collect child pids as the supervisor announces them; all 6 (4
    // ranks + 1 EL + 1 CS) must be up before we interrupt.
    let mut pids: Vec<u32> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pids.len() < 6 && Instant::now() < deadline {
        match lines.recv_timeout(Duration::from_millis(200)) {
            Ok(line) => {
                if let Some(rest) = line.split("pid=").nth(1) {
                    let pid: u32 = rest
                        .split_whitespace()
                        .next()
                        .and_then(|p| p.parse().ok())
                        .expect("pid parses");
                    pids.push(pid);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    assert_eq!(pids.len(), 6, "expected all children announced");

    assert!(sig::send_signal(child.id(), sig::SIGINT), "SIGINT delivery");

    // The supervisor must wind everything down promptly: Shutdown
    // broadcast, escalation to SIGTERM/SIGKILL only as needed, reaps.
    let wait_deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(st) => break st,
            None if Instant::now() < wait_deadline => std::thread::sleep(Duration::from_millis(20)),
            None => {
                let _ = child.kill();
                panic!("mpirun did not exit after SIGINT");
            }
        }
    };
    assert_eq!(status.code(), Some(1), "interrupted run reports failure");

    // No orphans: every announced child pid must be gone. Signal 0 is
    // the POSIX liveness probe — false means no such process.
    // (A tiny grace period covers pid-table churn right at exit.)
    std::thread::sleep(Duration::from_millis(100));
    for pid in pids {
        assert!(
            !sig::send_signal(pid, 0),
            "child pid {pid} survived teardown"
        );
    }
}
