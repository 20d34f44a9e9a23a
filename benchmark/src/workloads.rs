//! The seven workloads and the code that runs one repetition of one of
//! them inside a fresh worker process, verifies its outputs and reduces it
//! to a [`RepResult`].

use crate::apps::{decode_out, make_app, AppKind, AppSpec, PayloadPool, RankOut, CG_TOL};
use crate::stats::{p50_or_zero, percentile, tail_percentile};
use crate::trace::{span_p50_ns, take_spans};
use crate::{sys, trace::SpanRec};
use mvr_core::{Metrics, NodeId, Payload, Rank};
use mvr_obs::{ProtocolTimings, RecorderConfig, Span, SpanSet};
use mvr_runtime::proc::{run_proc, ProcError, ProcOptions};
use mvr_runtime::{
    fail_stop_group, Cluster, ClusterConfig, ClusterError, CountTrigger, RuntimeProtocol,
    TurbulenceConfig,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;

/// A full-scale run that has not finished after this long (a healthy one
/// takes a second or two) has every op counted as failed.
const REP_TIMEOUT: Duration = Duration::from_secs(20);

/// [`REP_TIMEOUT`] at `scale`: smoke runs are a hundred times shorter and
/// must not wait twenty seconds on a stall.
pub fn rep_timeout(scale: f64) -> Duration {
    REP_TIMEOUT.mul_f64(scale.clamp(0.15, 1.0))
}

/// Where the ranks run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Threads of the worker over the in-process fabric.
    InProcess(RuntimeProtocol),
    /// Ranks, event logger and checkpoint server as OS processes over
    /// loopback TCP (`run_proc`); always V2.
    Socket,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line; the README has the paragraph).
    pub why: &'static str,
    /// The program.
    pub kind: AppKind,
    /// Ranks (= closed-loop clients).
    pub world: u32,
    /// Backend and protocol.
    pub backend: Backend,
    /// Timed ops per repetition at full scale (CG: unknowns).
    pub ops: u64,
    /// Payload bytes per message.
    pub size: usize,
    /// Messages per op (stream).
    pub window: u64,
    /// Crash rank 1 half-way (by a send-count trigger) and recover.
    pub crash: bool,
    /// Timed ops per segment, the unit the end-to-end timings are taken
    /// over: sized to 5–10 ms, shorter than the host's disturbances.
    pub seg: usize,
}

use AppKind::{Cg, PingPong, Stream};
use Backend::{InProcess, Socket};
use RuntimeProtocol::{P4, V2};

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "pingpong_small_v2",
        why: "64 B ping-pong: every send follows a receive, so the pessimism gate and an event-logger round trip are on every message (Fig. 6 path)",
        kind: PingPong, world: 2, backend: InProcess(V2), ops: 16_000, size: 64, window: 1, crash: false, seg: 256,
    },
    Workload {
        name: "pingpong_small_p4",
        why: "same app without logging: bypasses mvr-core, the event logger and the sender log, so a logging optimisation must not move it",
        kind: PingPong, world: 2, backend: InProcess(P4), ops: 20_000, size: 64, window: 1, crash: false, seg: 256,
    },
    Workload {
        name: "stream_small_v2",
        why: "64 B one-way stream, window 64: message rate, 64 events logged per gated send, so batching does the work and the gate rarely blocks",
        kind: Stream, world: 2, backend: InProcess(V2), ops: 1_100, size: 64, window: 64, crash: false, seg: 16,
    },
    Workload {
        name: "stream_large_v2",
        why: "64 KiB one-way stream, window 4: payload copies, sender-log append and the allocator; event logger and gate idle (Fig. 5 path)",
        kind: Stream, world: 2, backend: InProcess(V2), ops: 1_024, size: 65_536, window: 4, crash: false, seg: 32,
    },
    Workload {
        name: "cg_app_v2",
        why: "4-rank conjugate gradient to a stated tolerance: collectives, more than two lanes per mailbox, one event logger serving four ranks",
        kind: Cg, world: 4, backend: InProcess(V2), ops: 2_560, size: 0, window: 1, crash: false, seg: 32,
    },
    Workload {
        name: "pingpong_small_socket",
        why: "the ping-pong with ranks, logger and checkpoint server as OS processes over loopback TCP: gateway, wire codec, framing, four extra thread hand-offs",
        kind: PingPong, world: 2, backend: Socket, ops: 2_400, size: 64, window: 1, crash: false, seg: 32,
    },
    Workload {
        name: "recovery_replay_v2",
        why: "the ping-pong with rank 1 crashed at a fixed send count and re-executed from the start, replaying from rank 0's sender log (Fig. 10 path)",
        kind: PingPong, world: 2, backend: InProcess(V2), ops: 16_000, size: 64, window: 1, crash: true, seg: 256,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The app parameters at `scale` (1.0 = the full counts above).
    pub fn spec(&self, seed: u64, scale: f64) -> AppSpec {
        let scaled = |n: u64, floor: u64| ((n as f64 * scale) as u64).max(floor);
        match self.kind {
            // CG's `ops` is its unknowns: the solver needs n/2 iterations,
            // so n is what sets the run length; `ops` caps iterations.
            Cg => {
                let n = scaled(self.ops, 64);
                AppSpec {
                    kind: Cg,
                    ops: n,
                    warm: 0,
                    size: n as usize,
                    window: 1,
                    seed,
                }
            }
            kind => {
                // At least 32 ops, so that even a smoke run has the 20 samples a
                // median needs.
                let ops = scaled(self.ops, 32);
                AppSpec {
                    kind,
                    ops,
                    warm: (ops / 10).max(1),
                    size: self.size,
                    window: self.window,
                    seed,
                }
            }
        }
    }

    /// Whether the run goes through `mvr-core` (and so reports engine
    /// counters).
    pub fn logs(&self) -> bool {
        self.backend != InProcess(P4)
    }
}

/// Counters the run's own report carries, summed over ranks.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Counts {
    /// Application messages emitted.
    pub msgs_sent: u64,
    /// Reception events scheduled for logging.
    pub events_logged: u64,
    /// Event batches shipped.
    pub el_batches_sent: u64,
    /// Sends that queued behind the pessimism gate.
    pub gate_deferred_sends: u64,
    /// Median gate wait (in-process: histogram p50; socket: mean).
    pub gate_wait_ns: u64,
    /// Median ship→ack round trip (in-process: histogram p50; socket:
    /// mean).
    pub el_ack_rtt_ns: u64,
    /// Messages re-sent from sender logs.
    pub retransmissions: u64,
    /// Deliveries re-executed in replay mode.
    pub replayed_deliveries: u64,
    /// Duplicates discarded by receivers.
    pub duplicates_dropped: u64,
    /// Recovery-begin → replay-complete time.
    pub replay_ns: u64,
    /// Rank reincarnations.
    pub restarts: u64,
}

/// Medians over one traced repetition.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SpanMetrics {
    /// `mpi.send` / `mpi.isend` call duration.
    pub send_call_ns: u64,
    /// `mpi.recv` call duration.
    pub recv_call_ns: u64,
    /// Send record → first delivery record.
    pub wire_ns: u64,
    /// Gate defer → gate open.
    pub gate_wait_ns: u64,
    /// Event ship → event-logger ack.
    pub el_rtt_ns: u64,
    /// First replica ack → quorum ack (0 when unreplicated).
    pub quorum_wait_ns: u64,
}

/// One repetition, reduced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepResult {
    /// Why ops failed, when any did.
    pub note: String,
    /// The run never finished: it hit [`rep_timeout`].
    pub timed_out: bool,
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Ops that errored, failed verification or never completed.
    pub failed: u64,
    /// Worker start → every rank back from its first barrier.
    pub setup_ns: u64,
    /// Rank 0's timed region.
    pub run_ns: u64,
    /// Median op latency.
    pub op_p50_ns: u64,
    /// Tail op latency at `tail_pct`.
    pub op_tail_ns: u64,
    /// Percentile of `op_tail_ns`, in tenths of a percent.
    pub tail_pct: u32,
    /// Timed ops behind the two percentiles.
    pub samples: u64,
    /// Timed ops of rank 0 (CG: every iteration, the discarded first tenth
    /// included).
    pub ops: u64,
    /// Median op latency of each full segment of [`Workload::seg`] ops (a
    /// smoke run shorter than one segment is one segment).
    pub seg_p50_ns: Vec<u64>,
    /// Duration of each of those segments.
    pub seg_ns: Vec<u64>,
    /// Ops per segment.
    pub seg_ops: u64,
    /// Crash workloads: the one op that waited for the crashed rank to
    /// come back (the longest); 0 otherwise.
    pub stall_ns: u64,
    /// Application messages delivered in the timed region.
    pub msgs: u64,
    /// Application payload bytes delivered in the timed region.
    pub bytes: u64,
    /// Peak resident set of the worker (in-process) or of its largest
    /// child (socket).
    pub peak_rss_kb: u64,
    /// Counters from the run's report.
    pub counts: Counts,
    /// Span medians, for a traced repetition.
    pub spans: Option<SpanMetrics>,
}

impl RepResult {
    /// A repetition none of whose ops completed.
    pub fn all_failed(attempted: u64, note: impl Into<String>) -> RepResult {
        RepResult {
            note: note.into(),
            attempted,
            failed: attempted,
            ..Default::default()
        }
    }
}

/// What either backend hands back.
struct RawRun {
    results: Vec<Payload>,
    metrics: Vec<Metrics>,
    timings: Option<ProtocolTimings>,
    restarts: u64,
    spans: Option<(SpanSet, Vec<SpanRec>)>,
}

fn crash_plan(spec: &AppSpec) -> TurbulenceConfig {
    // Rank 1's daemon makes three fabric sends per round trip (delivery
    // to its process, event batch to the logger, data to rank 0), so this
    // lands half-way through the run. The seed moves the point by less
    // than 64 sends: the fault plan is seeded, the replay volume steady.
    let half = 3 * (spec.warm + spec.ops) / 2;
    TurbulenceConfig {
        seed: spec.seed,
        crash_on_send: vec![CountTrigger {
            watch: NodeId::Computing(Rank(1)),
            at: half + spec.seed % 64,
            kill: fail_stop_group(Rank(1)),
        }],
        ..Default::default()
    }
}

/// Why a run produced no results.
struct RunError {
    timed_out: bool,
    detail: String,
}

fn run_in_process(
    wl: &Workload,
    protocol: RuntimeProtocol,
    spec: AppSpec,
    traced: bool,
    timeout: Duration,
) -> Result<RawRun, RunError> {
    let cfg = ClusterConfig {
        world: wl.world,
        protocol,
        checkpointing: None,
        turbulence: wl.crash.then(|| crash_plan(&spec)),
        obs: RecorderConfig {
            enabled: traced,
            // Room for the whole traced repetition: a wrapped ring would
            // orphan the spans of the early messages.
            capacity: 1 << 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, make_app(spec, traced));
    let hub = cluster.recorder_hub();
    let report = cluster.wait_report(timeout).map_err(|e| RunError {
        timed_out: matches!(e, ClusterError::Timeout(_)),
        detail: e.to_string(),
    })?;
    Ok(RawRun {
        results: report.results,
        metrics: report.rank_metrics,
        timings: Some(report.timings),
        restarts: report.restarts,
        spans: traced.then(|| (SpanSet::build(&hub.timeline()), take_spans())),
    })
}

fn run_socket(wl: &Workload, spec: AppSpec, timeout: Duration) -> Result<RawRun, RunError> {
    let mut opts = ProcOptions::new(wl.world, spec.encode());
    opts.checkpointing = None;
    opts.monitor = false;
    opts.timeout = timeout;
    let report = run_proc(opts).map_err(|e| RunError {
        timed_out: matches!(e, ProcError::Timeout),
        detail: e.to_string(),
    })?;
    Ok(RawRun {
        results: report.results,
        metrics: report.rank_metrics.into_iter().map(|(_, m)| m).collect(),
        timings: None,
        restarts: u64::from(report.restarts),
        spans: None,
    })
}

fn median_of(spans: &SpanSet, f: impl Fn(&Span) -> Option<u64>) -> u64 {
    p50_or_zero(spans.spans.values().filter_map(f).collect())
}

/// The fold each rank must report, rebuilt from the seed alone — what a
/// fault-free run produces.
fn expected_folds(spec: &AppSpec) -> [u64; 2] {
    let n = spec.warm + spec.ops;
    let pool = |sender| PayloadPool::new(spec.seed, sender, spec.size);
    match spec.kind {
        PingPong => [pool(1).expected_fold(n), pool(0).expected_fold(n)],
        Stream => [
            pool(0).expected_fold(0),
            pool(0).expected_fold(n * spec.window),
        ],
        Cg => [0; 2],
    }
}

/// `mvr_workloads::cg` on one rank of the plain test cluster: the
/// reference the 4-rank result must agree with.
fn cg_reference(spec: &AppSpec) -> Result<mvr_workloads::CgResult, String> {
    let cfg = mvr_workloads::CgConfig {
        n: spec.size,
        max_iter: spec.ops as u32,
        tol: CG_TOL,
    };
    mvr_mpi::testing::run_local(1, |mut mpi| mvr_workloads::cg(&mut mpi, &cfg, None))
        .map(|mut r| r.remove(0))
        .map_err(|e| e.to_string())
}

/// Output verification: how many ops failed, and why.
fn verify(wl: &Workload, spec: &AppSpec, outs: &[RankOut], counts: &Counts) -> (u64, String) {
    let attempted = spec.warm + spec.ops;
    let bad: u64 = outs.iter().map(|o| o.bad).sum();
    if bad > 0 {
        return (
            bad.min(attempted),
            format!("{bad} message(s) failed their checksum"),
        );
    }
    if wl.crash && (counts.restarts != 1 || counts.replayed_deliveries == 0) {
        return (
            attempted,
            format!(
                "expected exactly one restart with replay, saw {} restart(s), {} replayed",
                counts.restarts, counts.replayed_deliveries
            ),
        );
    }
    if spec.kind == Cg {
        let reference = match cg_reference(spec) {
            Ok(r) => r,
            Err(e) => return (attempted, format!("reference solve failed: {e}")),
        };
        for (r, o) in outs.iter().enumerate() {
            let iter_gap = o.iterations.abs_diff(reference.iterations);
            let sum_gap = (o.solution_sum - reference.checksum).abs();
            if iter_gap * 100 > reference.iterations || sum_gap > 1e-6 * reference.checksum.abs() {
                return (
                    attempted,
                    format!(
                        "rank {r}: {} iterations / sum {} vs reference {} / {}",
                        o.iterations, o.solution_sum, reference.iterations, reference.checksum
                    ),
                );
            }
        }
        return (0, String::new());
    }
    let want = expected_folds(spec);
    for (r, o) in outs.iter().enumerate() {
        if o.recv_fold != want[r] {
            return (
                attempted,
                format!("rank {r}: received payloads differ from the fault-free run"),
            );
        }
    }
    (0, String::new())
}

fn counts_of(raw: &RawRun) -> Counts {
    let sum = |f: fn(&Metrics) -> u64| raw.metrics.iter().map(f).sum::<u64>();
    let mut c = Counts {
        msgs_sent: sum(|m| m.msgs_sent),
        events_logged: sum(|m| m.events_logged),
        el_batches_sent: sum(|m| m.el_batches_sent),
        gate_deferred_sends: sum(|m| m.gate_deferred_sends),
        retransmissions: sum(|m| m.retransmissions),
        replayed_deliveries: sum(|m| m.replayed_deliveries),
        duplicates_dropped: sum(|m| m.duplicates_dropped),
        restarts: raw.restarts,
        ..Default::default()
    };
    match &raw.timings {
        Some(t) => {
            c.gate_wait_ns = t.gate_wait.quantile(0.5);
            c.el_ack_rtt_ns = t.el_ack_rtt.quantile(0.5);
            c.replay_ns = t.replay.sum();
        }
        // The socket report carries sums, not histograms: means.
        None => {
            c.gate_wait_ns = sum(|m| m.gate_wait_ns)
                .checked_div(c.gate_deferred_sends)
                .unwrap_or(0);
            c.el_ack_rtt_ns = sum(|m| m.el_ack_rtt_ns)
                .checked_div(sum(|m| m.el_batches_acked))
                .unwrap_or(0);
        }
    }
    c
}

fn write_trace(dir: &Path, wl: &Workload, spans: &[SpanRec]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string(spans).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(format!("trace_{}.json", wl.name)), json)
}

/// Run one repetition of `wl` in this (fresh) process. `start_unix_ns` is
/// when the orchestrator started this worker; `trace_dir` turns on the
/// traced variant and names where its spans go.
pub fn run_rep(
    wl: &Workload,
    seed: u64,
    scale: f64,
    start_unix_ns: u64,
    trace_dir: Option<&Path>,
) -> RepResult {
    let spec = wl.spec(seed, scale);
    let attempted = spec.warm + spec.ops;
    let traced = trace_dir.is_some();
    let raw = match wl.backend {
        InProcess(protocol) => run_in_process(wl, protocol, spec, traced, rep_timeout(scale)),
        Socket => run_socket(wl, spec, rep_timeout(scale)),
    };
    let raw = match raw {
        Ok(r) => r,
        Err(e) => {
            return RepResult {
                timed_out: e.timed_out,
                ..RepResult::all_failed(attempted, e.detail)
            }
        }
    };
    let outs: Option<Vec<RankOut>> = raw.results.iter().map(decode_out).collect();
    let Some(outs) = outs.filter(|o| o.len() == wl.world as usize) else {
        return RepResult::all_failed(attempted, "undecodable rank result");
    };
    let counts = counts_of(&raw);
    let (failed, note) = verify(wl, &spec, &outs, &counts);

    let mut lat = outs[0].op_ns.clone();
    let seg_ops = wl.seg.min(lat.len()).max(1);
    let (seg_p50_ns, seg_ns) = lat
        .chunks_exact(seg_ops)
        .map(|seg| (p50_or_zero(seg.to_vec()), seg.iter().sum::<u64>()))
        .unzip();
    let stall_ns = if wl.crash {
        lat.iter().copied().max().unwrap_or(0)
    } else {
        0
    };
    if spec.kind == Cg {
        // CG has no separate warm-up loop: drop the first tenth of the
        // iterations from the percentiles instead.
        lat.drain(..lat.len() / 10);
    }
    lat.sort_unstable();
    let (Some(tail_pct), false) = (tail_percentile(lat.len()), lat.is_empty()) else {
        return RepResult::all_failed(
            attempted,
            format!("only {} timed ops: no percentile is supported", lat.len()),
        );
    };
    let ops = outs[0].op_ns.len() as u64;
    let (msgs, bytes) = match spec.kind {
        PingPong => (2 * ops, 2 * ops * spec.size as u64),
        Stream => (
            ops * (spec.window + 1),
            ops * spec.window * spec.size as u64,
        ),
        // Whole-run engine counters: the timed region is the whole solve
        // (the one barrier before it adds a handful of messages).
        Cg => (
            raw.metrics.iter().map(|m| m.msgs_delivered).sum(),
            raw.metrics.iter().map(|m| m.bytes_delivered).sum(),
        ),
    };
    let spans = raw.spans.as_ref().map(|(set, recs)| SpanMetrics {
        send_call_ns: span_p50_ns(recs, "mpi.send"),
        recv_call_ns: span_p50_ns(recs, "mpi.recv"),
        wire_ns: median_of(set, Span::wire_latency_ns),
        gate_wait_ns: median_of(set, Span::gate_wait_ns),
        el_rtt_ns: median_of(set, Span::el_rtt_ns),
        quorum_wait_ns: median_of(set, Span::quorum_wait_ns),
    });
    let mut note = note;
    if let (Some(dir), Some((_, recs))) = (trace_dir, &raw.spans) {
        if let Err(e) = write_trace(dir, wl, recs) {
            note = format!("{note} (trace file not written: {e})");
        }
    }
    // Set-up ends when the last rank is back from the first barrier. The
    // crashed rank passes that barrier a second time when it re-executes,
    // so there only rank 0's (the barrier's last entrant has arrived by
    // then) can say when set-up ended.
    let ready = if wl.crash {
        outs[0].ready_unix_ns
    } else {
        outs.iter().map(|o| o.ready_unix_ns).max().unwrap_or(0)
    };
    RepResult {
        note,
        timed_out: false,
        attempted,
        failed,
        setup_ns: ready.saturating_sub(start_unix_ns),
        run_ns: outs[0].run_ns,
        op_p50_ns: percentile(&lat, 500),
        op_tail_ns: percentile(&lat, tail_pct),
        tail_pct,
        samples: lat.len() as u64,
        ops,
        seg_p50_ns,
        seg_ns,
        seg_ops: seg_ops as u64,
        stall_ns,
        msgs,
        bytes,
        peak_rss_kb: match wl.backend {
            InProcess(_) => sys::self_peak_rss_kb(),
            Socket => sys::children_peak_rss_kb(),
        },
        counts,
        spans,
    }
}
