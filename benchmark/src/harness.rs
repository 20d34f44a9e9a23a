//! The orchestrator: runs each repetition in a fresh re-exec'd worker
//! process, reduces repetitions to the end-to-end metrics (low decile
//! over their segments) and, for the traced pass, combines run counters, span
//! medians and layer-driver costs into the per-layer metrics.

use crate::layers::DriverResult;
use crate::stats::{low_decile, median};
use crate::workloads::{self, rep_timeout, Backend, RepResult, Workload};
use crate::{sys, DERIVED_PER_LAYER, END_TO_END};
use serde::Serialize;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Environment variable that turns a re-exec of this binary into a worker.
pub const WORKER_ENV: &str = "MVR_BENCH_WORKER";
const RESULT_PREFIX: &str = "MVR_BENCH_REP ";
/// Fewest repetitions of a run, however short the time budget.
pub const MIN_REPS: usize = 3;
/// Slack, beyond the runtime's own timeout, before a worker is killed.
const WORKER_GRACE: Duration = Duration::from_secs(15);

/// What the command line chose.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Seed of payloads and fault plan.
    pub seed: u64,
    /// Time budget of one workload's measurement.
    pub seconds: f64,
    /// Op-count scale (1.0 = full; `--quick` shrinks it).
    pub scale: f64,
    /// Directory for trace and result files.
    pub out: PathBuf,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Entry point of a worker process: run the one repetition `spec` names
/// and print its result line.
pub fn worker_main(spec: &str) {
    let mut it = spec.split('\t');
    let parsed = (|| {
        let wl = workloads::find(it.next()?)?;
        let seed = it.next()?.parse().ok()?;
        let scale = it.next()?.parse().ok()?;
        let start = it.next()?.parse().ok()?;
        let trace_dir = it.next().filter(|d| !d.is_empty()).map(PathBuf::from);
        Some((wl, seed, scale, start, trace_dir))
    })();
    let Some((wl, seed, scale, start, trace_dir)) = parsed else {
        eprintln!("benchmark worker: malformed spec {spec:?}");
        std::process::exit(2);
    };
    // One priority below the orchestrator, so that its timeout can always
    // preempt a worker; without the privilege both run under the default
    // policy and `main` has already said so.
    let _ = sys::set_fifo(sys::WORKER_PRIORITY);
    let rep = workloads::run_rep(wl, seed, scale, start, trace_dir.as_deref());
    let bytes = bincode::serialize(&rep).expect("RepResult serializes");
    println!("{RESULT_PREFIX}{}", hex(&bytes));
}

/// Run one repetition of `wl` in a fresh worker process. A worker that
/// dies or outlives its timeout costs the repetition (all its ops count as
/// failed), not the benchmark.
///
/// One exception, measured and described in the README: about one socket
/// deployment in 300 deadlocks within its first ops (a start-up defect of
/// the program, outside what the workloads time), so a socket repetition
/// that times out is run once more, with a warning. If that one stalls
/// too, its ops are failed ops.
pub fn spawn_rep(wl: &Workload, s: &Settings, trace_dir: Option<&Path>) -> RepResult {
    let rep = spawn_once(wl, s, trace_dir);
    if wl.backend == Backend::Socket && rep.timed_out {
        eprintln!(
            "benchmark: {}: the socket deployment stalled ({}); running the repetition again",
            wl.name, rep.note
        );
        return spawn_once(wl, s, trace_dir);
    }
    rep
}

fn spawn_once(wl: &Workload, s: &Settings, trace_dir: Option<&Path>) -> RepResult {
    let attempted = {
        let spec = wl.spec(s.seed, s.scale);
        spec.warm + spec.ops
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return RepResult::all_failed(attempted, format!("current_exe: {e}")),
    };
    let spec = format!(
        "{}\t{}\t{}\t{}\t{}",
        wl.name,
        s.seed,
        s.scale,
        mvr_obs::unix_now_ns(),
        trace_dir
            .map(|d| d.display().to_string())
            .unwrap_or_default()
    );
    let mut child = match Command::new(exe)
        .env(WORKER_ENV, spec)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        // Its own group, so a hung worker can be killed with its children.
        .process_group(0)
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return RepResult::all_failed(attempted, format!("spawn worker: {e}")),
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(h) = line.strip_prefix(RESULT_PREFIX) {
                let _ = tx.send(h.to_string());
            }
        }
    });
    // The channel closes without a message when the worker dies early.
    let line = rx.recv_timeout(rep_timeout(s.scale) + WORKER_GRACE);
    if line.is_err() {
        sys::kill_group(child.id());
    }
    let _ = child.wait();
    reader.join().expect("stdout reader");
    match line {
        Ok(h) => unhex(&h)
            .and_then(|b| bincode::deserialize::<RepResult>(&b).ok())
            .unwrap_or_else(|| RepResult::all_failed(attempted, "unreadable worker result")),
        Err(mpsc::RecvTimeoutError::Timeout) => RepResult {
            timed_out: true,
            ..RepResult::all_failed(attempted, "worker timed out")
        },
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            RepResult::all_failed(attempted, "worker exited without a result")
        }
    }
}

/// A named value with its unit.
#[derive(Clone, Debug, Serialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// One workload's measurement: its repetitions and the metrics over them.
#[derive(Clone, Debug, Serialize)]
pub struct Measured {
    /// Workload name.
    pub workload: &'static str,
    /// Every repetition, in run order.
    pub reps: Vec<RepResult>,
    /// The metrics (end-to-end or per-layer, by pass).
    pub metrics: Vec<Metric>,
}

impl Measured {
    /// Ops attempted over all repetitions.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    /// Ops failed over all repetitions.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// [`low_decile`], or 0 for an empty sample (no repetition finished).
fn decile_or_zero(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        low_decile(&values)
    }
}

fn decile_ns(ns: impl Iterator<Item = u64>) -> f64 {
    decile_or_zero(ns.map(|x| x as f64).collect())
}

/// Mean op latency (ns) of the low-decile segment of `reps`.
fn mean_op_ns(reps: &[&RepResult]) -> f64 {
    let per_op = reps
        .iter()
        .flat_map(|r| r.seg_ns.iter().map(move |&ns| ns as f64 / r.seg_ops as f64));
    decile_or_zero(per_op.collect())
}

/// The end-to-end pass, recorder off: one warm-up repetition whose
/// timings are discarded (the page cache belongs to no workload), then
/// repetitions until the next one would overrun the time budget, but at
/// least [`MIN_REPS`].
///
/// What disturbs a run comes in bursts of tens of milliseconds to seconds
/// and only ever adds time (README, *Steadiness*). So each repetition's
/// timed ops are cut into segments of 5–10 ms, and a timing
/// is the low decile over every segment of the run: `op_p50_us` of the
/// segments' median op latencies, `run_s` of their mean op latencies times
/// the repetition's fixed op count — plus, on the crash workload, the low
/// decile over repetitions of the one op that waited out the recovery.
/// The two rates are the repetition's fixed message and byte counts over
/// that `run_s`. `setup_s` is the low decile over repetitions; memory is
/// not disturbed, so `peak_rss_mb` is their median.
pub fn run_end_to_end(wl: &Workload, s: &Settings) -> Measured {
    let begun = Instant::now();
    let budget = Duration::from_secs_f64(s.seconds);
    let mut reps = Vec::new();
    loop {
        let rep_begun = Instant::now();
        reps.push(spawn_rep(wl, s, None));
        let next_ends = begun.elapsed() + rep_begun.elapsed();
        if reps.len() > MIN_REPS && next_ends > budget {
            break;
        }
    }
    let timed: Vec<&RepResult> = reps[1..].iter().filter(|r| r.run_ns > 0).collect();
    let segments =
        |f: fn(&RepResult) -> &Vec<u64>| timed.iter().flat_map(move |r| f(r).iter().copied());
    let op_p50_us = decile_ns(segments(|r| &r.seg_p50_ns)) / 1e3;
    let seg_count = segments(|r| &r.seg_p50_ns).count();
    let disturbed = segments(|r| &r.seg_p50_ns)
        .filter(|&ns| ns as f64 > 1.2 * 1e3 * op_p50_us)
        .count();
    eprintln!(
        "benchmark: {}: {} repetition(s), {seg_count} segment(s) of {} op(s), {disturbed} of them more than 20% above the low decile",
        wl.name,
        reps.len(),
        wl.seg
    );
    let (ops, msgs, bytes) = timed
        .first()
        .map_or((0, 0, 0), |r| (r.ops, r.msgs, r.bytes));
    let run_s =
        (ops as f64 * mean_op_ns(&timed) + decile_ns(timed.iter().map(|r| r.stall_ns))) / 1e9;
    let rss: Vec<f64> = timed
        .iter()
        .map(|r| r.peak_rss_kb as f64 * 1024.0 / 1e6)
        .collect();
    let values = [
        decile_ns(timed.iter().map(|r| r.setup_ns)) / 1e9,
        run_s,
        op_p50_us,
        msgs as f64 / run_s,
        bytes as f64 / 1e6 / run_s,
        if rss.is_empty() { 0.0 } else { median(&rss) },
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name.into(),
            unit: m.unit,
            // A run none of whose repetitions finished has no rate.
            value: if value.is_finite() { value } else { 0.0 },
        })
        .collect();
    Measured {
        workload: wl.name,
        reps,
        metrics,
    }
}

fn driver_value(drivers: &[DriverResult], name: &str) -> f64 {
    let d = drivers.iter().find(|d| d.name == name);
    d.unwrap_or_else(|| panic!("no driver called {name}")).value
}

/// The layer cost (ns) the drivers attribute to one op of `rep`: every
/// message pays its ring traversals and, under V2, the engine's send and
/// delivery; every event batch pays a round trip to the logger and the ack
/// that reopens the gate; every event pays its append. Pinned to one CPU,
/// all of that work is on the op's blocking path.
fn attributed_ns_per_op(wl: &Workload, rep: &RepResult, drivers: &[DriverResult]) -> f64 {
    // Every driver used here reports ns.
    let d = |name| driver_value(drivers, name);
    let ops = rep.attempted.max(1) as f64;
    let msgs_per_op = rep.msgs as f64 / rep.samples.max(1) as f64;
    let mut per_msg = 3.0 * d("net.ring_ns");
    let mut rest = 0.0;
    if wl.logs() {
        per_msg += d("core.send_ns") + d("core.deliver_ns");
        if wl.size >= 65_536 {
            per_msg += d("core.sender_log_append_ns_64k");
        }
        let c = &rep.counts;
        let per_event = if c.events_logged < 8 * c.el_batches_sent {
            d("eventlog.log_ns_per_event_b1")
        } else {
            d("eventlog.log_ns_per_event_b64")
        };
        rest = (c.el_batches_sent as f64 * (2.0 * d("net.ring_ns") + d("core.ack_ns"))
            + c.events_logged as f64 * per_event)
            / ops;
    }
    msgs_per_op * per_msg + rest
}

/// The traced pass for one workload: a discarded warm-up repetition, one
/// untraced and one traced repetition, combined with the layer drivers'
/// results into every per-layer metric. Latencies are the low decile over
/// the repetition's segments, as in the end-to-end pass.
pub fn run_traced(wl: &Workload, s: &Settings, drivers: &[DriverResult]) -> Measured {
    let _warm_up = spawn_rep(wl, s, None);
    let plain = spawn_rep(wl, s, None);
    let in_process = matches!(wl.backend, Backend::InProcess(_));
    // Spans come from the in-process recorder; the socket backend has its
    // ranks in other processes, so its span metrics read 0.
    let traced = in_process.then(|| spawn_rep(wl, s, Some(&s.out)));
    let spans = traced
        .as_ref()
        .and_then(|t| t.spans.clone())
        .unwrap_or_default();
    let c = &plain.counts;
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let op_us = decile_ns(plain.seg_p50_ns.iter().copied()) / 1e3;
    let attributed_us = if in_process {
        attributed_ns_per_op(wl, &plain, drivers) / 1e3
    } else {
        0.0
    };
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    let attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let derived = [
        c.events_logged as f64,
        c.el_batches_sent as f64,
        share(c.events_logged, c.el_batches_sent),
        share(c.gate_deferred_sends, c.msgs_sent),
        us(c.gate_wait_ns),
        us(c.el_ack_rtt_ns),
        c.retransmissions as f64,
        c.replayed_deliveries as f64,
        c.duplicates_dropped as f64,
        c.replay_ns as f64 / 1e6,
        c.restarts as f64,
        us(spans.send_call_ns),
        us(spans.recv_call_ns),
        us(spans.wire_ns),
        us(spans.gate_wait_ns),
        us(spans.el_rtt_ns),
        us(spans.quorum_wait_ns),
        if in_process {
            op_us - attributed_us
        } else {
            0.0
        },
        if in_process && op_us > 0.0 {
            attributed_us / op_us
        } else {
            0.0
        },
        match &traced {
            Some(t) if mean_op_ns(&[&plain]) > 0.0 => {
                mean_op_ns(&[t]) / mean_op_ns(&[&plain]) - 1.0
            }
            _ => 0.0,
        },
        driver_value(drivers, "core.deliver_ns_backlog4096")
            / driver_value(drivers, "core.deliver_ns"),
        share(failed, attempted),
        op_us,
        us(plain.op_tail_ns),
    ];
    let metrics = drivers
        .iter()
        .map(|d| Metric {
            name: d.name.into(),
            unit: d.unit,
            value: d.value,
        })
        .chain(
            DERIVED_PER_LAYER
                .iter()
                .zip(derived)
                .map(|(&(name, unit, _), value)| Metric {
                    name: name.into(),
                    unit,
                    value,
                }),
        )
        .collect();
    Measured {
        workload: wl.name,
        reps: std::iter::once(plain).chain(traced).collect(),
        metrics,
    }
}

/// The contract's result line: one JSON object, every value with all the
/// digits it was measured with.
pub fn result_line(m: &Measured) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed() == 0 && m.attempted() > 0,
        m.attempted().max(1),
        m.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips() {
        let b = vec![0u8, 1, 0x7f, 0xff];
        assert_eq!(unhex(&hex(&b)), Some(b));
        assert_eq!(unhex("zz"), None);
        assert_eq!(unhex("abc"), None);
    }
}
