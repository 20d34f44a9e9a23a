//! # benchmark — what an application on the real runtime pays, and where
//!
//! End-to-end workloads run the benchmark's own MPI programs on the real
//! `mvr-runtime` (in-process fabric and loopback-TCP backends) and report
//! what a user of the system sees; a separate traced pass attributes that
//! time to layers from outside the program. `README.md` has the method,
//! the workloads and how the metrics interact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod harness;
pub mod layers;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported for every workload, with the share of
/// the parent's median by which it may worsen before a change is a
/// regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "mb_per_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics that do not come from a layer driver: counts from
/// the run's own report, span medians from the traced repetition, and the
/// figures derived from them. (Name, unit, direction.)
pub const DERIVED_PER_LAYER: [(&str, &str, Better); 24] = [
    ("core.events_logged", "count", Lower),
    ("core.el_batches_sent", "count", Lower),
    ("core.events_per_batch", "count", Higher),
    ("core.gate_deferred_share", "share", Lower),
    ("core.gate_wait_p50_us", "us", Lower),
    ("eventlog.ack_rtt_p50_us", "us", Lower),
    ("core.retransmissions", "count", Lower),
    ("core.replayed_deliveries", "count", Lower),
    ("core.duplicates_dropped", "count", Lower),
    ("core.replay_ms", "ms", Lower),
    ("runtime.restarts", "count", Lower),
    ("mpi.send_call_p50_us", "us", Lower),
    ("mpi.recv_call_p50_us", "us", Lower),
    ("span.wire_p50_us", "us", Lower),
    ("span.gate_wait_p50_us", "us", Lower),
    ("span.el_rtt_p50_us", "us", Lower),
    ("span.quorum_wait_p50_us", "us", Lower),
    ("runtime.handoff_residual_us", "us", Lower),
    ("runtime.closure_share", "share", Higher),
    ("obs.trace_overhead_share", "share", Lower),
    ("core.deliver_backlog_ratio", "ratio", Lower),
    ("ops_failed_share", "share", Lower),
    ("runtime.op_p50_us", "us", Lower),
    ("op_p99_us.info", "us", Lower),
];

/// Direction of a layer driver's metric: rates up, costs down.
pub fn driver_better(per: layers::Per) -> Better {
    match per {
        layers::Per::MbPerS(_) => Higher,
        _ => Lower,
    }
}

/// How long one driver-invoked run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 16;

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// manifest cannot drift from what the binary emits
/// (`benchmark manifest > BENCHMARK.json`; a test compares the two).
pub fn manifest() -> String {
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = layers::DRIVERS
        .iter()
        .map(|d| (d.name, d.per.unit(), driver_better(d.per)))
        .chain(DERIVED_PER_LAYER)
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(name),
                quoted(unit),
                quoted(better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
