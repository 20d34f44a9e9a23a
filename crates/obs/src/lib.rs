//! `mvr-obs` — the observability layer threaded through every protocol
//! component: a lock-light per-engine flight recorder of structured
//! protocol events, HDR-style mergeable latency histograms for the hot
//! protocol intervals, and one pipeline over what they record: record →
//! sinks (live monitor, telemetry, per-process JSONL streams) → dump
//! (one clock-ordered JSONL timeline, merged and skew-corrected across
//! processes) → the strict [`audit`], the Perfetto [`write_trace`] and
//! the [`RunProfile`] diff.
//!
//! The crate is a leaf: it speaks raw `u32` ranks so that `mvr-core`
//! (and everything above it) can depend on it without a cycle.
//!
//! Design constraints honoured here:
//! - the disabled-recorder fast path is a single relaxed atomic load
//!   (`Recorder::record` returns before touching the ring lock), so
//!   benchmark figures are unaffected when tracing is off;
//! - every record carries rank, logical clock and a monotonic
//!   timestamp taken from an epoch shared across the whole deployment
//!   (via [`RecorderHub`]), so merged timelines order correctly;
//! - histogram summaries are all-integer ([`HistSummary`]) so they can
//!   ride in wire messages that derive `Eq`.

#![warn(missing_docs)]

mod causal;
mod diff;
mod dump;
mod event;
mod health;
mod hist;
mod monitor;
mod prom;
mod recorder;
mod skew;
mod span;
mod telemetry;
mod timings;
mod trace;
mod window;

pub use causal::{CausalGraph, CriticalPath, CriticalStep, EdgeCat};
pub use diff::{compare, DiffReport, MetricDelta, RunProfile, NOISE_FLOOR_EVENTS, NOISE_FLOOR_NS};
pub use dump::{
    audit, merge_dump_files, parse_record_line, read_dump, render_dump, validate_records, Audit,
    Dump, DumpHeader, JsonlStreamSink, RotateConfig, TeeSink, Triage,
};
pub use event::{FlightRecord, ProtoEvent, SendDisposition, DISPATCHER_RANK};
pub use health::HealthServer;
pub use hist::{HistSummary, LogHistogram};
pub use monitor::{InvariantMonitor, RecordSink, Violation};
pub use prom::{timing_families, window_families, PromPage};
pub use recorder::{
    epoch_from_unix_ns, unix_now_ns, Recorder, RecorderConfig, RecorderHub, VirtualClock,
};
pub use skew::{apply_track, estimate_skew, OffsetTrack, RankTrack, SkewEstimate};
pub use span::{DeliveryLeg, Orphan, OrphanKind, Span, SpanKey, SpanSet};
pub use telemetry::{TelemetrySink, TelemetrySnapshot};
pub use timings::{ProtocolTimings, TimingSummary};
pub use trace::write_trace;
pub use window::{MetricsWindow, WindowRing, DEFAULT_WINDOW_NS, DEFAULT_WINDOW_RING};
