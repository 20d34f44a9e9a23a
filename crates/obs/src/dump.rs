//! Crash-dump writers and validators: the merged JSONL timeline, the
//! Chrome-trace/Perfetto export, schema validation, and first-divergence
//! triage.
//!
//! The dump format is what `#[derive(Serialize, Deserialize)]` on
//! [`FlightRecord`] and [`DumpHeader`] says it is: one JSON object per
//! line, written with `serde_json::to_string` and read back with
//! `serde_json::from_str`. The readers here ([`parse_record_line`],
//! [`parse_header_line`], [`parse_dump`]) add only what a JSONL file
//! needs on top — header-or-record detection on line 1 and `line N:`
//! error context.

use crate::event::{FlightRecord, ProtoEvent};
use crate::skew::{RankTrack, SkewEstimate};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Where a dump landed, plus enough metadata for triage notes.
#[derive(Clone, Debug)]
pub struct DumpPaths {
    /// The merged clock-ordered JSONL timeline.
    pub jsonl: PathBuf,
    /// The Chrome-trace/Perfetto export.
    pub trace: PathBuf,
    /// Records written.
    pub records: usize,
    /// Records lost to ring-buffer wraparound before the dump.
    pub dropped: u64,
    /// First-divergence triage, if the timeline contains an anomaly.
    pub triage: Option<Triage>,
}

impl DumpPaths {
    /// One-paragraph triage note naming the dump paths and, when
    /// present, the rank and protocol phase of the first divergence.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "flight recorder: {} records ({} lost to wraparound)\n  timeline: {}\n  perfetto: {}",
            self.records,
            self.dropped,
            self.jsonl.display(),
            self.trace.display(),
        );
        match &self.triage {
            Some(t) => s.push_str(&format!("\n  {t}")),
            None => s.push_str("\n  no anomaly recorded in timeline"),
        }
        if self.dropped > 0 {
            s.push_str(&format!(
                "\n  WARNING: {} record(s) lost to ring wraparound — the timeline \
                 is truncated; causal analysis may report spurious orphan spans. \
                 Raise the recorder ring capacity.",
                self.dropped
            ));
        }
        s
    }
}

/// The first anomaly in a merged timeline: which rank diverged first,
/// and in which protocol phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Triage {
    /// Rank of the first anomalous record ([`crate::event::DISPATCHER_RANK`]
    /// for harness-level records).
    pub rank: u32,
    /// Protocol phase of the anomaly (see [`ProtoEvent::phase`]).
    pub phase: &'static str,
    /// Event kind of the anomaly.
    pub kind: &'static str,
    /// Timestamp of the anomaly.
    pub ts_ns: u64,
    /// Rendered event for the triage note.
    pub detail: String,
}

impl std::fmt::Display for Triage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rank = if self.rank == crate::event::DISPATCHER_RANK {
            "harness".to_string()
        } else {
            format!("rank {}", self.rank)
        };
        write!(
            f,
            "first divergence: {} in phase `{}` ({}, t={}ns): {}",
            rank, self.phase, self.kind, self.ts_ns, self.detail
        )
    }
}

/// Find the first anomaly in a ts-ordered timeline. Explicit
/// [`ProtoEvent::Divergence`] records win over chaos kills: a kill is
/// an injected fault, a divergence is the protocol failing to mask it.
pub fn triage(timeline: &[FlightRecord]) -> Option<Triage> {
    let pick = |rec: &FlightRecord| Triage {
        rank: rec.rank,
        phase: rec.event.phase(),
        kind: rec.event.kind(),
        ts_ns: rec.ts_ns,
        detail: format!("{:?}", rec.event),
    };
    timeline
        .iter()
        .find(|r| matches!(r.event, ProtoEvent::Divergence { .. }))
        .or_else(|| timeline.iter().find(|r| r.event.is_anomaly()))
        .map(pick)
}

/// Render one record as its canonical JSONL line (no trailing newline).
pub fn jsonl_line(rec: &FlightRecord) -> String {
    serde_json::to_string(rec).expect("FlightRecord serializes to JSON")
}

/// Metadata carried by the first line of a JSONL dump, so a reader can
/// tell a complete timeline from a ring-truncated one without access to
/// the live hub.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpHeader {
    /// Records in the dump body (lines after the header).
    pub records: u64,
    /// Records lost to ring wraparound before the dump was taken.
    /// Non-zero means the timeline is truncated and causal analysis
    /// can report spurious orphan spans.
    pub dropped: u64,
    /// Per-rank clock-offset tracks the merge applied to the body's
    /// timestamps (see [`crate::estimate_skew`]); one anchor is a
    /// constant offset. Empty for single-process dumps and skew-free
    /// merges.
    #[serde(default)]
    pub track: Vec<RankTrack>,
    /// Ranks present in the body with zero causal edges: their offset
    /// is 0 by construction, not by evidence. Explicit so a reader can
    /// tell "measured clean" from "never measured".
    #[serde(default)]
    pub unconstrained: Vec<u32>,
}

#[derive(Serialize, Deserialize)]
struct HeaderLine {
    header: DumpHeader,
}

/// Render the dump-header line (no trailing newline):
/// `{"header":{"records":N,"dropped":N,"track":[...],"unconstrained":[...]}}`.
pub fn header_line(header: &DumpHeader) -> String {
    serde_json::to_string(&HeaderLine {
        header: header.clone(),
    })
    .expect("DumpHeader serializes to JSON")
}

/// Decode one JSONL record line.
pub fn parse_record_line(line: &str) -> Result<FlightRecord, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Decode a header line, or `None` if the line is not a header. Keys
/// this build does not know are ignored and absent `track` /
/// `unconstrained` lists read as empty, so headers written by earlier
/// builds (whose `offsets` array described a correction already applied
/// to the body) still load.
pub fn parse_header_line(line: &str) -> Option<DumpHeader> {
    serde_json::from_str::<HeaderLine>(line)
        .ok()
        .map(|h| h.header)
}

enum Line {
    Header(DumpHeader),
    Record(FlightRecord),
}

/// One non-blank line of a JSONL dump, by its zero-based line index:
/// the header if it is line 0 and reads as one, a record otherwise.
fn parse_line(i: usize, line: &str) -> Result<Line, String> {
    if i == 0 {
        if let Some(h) = parse_header_line(line) {
            return Ok(Line::Header(h));
        }
    }
    parse_record_line(line)
        .map(Line::Record)
        .map_err(|e| format!("line {}: {e}", i + 1))
}

/// Decode a whole JSONL dump: optional header line, then records.
pub fn parse_dump(text: &str) -> Result<(Option<DumpHeader>, Vec<FlightRecord>), String> {
    let mut header = None;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(i, line)? {
            Line::Header(h) => header = Some(h),
            Line::Record(rec) => records.push(rec),
        }
    }
    Ok((header, records))
}

/// Write the merged timeline as JSONL: one header line, then one record
/// per line.
pub fn write_jsonl(path: &Path, timeline: &[FlightRecord], dropped: u64) -> std::io::Result<()> {
    let header = DumpHeader {
        records: timeline.len() as u64,
        dropped,
        ..DumpHeader::default()
    };
    write_dump(path, &header, timeline)
}

fn write_dump(path: &Path, header: &DumpHeader, timeline: &[FlightRecord]) -> std::io::Result<()> {
    let mut out = header_line(header);
    out.push('\n');
    for rec in timeline {
        out.push_str(&jsonl_line(rec));
        out.push('\n');
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Instant ("i") trace event: one per flight record, on the rank's
/// track. Serialized individually and joined by hand because the
/// vendored `serde_json` has no heterogeneous `Value` serializer.
#[derive(Serialize)]
struct InstantEvent {
    name: String,
    cat: String,
    ph: String,
    s: String,
    ts: f64,
    pid: u64,
    tid: u64,
    args: EventArgs,
}

/// Complete ("X") trace event: a slice spanning a measured duration.
#[derive(Serialize)]
struct CompleteEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: ClockArgs,
}

#[derive(Serialize)]
struct EventArgs {
    clock: u64,
    event: ProtoEvent,
}

#[derive(Serialize)]
struct ClockArgs {
    clock: u64,
}

/// Duration embedded in a completion event, if any: `(label, ns)`.
/// These become Chrome-trace `"X"` (complete) slices ending at the
/// record's timestamp.
fn embedded_duration(ev: &ProtoEvent) -> Option<(&'static str, u64)> {
    match ev {
        ProtoEvent::GateOpen { waited_ns, .. } if *waited_ns > 0 => Some(("gate-wait", *waited_ns)),
        ProtoEvent::ElAck { rtt_ns, .. } if *rtt_ns > 0 => Some(("el-ack-rtt", *rtt_ns)),
        ProtoEvent::CkptCommit { store_ns, .. } if *store_ns > 0 => Some(("ckpt-store", *store_ns)),
        ProtoEvent::ReplayDone { replay_ns, .. } if *replay_ns > 0 => Some(("replay", *replay_ns)),
        _ => None,
    }
}

/// Write the timeline in Chrome trace event format (load the file in
/// Perfetto / `chrome://tracing`). Every record becomes an instant
/// event on its rank's track; records carrying a measured duration
/// (gate open, EL ack, checkpoint commit, replay done) additionally
/// become complete (`"X"`) slices spanning that duration.
pub fn write_chrome_trace(path: &Path, timeline: &[FlightRecord]) -> std::io::Result<()> {
    let as_io =
        |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
    let mut events: Vec<String> = Vec::with_capacity(timeline.len());
    for rec in timeline {
        let ts_us = rec.ts_ns as f64 / 1000.0;
        events.push(
            serde_json::to_string(&InstantEvent {
                name: rec.event.kind().to_string(),
                cat: rec.event.phase().to_string(),
                ph: "i".to_string(),
                s: "t".to_string(),
                ts: ts_us,
                pid: rec.rank as u64,
                tid: 0,
                args: EventArgs {
                    clock: rec.clock,
                    event: rec.event.clone(),
                },
            })
            .map_err(as_io)?,
        );
        if let Some((label, ns)) = embedded_duration(&rec.event) {
            let dur_us = ns as f64 / 1000.0;
            events.push(
                serde_json::to_string(&CompleteEvent {
                    name: label.to_string(),
                    cat: rec.event.phase().to_string(),
                    ph: "X".to_string(),
                    ts: ts_us - dur_us,
                    dur: dur_us,
                    pid: rec.rank as u64,
                    tid: 1,
                    args: ClockArgs { clock: rec.clock },
                })
                .map_err(as_io)?,
            );
        }
    }
    let body = format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    );
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

/// Validate a merged timeline against the event schema:
///
/// 1. every record survives a bincode serialize/deserialize round-trip
///    unchanged (the schema is self-consistent);
/// 2. per rank, timestamps are non-decreasing;
/// 3. per rank, logical clocks are non-decreasing *except* across a
///    recovery boundary (`restart1` / `recovery-begin` / `respawn`
///    records legitimately reset the clock to the restored checkpoint).
///
/// Returns a description of the first violation.
pub fn validate_records(timeline: &[FlightRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    for rec in timeline {
        let enc = bincode::serialize(rec)
            .map_err(|e| format!("record failed to serialize: {e} ({rec:?})"))?;
        let dec: FlightRecord = bincode::deserialize(&enc)
            .map_err(|e| format!("record failed to deserialize: {e} ({rec:?})"))?;
        if dec != *rec {
            return Err(format!(
                "bincode round-trip changed record: {rec:?} -> {dec:?}"
            ));
        }
    }
    let mut last: HashMap<u32, (u64, u64)> = HashMap::new(); // rank -> (ts, clock)
    for rec in timeline {
        if let Some(&(ts, clock)) = last.get(&rec.rank) {
            if rec.ts_ns < ts {
                return Err(format!(
                    "rank {} timestamp went backwards: {} -> {} ({:?})",
                    rec.rank, ts, rec.ts_ns, rec.event
                ));
            }
            let recovery_boundary = matches!(
                rec.event,
                ProtoEvent::Restart1 { .. }
                    | ProtoEvent::RecoveryBegin { .. }
                    | ProtoEvent::RespawnScheduled { .. }
            );
            if rec.clock < clock && !recovery_boundary {
                return Err(format!(
                    "rank {} clock went backwards outside recovery: {} -> {} ({:?})",
                    rec.rank, clock, rec.clock, rec.event
                ));
            }
        }
        last.insert(rec.rank, (rec.ts_ns, rec.clock));
    }
    Ok(())
}

/// Rotation thresholds for a [`JsonlStreamSink`]. The sink starts a new
/// segment file whenever the active segment exceeds *either* limit
/// (0 = that limit unenforced). Default is no rotation — the historical
/// single-file behavior, and the only mode on the hot benchmark path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotateConfig {
    /// Start a new segment after this many records (0 = unlimited).
    pub max_records: u64,
    /// Start a new segment once this many bytes were written
    /// (0 = unlimited).
    pub max_bytes: u64,
}

struct StreamState {
    file: std::fs::File,
    /// Lines rendered but not yet handed to `write(2)`. Only non-empty
    /// in buffered mode (`flush_every > 1`).
    buf: String,
    pending: u32,
    /// Rotation bookkeeping. `base` is the segment-0 path; segment N>0
    /// lives at `{stem}.segN.jsonl` next to it.
    base: PathBuf,
    rotate: RotateConfig,
    seg: u32,
    seg_records: u64,
    seg_bytes: u64,
}

impl StreamState {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // A failed write only costs observability; never the run.
        let _ = self.file.write_all(self.buf.as_bytes());
        let _ = self.file.flush();
        self.buf.clear();
        self.pending = 0;
    }

    /// Close the active segment and open the next one. A failed
    /// rotation keeps streaming into the old file — observability
    /// degrades, the run does not.
    fn rotate_segment(&mut self) {
        self.flush();
        let stem = self
            .base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("stream");
        let next = format!("{stem}.seg{}.jsonl", self.seg + 1);
        if let Ok(f) = std::fs::File::create(self.base.with_file_name(next)) {
            self.file = f;
            self.seg += 1;
            self.seg_records = 0;
            self.seg_bytes = 0;
        }
    }
}

/// A [`RecordSink`](crate::monitor::RecordSink) that streams every
/// record to a JSONL file. Multi-process children attach one so their
/// timeline survives a `SIGKILL` — the ring buffer dies with the
/// process, the streamed file does not. The file carries no header
/// line; [`merge_dump_files`] supplies one when merging.
///
/// The default cadence writes each record out immediately (one
/// `write(2)` per record — what makes the stream SIGKILL-durable). A
/// buffered cadence (`flush_every > 1`) batches rendered lines and
/// writes every N records, on any [`ProtoEvent::Finish`], on an
/// explicit [`flush`](crate::monitor::RecordSink::flush), and on drop —
/// trading up to N−1 records of SIGKILL durability for N× fewer
/// syscalls on the recording thread.
/// With rotation enabled ([`with_rotation`](Self::with_rotation)), the
/// stream is cut into bounded segment files — `base.jsonl`,
/// `{stem}.seg1.jsonl`, `{stem}.seg2.jsonl`, … — so a week-long soak
/// never holds (or re-reads) one gigabyte file. Segment 0 keeps the
/// base name, so consumers of the unrotated layout keep working, and
/// every segment keeps the `.jsonl` extension, so [`merge_dump_files`]
/// input discovery picks rotated segments up unchanged.
pub struct JsonlStreamSink {
    flush_every: u32,
    state: parking_lot::Mutex<StreamState>,
}

impl JsonlStreamSink {
    /// Create (truncate) `path` and stream records into it, flushing
    /// per record (the durable default).
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Self::with_flush_every(path, 1)
    }

    /// Create (truncate) `path`, writing out every `flush_every`
    /// records (0 is treated as 1).
    pub fn with_flush_every(path: &Path, flush_every: u32) -> std::io::Result<Self> {
        Self::with_rotation(path, flush_every, RotateConfig::default())
    }

    /// Create (truncate) `path`, writing out every `flush_every`
    /// records and rotating to a new segment file whenever the active
    /// one exceeds a [`RotateConfig`] threshold.
    pub fn with_rotation(
        path: &Path,
        flush_every: u32,
        rotate: RotateConfig,
    ) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(JsonlStreamSink {
            flush_every: flush_every.max(1),
            state: parking_lot::Mutex::new(StreamState {
                file: std::fs::File::create(path)?,
                buf: String::new(),
                pending: 0,
                base: path.to_path_buf(),
                rotate,
                seg: 0,
                seg_records: 0,
                seg_bytes: 0,
            }),
        })
    }

    /// Segment files opened so far (1 while unrotated).
    pub fn segments(&self) -> u32 {
        self.state.lock().seg + 1
    }
}

impl crate::monitor::RecordSink for JsonlStreamSink {
    fn observe(&self, rec: &FlightRecord) {
        let line = jsonl_line(rec);
        let mut st = self.state.lock();
        st.buf.push_str(&line);
        st.buf.push('\n');
        st.pending += 1;
        st.seg_records += 1;
        st.seg_bytes += line.len() as u64 + 1;
        if st.pending >= self.flush_every || matches!(rec.event, ProtoEvent::Finish { .. }) {
            st.flush();
        }
        let r = st.rotate;
        if (r.max_records > 0 && st.seg_records >= r.max_records)
            || (r.max_bytes > 0 && st.seg_bytes >= r.max_bytes)
        {
            st.rotate_segment();
        }
    }

    fn flush(&self) {
        self.state.lock().flush();
    }
}

impl Drop for JsonlStreamSink {
    fn drop(&mut self) {
        self.state.lock().flush();
    }
}

/// Fan one record out to several sinks (e.g. the online invariant
/// monitor plus a [`JsonlStreamSink`]).
pub struct TeeSink(pub Vec<std::sync::Arc<dyn crate::monitor::RecordSink>>);

impl crate::monitor::RecordSink for TeeSink {
    fn observe(&self, rec: &FlightRecord) {
        for sink in &self.0 {
            sink.observe(rec);
        }
    }

    fn flush(&self) {
        for sink in &self.0 {
            sink.flush();
        }
    }
}

/// What [`merge_dump_files`] produced: the written artifacts, the
/// header counters, the skew estimate it applied, and first-divergence
/// triage over the corrected timeline.
#[derive(Clone, Debug)]
pub struct MergeSummary {
    /// The merged, skew-corrected JSONL timeline.
    pub jsonl: PathBuf,
    /// The Chrome-trace/Perfetto export of the merged timeline.
    pub trace: PathBuf,
    /// Records in the merged dump.
    pub records: u64,
    /// Summed drop count across the inputs.
    pub dropped: u64,
    /// The clock-skew estimate (tracks already applied to the output).
    pub skew: SkewEstimate,
    /// First-divergence triage over the corrected timeline.
    pub triage: Option<Triage>,
}

impl MergeSummary {
    /// Multi-line human summary for supervisor output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "merged dump: {} records ({} dropped)\n  timeline: {}\n  perfetto: {}\n  {}",
            self.records,
            self.dropped,
            self.jsonl.display(),
            self.trace.display(),
            self.skew.summary(),
        );
        if let Some(t) = &self.triage {
            s.push_str(&format!("\n  {t}"));
        }
        s
    }
}

/// Merge several JSONL dumps (with or without header lines) into one
/// timeline ordered by the hub comparator `(ts_ns, rank, clock,
/// kind_index)`. Inputs are parsed line-wise through a [`BufRead`], so
/// a long soak run's dumps are never all held as raw text at once.
/// Missing input files are skipped — a child killed before it wrote
/// anything contributes nothing, not an error.
///
/// Rotated stream segments are just more inputs: every `.jsonl`
/// segment of every process merges through the same path, headerless
/// files contributing only records.
///
/// Before writing, per-rank clock-offset tracks are estimated from the
/// timeline's causal edges ([`crate::estimate_skew`]) and applied, so
/// cross-process skew — constant *or* drifting — cannot render a
/// delivery before its send; the applied tracks land in the output
/// header, along with ranks whose offset is unconstrained by any
/// causal edge. Residual inversions (infeasible
/// clock model) are reported loudly in the summary, never hidden. A
/// Perfetto export of the corrected timeline is written next to the
/// JSONL.
pub fn merge_dump_files(inputs: &[PathBuf], output: &Path) -> std::io::Result<MergeSummary> {
    let mut all: Vec<FlightRecord> = Vec::new();
    let mut dropped = 0u64;
    for path in inputs {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let invalid = |e: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        };
        for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_line(i, line).map_err(invalid)? {
                Line::Header(h) => dropped += h.dropped,
                Line::Record(rec) => all.push(rec),
            }
        }
    }
    let skew = crate::skew::estimate_skew(&all);
    crate::skew::apply_track(&mut all, &skew.track);
    all.sort_by_key(|r| (r.ts_ns, r.rank, r.clock, r.event.kind_index()));
    if let Some(parent) = output.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let header = DumpHeader {
        records: all.len() as u64,
        dropped,
        track: skew.header_track(),
        unconstrained: skew.unconstrained.clone(),
    };
    write_dump(output, &header, &all)?;
    let trace = output.with_extension("trace.json");
    write_chrome_trace(&trace, &all)?;
    Ok(MergeSummary {
        jsonl: output.to_path_buf(),
        trace,
        records: all.len() as u64,
        dropped,
        skew,
        triage: triage(&all),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    fn send(to: u32, clock: u64, bytes: u64) -> ProtoEvent {
        ProtoEvent::Send {
            to,
            clock,
            bytes,
            disposition: crate::event::SendDisposition::Wire,
        }
    }

    #[test]
    fn validate_accepts_clean_timeline() {
        let tl = vec![
            rec(0, 1, 10, send(1, 1, 8)),
            rec(
                1,
                1,
                20,
                ProtoEvent::Deliver {
                    from: 0,
                    sender_clock: 1,
                    receiver_clock: 1,
                    replay: false,
                },
            ),
            rec(0, 2, 30, send(1, 2, 8)),
        ];
        assert!(validate_records(&tl).is_ok());
        assert!(triage(&tl).is_none());
    }

    #[test]
    fn validate_allows_clock_reset_at_recovery() {
        let tl = vec![
            rec(2, 9, 10, send(0, 9, 8)),
            rec(2, 0, 20, ProtoEvent::Restart1 { rank: 2 }),
            rec(2, 4, 30, ProtoEvent::RecoveryBegin { restored_clock: 4 }),
            rec(
                2,
                5,
                40,
                ProtoEvent::ReplayStep {
                    from: 0,
                    sender_clock: 9,
                    receiver_clock: 5,
                },
            ),
        ];
        assert!(validate_records(&tl).is_ok());
    }

    #[test]
    fn validate_rejects_backwards_clock() {
        let tl = vec![rec(0, 5, 10, send(1, 5, 8)), rec(0, 3, 20, send(1, 3, 8))];
        let err = validate_records(&tl).unwrap_err();
        assert!(err.contains("clock went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_backwards_timestamp() {
        let tl = vec![rec(0, 1, 20, send(1, 1, 8)), rec(0, 2, 10, send(1, 2, 8))];
        assert!(validate_records(&tl).unwrap_err().contains("timestamp"));
    }

    #[test]
    fn triage_prefers_divergence_over_kill() {
        let tl = vec![
            rec(
                3,
                0,
                10,
                ProtoEvent::ChaosKill {
                    victim: 3,
                    rekill: false,
                },
            ),
            rec(
                crate::event::DISPATCHER_RANK,
                0,
                50,
                ProtoEvent::Divergence {
                    detail: "rank 1 sum mismatch".into(),
                },
            ),
        ];
        let t = triage(&tl).unwrap();
        assert_eq!(t.kind, "divergence");
        assert_eq!(t.phase, "divergence");
        assert!(t.to_string().contains("harness"));
        // Without the divergence, the kill is the first anomaly.
        let t2 = triage(&tl[..1]).unwrap();
        assert_eq!(t2.kind, "chaos-kill");
        assert_eq!(t2.rank, 3);
    }

    #[test]
    fn dump_files_render() {
        let dir = std::env::temp_dir().join("mvr-obs-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tl = vec![
            rec(
                0,
                1,
                1000,
                ProtoEvent::GateDefer {
                    to: 1,
                    clock: 1,
                    queued: 1,
                },
            ),
            rec(
                0,
                1,
                5000,
                ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 4000,
                },
            ),
        ];
        let jsonl = dir.join("t.jsonl");
        let trace = dir.join("t.trace.json");
        write_jsonl(&jsonl, &tl, 3).unwrap();
        write_chrome_trace(&trace, &tl).unwrap();
        let body = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(body.lines().count(), 3);
        let mut lines = body.lines();
        assert_eq!(
            lines.next().unwrap(),
            header_line(&DumpHeader {
                records: 2,
                dropped: 3,
                ..DumpHeader::default()
            })
        );
        assert_eq!(lines.next().unwrap(), jsonl_line(&tl[0]));
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.contains("traceEvents"));
        assert!(tr.contains("\"ph\":\"X\""));
        assert!(tr.contains("gate-wait"));
    }

    #[test]
    fn stream_sink_and_merge_roundtrip() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("child-a.jsonl");
        let b_path = dir.join("child-b.jsonl");
        let a = JsonlStreamSink::create(&a_path).unwrap();
        let b = JsonlStreamSink::create(&b_path).unwrap();
        a.observe(&rec(0, 2, 300, send(1, 2, 8)));
        a.observe(&rec(0, 3, 900, ProtoEvent::Finish { clock: 3 }));
        b.observe(&rec(1, 1, 100, ProtoEvent::Restart1 { rank: 1 }));
        drop((a, b));
        let merged = dir.join("merged.jsonl");
        let summary =
            merge_dump_files(&[a_path, b_path, dir.join("never-written.jsonl")], &merged).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.dropped, 0);
        assert!(!summary.skew.is_correction());
        assert!(summary.trace.exists(), "{:?}", summary.trace);
        let (h, records) = parse_dump(&std::fs::read_to_string(&merged).unwrap()).unwrap();
        assert_eq!(
            h,
            Some(DumpHeader {
                records: 3,
                dropped: 0,
                track: Vec::new(),
                // The send was never delivered and rank 1 only restarted:
                // neither rank's clock is tied to the other by evidence,
                // and the header says so explicitly.
                unconstrained: vec![0, 1],
            })
        );
        let ts: Vec<u64> = records.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![100, 300, 900]);
        assert!(summary.summary().contains("merged dump: 3 records"));
    }

    #[test]
    fn merge_corrects_skewed_inputs_and_reports_offsets() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-merge-skew-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("skew-a.jsonl");
        let b_path = dir.join("skew-b.jsonl");
        let a = JsonlStreamSink::create(&a_path).unwrap();
        let b = JsonlStreamSink::create(&b_path).unwrap();
        // Rank 0 sends at t=6ms; rank 1 (clock 5ms behind) delivers at
        // an apparent t=2ms — an inversion the merge must repair.
        a.observe(&rec(0, 1, 6_000_000, send(1, 1, 8)));
        b.observe(&rec(
            1,
            1,
            2_000_000,
            ProtoEvent::Deliver {
                from: 0,
                sender_clock: 1,
                receiver_clock: 1,
                replay: false,
            },
        ));
        drop((a, b));
        let merged = dir.join("merged.jsonl");
        let summary = merge_dump_files(&[a_path, b_path], &merged).unwrap();
        assert_eq!(summary.skew.inversions_before, 1);
        assert_eq!(summary.skew.inversions_after, 0);
        let body = std::fs::read_to_string(&merged).unwrap();
        let (h, records) = parse_dump(&body).unwrap();
        let h = h.expect("header");
        // A constant skew is a one-anchor track.
        assert_eq!(h.track.len(), 1);
        assert_eq!(h.track[0].rank, 1);
        assert_eq!(h.track[0].anchors, vec![4_000_000]);
        // Corrected order: send strictly precedes deliver.
        assert_eq!(records[0].rank, 0);
        assert_eq!(records[1].ts_ns, 6_000_000);
        assert_eq!(crate::skew::count_inversions(&records), 0);
    }

    #[test]
    fn buffered_stream_sink_flushes_on_cadence_finish_and_drop() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-buffered-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buffered.jsonl");
        let sink = JsonlStreamSink::with_flush_every(&path, 3).unwrap();
        sink.observe(&rec(0, 1, 10, send(1, 1, 8)));
        sink.observe(&rec(0, 2, 20, send(1, 2, 8)));
        // Below the cadence: nothing written out yet.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        sink.observe(&rec(0, 3, 30, send(1, 3, 8)));
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        // A Finish flushes early regardless of cadence.
        sink.observe(&rec(0, 4, 40, ProtoEvent::Finish { clock: 4 }));
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 4);
        // Explicit flush and drop cover partial batches.
        sink.observe(&rec(0, 5, 50, send(1, 5, 8)));
        sink.flush();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 5);
        sink.observe(&rec(0, 6, 60, send(1, 6, 8)));
        drop(sink);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 6);
        let (_, records) = parse_dump(&body).unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn rotation_cuts_segments_and_merge_consumes_them_all() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-rotate-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("cn0-i0.jsonl");
        let sink = JsonlStreamSink::with_rotation(
            &base,
            1,
            RotateConfig {
                max_records: 4,
                max_bytes: 0,
            },
        )
        .unwrap();
        for i in 0..10u64 {
            sink.observe(&rec(0, i + 1, (i + 1) * 100, send(1, i + 1, 8)));
        }
        assert_eq!(sink.segments(), 3); // 4 + 4 + 2 records
        drop(sink);
        // Segment 0 keeps the base name; later segments sit next to it.
        assert!(base.exists());
        let seg1 = dir.join("cn0-i0.seg1.jsonl");
        let seg2 = dir.join("cn0-i0.seg2.jsonl");
        assert!(seg1.exists() && seg2.exists());
        assert_eq!(
            std::fs::read_to_string(&base).unwrap().lines().count(),
            4,
            "segment 0 capped at max_records"
        );
        // Merging the segments restores the full, ordered timeline.
        let merged = dir.join("merged.jsonl");
        let summary = merge_dump_files(&[base, seg1, seg2], &merged).unwrap();
        assert_eq!(summary.records, 10);
        let (_, records) = parse_dump(&std::fs::read_to_string(&merged).unwrap()).unwrap();
        let clocks: Vec<u64> = records.iter().map(|r| r.clock).collect();
        assert_eq!(clocks, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn rotation_by_bytes_rotates_once_threshold_is_crossed() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-rotate-bytes-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("s.jsonl");
        let sink = JsonlStreamSink::with_rotation(
            &base,
            1,
            RotateConfig {
                max_records: 0,
                max_bytes: 200,
            },
        )
        .unwrap();
        let line_len = jsonl_line(&rec(0, 1, 100, send(1, 1, 8))).len() as u64 + 1;
        let per_seg = 200u64.div_ceil(line_len).max(1);
        for i in 0..3 * per_seg {
            sink.observe(&rec(0, i + 1, (i + 1) * 10, send(1, i + 1, 8)));
        }
        assert!(sink.segments() >= 3, "segments: {}", sink.segments());
        drop(sink);
        let seg1 = dir.join("s.seg1.jsonl");
        assert!(seg1.exists());
        assert!(
            std::fs::metadata(&base).unwrap().len() >= 200,
            "rotates after crossing the byte threshold, not before"
        );
    }

    #[test]
    fn merge_applies_piecewise_track_for_drifting_inputs() {
        use crate::monitor::RecordSink;
        let dir = std::env::temp_dir().join("mvr-obs-merge-drift-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("drift-a.jsonl");
        let b_path = dir.join("drift-b.jsonl");
        let a = JsonlStreamSink::create(&a_path).unwrap();
        let b = JsonlStreamSink::create(&b_path).unwrap();
        // Rank 1's clock runs 2% slow; bidirectional traffic every 1ms
        // over 150ms. No constant offset explains both directions.
        let slow = |t: u64| t - t / 50;
        let delta = 100_000u64;
        for i in 0..150u64 {
            let t = 1_000_000 + i * 1_000_000;
            a.observe(&rec(0, 2 * i + 1, t, send(1, 2 * i + 1, 8)));
            b.observe(&rec(
                1,
                2 * i + 1,
                slow(t + delta),
                ProtoEvent::Deliver {
                    from: 0,
                    sender_clock: 2 * i + 1,
                    receiver_clock: 2 * i + 1,
                    replay: false,
                },
            ));
            let t2 = t + 500_000;
            b.observe(&rec(1, 2 * i + 2, slow(t2), send(0, 2 * i + 2, 8)));
            a.observe(&rec(
                0,
                2 * i + 2,
                t2 + delta,
                ProtoEvent::Deliver {
                    from: 1,
                    sender_clock: 2 * i + 2,
                    receiver_clock: 2 * i + 2,
                    replay: false,
                },
            ));
        }
        drop((a, b));
        let merged = dir.join("merged.jsonl");
        let summary = merge_dump_files(&[a_path, b_path], &merged).unwrap();
        assert!(summary.skew.inversions_before >= 1);
        assert_eq!(summary.skew.inversions_after, 0, "{}", summary.summary());
        assert!(!summary.skew.track.is_empty());
        let body = std::fs::read_to_string(&merged).unwrap();
        let (h, records) = parse_dump(&body).unwrap();
        let h = h.expect("header");
        assert!(h.track.iter().any(|t| t.rank == 1 && t.anchors.len() >= 3));
        assert_eq!(crate::skew::count_inversions(&records), 0);
        assert!(validate_records(&records).is_ok());
        assert!(
            summary.summary().contains("drift +"),
            "{}",
            summary.summary()
        );
    }

    #[test]
    fn summary_warns_loudly_on_drops() {
        let paths = DumpPaths {
            jsonl: PathBuf::from("/tmp/x.jsonl"),
            trace: PathBuf::from("/tmp/x.trace.json"),
            records: 10,
            dropped: 0,
            triage: None,
        };
        assert!(!paths.summary().contains("WARNING"));
        let truncated = DumpPaths {
            dropped: 7,
            ..paths
        };
        let s = truncated.summary();
        assert!(s.contains("WARNING"), "{s}");
        assert!(s.contains("7 record(s) lost"), "{s}");
    }

    // ---- the reader: derived types through `serde_json::from_str` ----

    use crate::diff::RunProfile;
    use crate::event::arbitrary;
    use crate::hist::HistSummary;
    use crate::timings::TimingSummary;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn every_event_kind_roundtrips_through_the_writer() {
        let mut rng = TestRng::deterministic();
        for _ in 0..32 {
            for rec in arbitrary::one_of_each_kind(&mut rng) {
                let line = jsonl_line(&rec);
                let back = parse_record_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(back, rec, "{line}");
                let pretty = serde_json::to_string_pretty(&rec).unwrap();
                assert_eq!(parse_record_line(&pretty), Ok(rec), "{pretty}");
            }
        }
    }

    #[test]
    fn integer_extremes_roundtrip() {
        let rec = rec(
            u32::MAX,
            u64::MAX,
            u64::MAX,
            ProtoEvent::Finish { clock: 0 },
        );
        assert_eq!(parse_record_line(&jsonl_line(&rec)), Ok(rec));
        let hdr = DumpHeader {
            records: u64::MAX,
            dropped: 0,
            track: vec![RankTrack {
                rank: 0,
                start_ns: u64::MAX,
                seg_ns: 1,
                anchors: vec![i64::MIN, -1, 0, i64::MAX],
            }],
            unconstrained: vec![u32::MAX],
        };
        assert_eq!(parse_header_line(&header_line(&hdr)), Some(hdr));
    }

    fn arb_header() -> impl Strategy<Value = DumpHeader> {
        let track = (
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            collection::vec(i64::MIN..i64::MAX, 0..6),
        )
            .prop_map(|(rank, start_ns, seg_ns, anchors)| RankTrack {
                rank,
                start_ns,
                seg_ns,
                anchors,
            });
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            collection::vec(track, 0..4),
            collection::vec(0u32..=u32::MAX, 0..4),
        )
            .prop_map(|(records, dropped, track, unconstrained)| DumpHeader {
                records,
                dropped,
                track,
                unconstrained,
            })
    }

    fn arb_profile() -> impl Strategy<Value = RunProfile> {
        let hist = collection::vec(0u64..=u64::MAX, 7).prop_map(|v| HistSummary {
            count: v[0],
            sum: v[1],
            min: v[2],
            max: v[3],
            p50: v[4],
            p90: v[5],
            p99: v[6],
        });
        let counters = || {
            collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..6).prop_map(|pairs| {
                let mut rng = TestRng::deterministic();
                pairs
                    .into_iter()
                    .map(|(k, v)| (format!("{k}-{}", arbitrary::text(&mut rng)), v))
                    .collect::<std::collections::BTreeMap<String, u64>>()
            })
        };
        (
            collection::vec(hist, 4),
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            counters(),
            counters(),
        )
            .prop_map(
                |(h, records, critical_total_ns, critical, events)| RunProfile {
                    records,
                    timings: TimingSummary {
                        gate_wait: h[0],
                        el_ack_rtt: h[1],
                        ckpt_store: h[2],
                        replay: h[3],
                    },
                    critical_total_ns,
                    critical,
                    events,
                },
            )
    }

    proptest! {
        #[test]
        fn generated_headers_roundtrip(hdr in arb_header()) {
            let line = header_line(&hdr);
            prop_assert_eq!(parse_header_line(&line), Some(hdr), "{}", line);
        }

        #[test]
        fn generated_profiles_roundtrip_compact_and_pretty(p in arb_profile()) {
            prop_assert_eq!(RunProfile::parse(&p.to_json()).as_ref(), Ok(&p));
            let compact = serde_json::to_string(&p).unwrap();
            prop_assert_eq!(RunProfile::parse(&compact), Ok(p));
        }
    }

    /// Every prefix of `line` and every single-byte substitution must
    /// come back as `Err` or as some value — never a panic.
    fn mangle(line: &str, parse: impl Fn(&str)) {
        for end in 0..line.len() {
            if line.is_char_boundary(end) {
                parse(&line[..end]);
            }
        }
        let mut bytes = line.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in [
                b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'-', b'.', b'0', b'u', b' ',
            ] {
                bytes[i] = b;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    parse(text);
                }
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn truncated_and_corrupted_lines_never_panic() {
        let mut rng = TestRng::deterministic();
        for rec in arbitrary::one_of_each_kind(&mut rng) {
            mangle(&jsonl_line(&rec), |text| {
                let _ = parse_record_line(text);
                let _ = parse_dump(text);
            });
        }
        let hdr = arb_header().generate(&mut rng);
        mangle(&header_line(&hdr), |text| {
            let _ = parse_header_line(text);
        });
        let profile = arb_profile().generate(&mut rng);
        mangle(&serde_json::to_string(&profile).unwrap(), |text| {
            let _ = RunProfile::parse(text);
        });
    }

    #[test]
    fn a_truncated_record_line_is_an_error() {
        let line = jsonl_line(&rec(1, 2, 3, send(0, 2, 8)));
        for end in 0..line.len() {
            assert!(parse_record_line(&line[..end]).is_err(), "{}", &line[..end]);
        }
    }

    #[test]
    fn floats_and_unknown_event_tags_are_errors_naming_the_offender() {
        let err =
            parse_record_line(r#"{"rank":0,"clock":1,"ts_ns":1.5,"event":{"Finish":{"clock":1}}}"#)
                .unwrap_err();
        assert!(err.contains("`1.5` is not a 64-bit integer"), "{err}");
        let err =
            parse_record_line(r#"{"rank":0,"clock":1,"ts_ns":1,"event":{"Teleport":{"clock":1}}}"#)
                .unwrap_err();
        assert!(
            err.contains("unknown variant `Teleport` of ProtoEvent"),
            "{err}"
        );
        let err = parse_record_line(r#"{"rank":0,"clock":1,"ts_ns":1,"event":{"Finish":{}}}"#)
            .unwrap_err();
        assert!(err.contains("missing field `clock`"), "{err}");
        let err = parse_dump("{\"header\":{\"records\":0,\"dropped\":0}}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn dump_with_header_parses() {
        let rec = rec(0, 1, 10, ProtoEvent::Finish { clock: 1 });
        let hdr = DumpHeader {
            records: 1,
            dropped: 2,
            ..DumpHeader::default()
        };
        let text = format!("{}\n{}\n", header_line(&hdr), jsonl_line(&rec));
        assert_eq!(parse_dump(&text), Ok((Some(hdr), vec![rec])));
    }

    #[test]
    fn headerless_dump_still_parses() {
        let rec = rec(0, 1, 10, ProtoEvent::Restart1 { rank: 0 });
        let text = format!("{}\n", jsonl_line(&rec));
        assert_eq!(parse_dump(&text), Ok((None, vec![rec])));
    }

    #[test]
    fn headers_written_by_earlier_builds_still_parse() {
        // Before the piecewise track existed: constant `offsets`, no
        // `track` / `unconstrained` keys. The offsets were applied to
        // the body when it was written, so ignoring them loses nothing.
        let line = r#"{"header":{"records":5,"dropped":1,"offsets":[{"rank":2,"offset_ns":300}]}}"#;
        assert_eq!(
            parse_header_line(line),
            Some(DumpHeader {
                records: 5,
                dropped: 1,
                ..DumpHeader::default()
            })
        );
        // The parent commit's shape: all three lists present.
        let line = r#"{"header":{"records":7,"dropped":0,"offsets":[],"track":[{"rank":1,"start_ns":1000000,"seg_ns":250000,"anchors":[0,5000,-20,11000]}],"unconstrained":[3,9]}}"#;
        let h = parse_header_line(line).expect("parent-format header parses");
        assert_eq!(h.track[0].anchors, vec![0, 5_000, -20, 11_000]);
        assert_eq!(h.unconstrained, vec![3, 9]);
        // The original header: counters only.
        let h = parse_header_line(r#"{"header":{"records":2,"dropped":0}}"#).expect("parses");
        assert_eq!((h.records, h.track.len()), (2, 0));
    }
}
