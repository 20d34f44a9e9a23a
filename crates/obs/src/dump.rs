//! The dump format and everything a tool does with a dump: the JSONL
//! renderer and reader, the per-incarnation stream sink and the one
//! merge of a run directory's streams, schema validation,
//! first-divergence triage and the one strict [`audit`].
//!
//! The dump format is what `#[derive(Serialize, Deserialize)]` on
//! [`FlightRecord`] and [`DumpHeader`] says it is: a header line, then
//! one JSON object per record line, rendered by [`render_dump`] with
//! `serde_json::to_string` and read back with `serde_json::from_str`.
//! The readers here ([`parse_record_line`], [`read_dump`]) add only
//! what a JSONL file needs on top — header-or-record detection on
//! line 1 and `line N:` error context. A dump is JSONL only; its
//! Perfetto picture is drawn from it by `obs_analyze`
//! ([`write_trace`](crate::write_trace)).

use crate::event::{FlightRecord, ProtoEvent};
use crate::monitor::{InvariantMonitor, Violation};
use crate::skew::{RankTrack, SkewEstimate};
use crate::span::SpanSet;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// A written dump: where the JSONL landed, the header written at its
/// top, the clock correction the merge applied, and first-divergence
/// triage. [`merge_streams`] returns one.
#[derive(Clone, Debug)]
pub struct Dump {
    /// The clock-ordered JSONL timeline.
    pub jsonl: PathBuf,
    /// The header line: record count, applied clock tracks.
    pub header: DumpHeader,
    /// The clock-skew estimate the merge applied; `None` for a dump
    /// written straight from one timeline.
    pub skew: Option<SkewEstimate>,
    /// First-divergence triage, if the timeline contains an anomaly.
    pub triage: Option<Triage>,
}

impl Dump {
    /// Write `timeline` under `header` to `path` (parent directories
    /// created) as [`render_dump`] renders it, a line at a time.
    pub fn write(
        path: &Path,
        header: DumpHeader,
        timeline: &[FlightRecord],
    ) -> std::io::Result<Dump> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header_line(&header))?;
        for rec in timeline {
            writeln!(out, "{}", jsonl_line(rec))?;
        }
        out.flush()?;
        Ok(Dump {
            jsonl: path.to_path_buf(),
            header,
            skew: None,
            triage: triage(timeline),
        })
    }

    /// Triage note naming the dump and, when present, the clock
    /// correction a merge applied and the rank and protocol phase of
    /// the first divergence.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "flight recorder: {} records\n  timeline: {}",
            self.header.records,
            self.jsonl.display(),
        );
        if let Some(skew) = &self.skew {
            s.push_str(&format!("\n  {}", skew.summary()));
        }
        match &self.triage {
            Some(t) => s.push_str(&format!("\n  {t}")),
            None => s.push_str("\n  no anomaly recorded in timeline"),
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
fn triage(timeline: &[FlightRecord]) -> Option<Triage> {
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
fn jsonl_line(rec: &FlightRecord) -> String {
    serde_json::to_string(rec).expect("FlightRecord serializes to JSON")
}

/// Metadata carried by the first line of a JSONL dump: what the body
/// holds and the clock correction the merge applied to it. A stream has
/// no header line, which is how [`merge_streams`] tells the two apart.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpHeader {
    /// Records in the dump body (lines after the header).
    pub records: u64,
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
/// `{"header":{"records":N,"track":[...],"unconstrained":[...]}}`.
fn header_line(header: &DumpHeader) -> String {
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
/// to the body, and whose `dropped` counted ring-wraparound losses)
/// still load.
fn parse_header_line(line: &str) -> Option<DumpHeader> {
    serde_json::from_str::<HeaderLine>(line)
        .ok()
        .map(|h| h.header)
}

/// Read and decode a dump file; errors name the file.
pub fn read_dump(path: &Path) -> Result<(Option<DumpHeader>, Vec<FlightRecord>), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    decode(std::io::BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// The one dump reader, line by line, so a long soak run's dumps are
/// never held as raw text: line 0 is the header if it reads as one,
/// every other non-blank line a record.
fn decode(reader: impl BufRead) -> Result<(Option<DumpHeader>, Vec<FlightRecord>), String> {
    let mut header = None;
    let mut records = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            if let Some(h) = parse_header_line(line) {
                header = Some(h);
                continue;
            }
        }
        let rec = parse_record_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(rec);
    }
    Ok((header, records))
}

/// Render a dump: the header line, then one record per line, each
/// newline-terminated. Every dump file is exactly this string.
pub fn render_dump(header: &DumpHeader, timeline: &[FlightRecord]) -> String {
    let mut out = header_line(header);
    out.push('\n');
    for rec in timeline {
        out.push_str(&jsonl_line(rec));
        out.push('\n');
    }
    out
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

/// What the strict [`audit`] of a well-formed dump found.
#[derive(Debug)]
pub struct Audit {
    /// The per-message spans the orphan check stitched.
    pub spans: SpanSet,
    /// Records the invariant monitor replayed.
    pub audited: u64,
    /// The first invariant violation the replay found.
    pub violation: Option<Violation>,
    /// The strict findings, in check order: orphan span edges, an
    /// invariant violation. Empty on a clean dump.
    pub findings: Vec<String>,
}

/// The one strict audit of a dump — what `obs_analyze --strict`,
/// `proc_smoke` and the deployment tests all call:
///
/// 1. the header's record count matches the body;
/// 2. the records pass [`validate_records`];
/// 3. every span closes ([`SpanSet::build`] finds no orphan edge);
/// 4. an [`InvariantMonitor`] replays the timeline without a violation.
///
/// A dump failing 1 or 2 is malformed: `Err` names the first failure.
/// Checks 3 and 4 are the strict findings of the returned [`Audit`]. A
/// headerless dump skips 1.
pub fn audit(header: Option<&DumpHeader>, timeline: &[FlightRecord]) -> Result<Audit, String> {
    let mut findings = Vec::new();
    if let Some(h) = header {
        if h.records != timeline.len() as u64 {
            return Err(format!(
                "header claims {} records, dump body has {}",
                h.records,
                timeline.len()
            ));
        }
    }
    validate_records(timeline).map_err(|e| format!("schema validation: {e}"))?;
    let spans = SpanSet::build(timeline);
    if !spans.orphans.is_empty() {
        findings.push(format!("{} orphan edge(s)", spans.orphans.len()));
    }
    let monitor = InvariantMonitor::new();
    monitor.observe_all(timeline);
    let violation = monitor.violation();
    if let Some(v) = &violation {
        findings.push(format!("invariant `{}` violated", v.invariant));
    }
    Ok(Audit {
        spans,
        audited: monitor.records_seen(),
        violation,
        findings,
    })
}

/// Rotation thresholds for the streams of a
/// [`RecorderHub::streaming`](crate::RecorderHub::streaming) hub. A
/// stream starts a new segment file whenever the active segment exceeds
/// *either* limit (0 = that limit unenforced). Default is no rotation:
/// one file per stream.
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
    /// Rotation bookkeeping. `base` is the segment-0 path; segment N>0
    /// lives at `{stem}.segN.jsonl` next to it.
    base: PathBuf,
    rotate: RotateConfig,
    seg: u32,
    seg_records: u64,
    seg_bytes: u64,
}

impl StreamState {
    /// Close the active segment and open the next one. A failed
    /// rotation keeps streaming into the old file — observability
    /// degrades, the run does not.
    fn rotate_segment(&mut self) {
        let stem = self
            .base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("stream");
        let next = format!("{stem}.seg{}.jsonl", self.seg + 1);
        if let Ok(f) = append(&self.base.with_file_name(next)) {
            self.file = f;
            self.seg += 1;
            self.seg_records = 0;
            self.seg_bytes = 0;
        }
    }
}

/// Open `path` for appending, creating it if missing.
fn append(path: &Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
}

/// A [`RecordSink`](crate::monitor::RecordSink) that streams every
/// record to a JSONL file: what a streaming
/// [`RecorderHub`](crate::RecorderHub) gives each recorder, in process
/// and in every child process alike, so a timeline is never held in
/// memory and survives a `SIGKILL`. The file carries no header line;
/// [`merge_streams`] supplies one when merging.
///
/// Each record is written out as it is observed, one `write(2)` per
/// record — what makes the stream SIGKILL-durable: a kill can cut the
/// stream short, but never leaves a record buffered in the process.
/// With rotation enabled, the stream is cut into bounded segment files
/// — `base.jsonl`, `{stem}.seg1.jsonl`, `{stem}.seg2.jsonl`, … — so a
/// week-long soak never holds (or re-reads) one gigabyte file. Segment 0
/// keeps the base name, and every segment keeps the `.jsonl` extension,
/// so [`merge_streams`] picks rotated segments up as more streams.
pub(crate) struct JsonlStreamSink {
    state: parking_lot::Mutex<StreamState>,
}

impl JsonlStreamSink {
    /// Stream records into `path`, appending to what is there, and
    /// rotate to a new segment file whenever the active one exceeds a
    /// [`RotateConfig`] threshold. A launch clears its directory's old
    /// streams first ([`clear_streams`]), so a stream name reopened
    /// within a run continues its stream.
    pub(crate) fn open(path: &Path, rotate: RotateConfig) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(JsonlStreamSink {
            state: parking_lot::Mutex::new(StreamState {
                file: append(path)?,
                base: path.to_path_buf(),
                rotate,
                seg: 0,
                seg_records: 0,
                seg_bytes: 0,
            }),
        })
    }
}

impl crate::monitor::RecordSink for JsonlStreamSink {
    fn observe(&self, rec: &FlightRecord) {
        let mut line = jsonl_line(rec);
        line.push('\n');
        let mut st = self.state.lock();
        // A failed write only costs observability; never the run.
        let _ = st.file.write_all(line.as_bytes());
        st.seg_records += 1;
        st.seg_bytes += line.len() as u64;
        let r = st.rotate;
        if (r.max_records > 0 && st.seg_records >= r.max_records)
            || (r.max_bytes > 0 && st.seg_bytes >= r.max_bytes)
        {
            st.rotate_segment();
        }
    }
}

/// Fan one record out to several sinks (e.g. the online invariant
/// monitor plus a [`JsonlStreamSink`]).
pub(crate) struct TeeSink(pub(crate) Vec<std::sync::Arc<dyn crate::monitor::RecordSink>>);

impl crate::monitor::RecordSink for TeeSink {
    fn observe(&self, rec: &FlightRecord) {
        for sink in &self.0 {
            sink.observe(rec);
        }
    }
}

/// The streams in `dir`: every `.jsonl` file without a header line
/// (merge outputs have one), rotated segments after their base in
/// segment order. A missing directory holds none.
fn stream_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut streams = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "jsonl") && !has_header(&path)? {
            streams.push(path);
        }
    }
    streams.sort_by_cached_key(|p| stream_order(p));
    Ok(streams)
}

/// Does the file's first line read as a dump header?
fn has_header(path: &Path) -> std::io::Result<bool> {
    let mut first = String::new();
    std::io::BufReader::new(std::fs::File::open(path)?).read_line(&mut first)?;
    Ok(parse_header_line(first.trim()).is_some())
}

/// Sort key of a stream file: its stream name, then its segment number
/// (`cn1-i0.seg10.jsonl` after `cn1-i0.seg9.jsonl`).
fn stream_order(path: &Path) -> (String, u64) {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    match stem.rsplit_once(".seg").map(|(name, n)| (name, n.parse())) {
        Some((name, Ok(seg))) => (name.to_string(), seg),
        _ => (stem.to_string(), 0),
    }
}

/// Delete the streams an earlier run left in `dir` (creating `dir` if
/// missing), so that a merge of this run's directory reads this run's
/// streams only. Merge outputs stay.
pub fn clear_streams(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for stream in stream_files(dir)? {
        std::fs::remove_file(stream)?;
    }
    Ok(())
}

/// The one merge: every stream in `dir` (every `.jsonl` file without a
/// header line, rotated segments in segment order) into one
/// clock-ordered dump at `dir/<tag>.jsonl` — `merged` for a completed
/// run, `crash` for a failed one, a harness's own tag for its dumps.
/// Both launchers and every harness write their dumps through it.
///
/// The order is `(ts_ns, rank)`, and the sort is stable over the
/// streams read in order, so records of one rank sharing a timestamp
/// keep the order their stream holds them in, as
/// [`RecorderHub::timeline`](crate::RecorderHub::timeline) keeps
/// recording order. Streams are decoded line-wise, so a long soak run's
/// streams are never held as raw text.
///
/// Before writing, per-rank clock-offset tracks are estimated from the
/// timeline's causal edges ([`crate::estimate_skew`]) and applied, so
/// cross-process skew — constant *or* drifting — cannot render a
/// delivery before its send; the applied tracks land in the output
/// header, along with ranks whose offset is unconstrained by any
/// causal edge. Residual inversions (infeasible clock model) are
/// reported loudly in the summary, never hidden.
pub fn merge_streams(dir: &Path, tag: &str) -> std::io::Result<Dump> {
    let mut all: Vec<FlightRecord> = Vec::new();
    for path in stream_files(dir)? {
        let file = std::fs::File::open(&path)?;
        let (_, records) = decode(std::io::BufReader::new(file)).map_err(|e| {
            let detail = format!("{}: {e}", path.display());
            std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
        })?;
        all.extend(records);
    }
    let skew = crate::skew::estimate_skew(&all);
    crate::skew::apply_track(&mut all, &skew.track);
    all.sort_by_key(|r| (r.ts_ns, r.rank));
    let header = DumpHeader {
        records: all.len() as u64,
        track: skew.header_track(),
        unconstrained: skew.unconstrained.clone(),
    };
    Ok(Dump {
        skew: Some(skew),
        ..Dump::write(&dir.join(format!("{tag}.jsonl")), header, &all)?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_dump(text: &str) -> Result<(Option<DumpHeader>, Vec<FlightRecord>), String> {
        decode(text.as_bytes())
    }

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

    /// An empty scratch directory for one test.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stream(path: &Path) -> JsonlStreamSink {
        JsonlStreamSink::open(path, RotateConfig::default()).unwrap()
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
        let header = DumpHeader {
            records: 2,
            ..DumpHeader::default()
        };
        let dump = Dump::write(&jsonl, header.clone(), &tl).unwrap();
        assert_eq!(dump.header, header);
        let body = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(body, render_dump(&header, &tl));
        assert_eq!(body.lines().count(), 3);
        let mut lines = body.lines();
        assert_eq!(lines.next().unwrap(), header_line(&header));
        assert_eq!(lines.next().unwrap(), jsonl_line(&tl[0]));
        assert_eq!(parse_dump(&body), Ok((Some(header), tl)));
    }

    #[test]
    fn stream_sink_and_merge_roundtrip() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-merge-test");
        let a = stream(&dir.join("child-a.jsonl"));
        let b = stream(&dir.join("child-b.jsonl"));
        a.observe(&rec(0, 2, 300, send(1, 2, 8)));
        a.observe(&rec(0, 3, 900, ProtoEvent::Finish { clock: 3 }));
        b.observe(&rec(1, 1, 100, ProtoEvent::Restart1 { rank: 1 }));
        drop((a, b));
        let summary = merge_streams(&dir, "merged").unwrap();
        assert_eq!(summary.header.records, 3);
        assert!(!summary.skew.as_ref().unwrap().is_correction());
        let merged = dir.join("merged.jsonl");
        assert_eq!(summary.jsonl, merged);
        let (h, records) = parse_dump(&std::fs::read_to_string(&merged).unwrap()).unwrap();
        assert_eq!(
            h,
            Some(DumpHeader {
                records: 3,
                track: Vec::new(),
                // The send was never delivered and rank 1 only restarted:
                // neither rank's clock is tied to the other by evidence,
                // and the header says so explicitly.
                unconstrained: vec![0, 1],
            })
        );
        let ts: Vec<u64> = records.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![100, 300, 900]);
        assert!(summary.summary().contains("flight recorder: 3 records"));
        assert!(summary.summary().contains("clock skew: none detected"));
        // The dump has a header, so it is no stream: merging again reads
        // the same two streams, and clearing them leaves the dumps.
        assert_eq!(merge_streams(&dir, "again").unwrap().header.records, 3);
        clear_streams(&dir).unwrap();
        assert_eq!(stream_files(&dir).unwrap(), Vec::<PathBuf>::new());
        assert!(merged.exists() && dir.join("again.jsonl").exists());
        assert_eq!(merge_streams(&dir, "empty").unwrap().header.records, 0);
    }

    #[test]
    fn merge_keeps_stream_order_at_equal_timestamps() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-merge-order-test");
        let a = stream(&dir.join("cn1-i0.jsonl"));
        // One instant: the ack, then the gate opening it causes, then
        // the send it releases — the order the engine recorded them in.
        let ack = ProtoEvent::ElAck {
            up_to: 3,
            batches_retired: 1,
            rtt_ns: 7,
        };
        let open = ProtoEvent::GateOpen {
            released: 1,
            waited_ns: 7,
        };
        a.observe(&rec(1, 3, 500, ack));
        a.observe(&rec(1, 3, 500, open));
        a.observe(&rec(1, 4, 500, send(0, 4, 8)));
        drop(a);
        let (_, records) = read_dump(&merge_streams(&dir, "merged").unwrap().jsonl).unwrap();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["el-ack", "gate-open", "send"]);
    }

    #[test]
    fn segments_merge_in_segment_order() {
        let names = [
            "a.seg10.jsonl",
            "a.jsonl",
            "a.seg9.jsonl",
            "b.jsonl",
            "a.seg1.jsonl",
        ];
        let mut paths: Vec<PathBuf> = names.iter().map(PathBuf::from).collect();
        paths.sort_by_cached_key(|p| stream_order(p));
        let order: Vec<&str> = paths.iter().map(|p| p.to_str().unwrap()).collect();
        assert_eq!(
            order,
            [
                "a.jsonl",
                "a.seg1.jsonl",
                "a.seg9.jsonl",
                "a.seg10.jsonl",
                "b.jsonl"
            ]
        );
    }

    #[test]
    fn merge_corrects_skewed_inputs_and_reports_offsets() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-merge-skew-test");
        let a = stream(&dir.join("skew-a.jsonl"));
        let b = stream(&dir.join("skew-b.jsonl"));
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
        let summary = merge_streams(&dir, "merged").unwrap();
        let skew = summary.skew.unwrap();
        assert_eq!(skew.inversions_before, 1);
        assert_eq!(skew.inversions_after, 0);
        let body = std::fs::read_to_string(&summary.jsonl).unwrap();
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
    fn rotation_cuts_segments_and_merge_consumes_them_all() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-rotate-test");
        let base = dir.join("cn0-i0.jsonl");
        let sink = JsonlStreamSink::open(
            &base,
            RotateConfig {
                max_records: 4,
                max_bytes: 0,
            },
        )
        .unwrap();
        for i in 0..10u64 {
            sink.observe(&rec(0, i + 1, (i + 1) * 100, send(1, i + 1, 8)));
        }
        drop(sink);
        // Segment 0 keeps the base name; later segments sit next to it:
        // 4 + 4 + 2 records.
        assert!(base.exists());
        let seg1 = dir.join("cn0-i0.seg1.jsonl");
        let seg2 = dir.join("cn0-i0.seg2.jsonl");
        assert!(seg1.exists() && seg2.exists());
        assert!(!dir.join("cn0-i0.seg3.jsonl").exists());
        assert_eq!(
            std::fs::read_to_string(&base).unwrap().lines().count(),
            4,
            "segment 0 capped at max_records"
        );
        // Merging the segments restores the full, ordered timeline.
        let summary = merge_streams(&dir, "merged").unwrap();
        assert_eq!(summary.header.records, 10);
        let (_, records) = read_dump(&summary.jsonl).unwrap();
        let clocks: Vec<u64> = records.iter().map(|r| r.clock).collect();
        assert_eq!(clocks, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn rotation_by_bytes_rotates_once_threshold_is_crossed() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-rotate-bytes-test");
        let base = dir.join("s.jsonl");
        let sink = JsonlStreamSink::open(
            &base,
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
        drop(sink);
        let seg1 = dir.join("s.seg1.jsonl");
        assert!(seg1.exists() && dir.join("s.seg2.jsonl").exists());
        assert!(
            std::fs::metadata(&base).unwrap().len() >= 200,
            "rotates after crossing the byte threshold, not before"
        );
    }

    #[test]
    fn merge_applies_piecewise_track_for_drifting_inputs() {
        use crate::monitor::RecordSink;
        let dir = fresh_dir("mvr-obs-merge-drift-test");
        let a = stream(&dir.join("drift-a.jsonl"));
        let b = stream(&dir.join("drift-b.jsonl"));
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
        let summary = merge_streams(&dir, "merged").unwrap();
        let skew = summary.skew.as_ref().unwrap();
        assert!(skew.inversions_before >= 1);
        assert_eq!(skew.inversions_after, 0, "{}", summary.summary());
        assert!(!skew.track.is_empty());
        let body = std::fs::read_to_string(&summary.jsonl).unwrap();
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

    fn deliver(from: u32, sender_clock: u64, receiver_clock: u64) -> ProtoEvent {
        ProtoEvent::Deliver {
            from,
            sender_clock,
            receiver_clock,
            replay: false,
        }
    }

    #[test]
    fn audit_passes_a_clean_dump_and_lists_each_strict_finding() {
        let ack = |up_to| ProtoEvent::ElAck {
            up_to,
            batches_retired: 1,
            rtt_ns: 5,
        };
        let clean = vec![
            rec(0, 1, 10, send(1, 1, 8)),
            rec(1, 1, 20, deliver(0, 1, 1)),
            rec(1, 1, 30, ack(1)),
            rec(1, 2, 40, send(0, 2, 8)),
            rec(0, 2, 50, deliver(1, 2, 2)),
        ];
        let header = |records: usize| DumpHeader {
            records: records as u64,
            ..DumpHeader::default()
        };
        let a = audit(Some(&header(5)), &clean).unwrap();
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!((a.audited, a.spans.spans.len()), (5, 2));
        assert!(audit(None, &clean).unwrap().findings.is_empty());

        // Malformed: the header disagrees with the body, or the schema fails.
        let err = audit(Some(&header(4)), &clean).unwrap_err();
        assert!(err.contains("header claims 4 records"), "{err}");
        let backwards = [rec(0, 2, 10, send(1, 2, 8)), rec(0, 1, 20, send(1, 1, 8))];
        assert!(audit(None, &backwards)
            .unwrap_err()
            .starts_with("schema validation"));

        // Strict: an orphan edge (rank 1's reply never arrives) and a
        // gate violation (rank 1 sends before its ack), in order.
        let dirty = vec![
            rec(0, 1, 10, send(1, 1, 8)),
            rec(1, 1, 20, deliver(0, 1, 1)),
            rec(1, 2, 30, send(0, 2, 8)),
        ];
        let a = audit(Some(&header(3)), &dirty).unwrap();
        assert_eq!(
            a.findings,
            vec![
                "1 orphan edge(s)".to_string(),
                "invariant `pessimism-gate` violated".to_string(),
            ]
        );
        assert_eq!(a.violation.unwrap().rank, 1);
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
            collection::vec(track, 0..4),
            collection::vec(0u32..=u32::MAX, 0..4),
        )
            .prop_map(|(records, track, unconstrained)| DumpHeader {
                records,
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
