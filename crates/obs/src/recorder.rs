//! The flight recorder: a lock-light per-engine ring buffer of
//! [`FlightRecord`]s, plus the [`RecorderHub`] that owns the shared
//! monotonic epoch and collects every recorder for post-mortem dumps.

use crate::dump::{self, DumpPaths};
use crate::event::{FlightRecord, ProtoEvent};
use crate::monitor::RecordSink;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a deployment's recorders behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record events at all. When `false`, [`Recorder::record`] is a
    /// single relaxed atomic load — the benchmark-safe fast path.
    pub enabled: bool,
    /// Ring capacity per recorder; the oldest records are overwritten
    /// once full (the overwrite count is preserved for triage).
    pub capacity: usize,
    /// Mirror every record to stderr as it is written.
    pub trace_stderr: bool,
    /// Flush cadence for streaming JSONL sinks fed by this deployment's
    /// recorders: write out every N records. 1 (the default) writes per
    /// record — the SIGKILL-durable discipline; larger values batch
    /// syscalls at the cost of up to N−1 records on an abrupt kill.
    pub stream_flush_every: u32,
    /// Injected clock drift in parts-per-billion, applied to
    /// [`Recorder::now_ns`]: every elapsed second gains (positive) or
    /// loses (negative) this many nanoseconds. 0 — the default, and
    /// the only sane production value — leaves the clock untouched.
    /// Test harnesses use it to simulate a node whose oscillator runs
    /// fast or slow, exercising the drift-aware skew correction on the
    /// merge path.
    pub clock_drift_ppb: i64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: false,
            capacity: 4096,
            trace_stderr: false,
            stream_flush_every: 1,
            clock_drift_ppb: 0,
        }
    }
}

impl RecorderConfig {
    /// Recording on, stderr mirroring off.
    pub fn enabled() -> Self {
        RecorderConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

struct Ring {
    buf: Vec<FlightRecord>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: FlightRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records oldest → newest.
    fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

struct Shared {
    rank: u32,
    enabled: AtomicBool,
    trace_stderr: AtomicBool,
    epoch: Instant,
    /// Injected drift rate (ppb) baked in at mint time; see
    /// [`RecorderConfig::clock_drift_ppb`].
    drift_ppb: i64,
    ring: Mutex<Ring>,
    /// Live consumer of records (the online invariant monitor). Fired
    /// inline on the recording thread's slow path, after the ring push.
    sink: Option<Arc<dyn RecordSink>>,
}

/// A cloneable handle to one rank's flight recorder. Cloning shares
/// the underlying ring, so a daemon and the engine it hosts write into
/// the same timeline.
#[derive(Clone)]
pub struct Recorder(Arc<Shared>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("rank", &self.0.rank)
            .field("enabled", &self.0.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    /// A standalone recorder with its own epoch (tests, single-process
    /// tools). Deployments should mint recorders from a [`RecorderHub`]
    /// so all timelines share one epoch.
    pub fn new(rank: u32, cfg: RecorderConfig) -> Self {
        Self::with_epoch(rank, cfg, Instant::now())
    }

    /// A permanently-disabled recorder: the engine default, costing one
    /// relaxed atomic load per would-be record.
    pub fn disabled() -> Self {
        Self::new(u32::MAX, RecorderConfig::default())
    }

    fn with_epoch(rank: u32, cfg: RecorderConfig, epoch: Instant) -> Self {
        Self::with_epoch_sink(rank, cfg, epoch, None)
    }

    fn with_epoch_sink(
        rank: u32,
        cfg: RecorderConfig,
        epoch: Instant,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Self {
        Recorder(Arc::new(Shared {
            rank,
            enabled: AtomicBool::new(cfg.enabled),
            trace_stderr: AtomicBool::new(cfg.trace_stderr),
            epoch,
            drift_ppb: cfg.clock_drift_ppb,
            ring: Mutex::new(Ring::new(cfg.capacity)),
            sink,
        }))
    }

    /// Whether records are currently being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Rank this recorder writes records for.
    pub fn rank(&self) -> u32 {
        self.0.rank
    }

    /// Whether records are mirrored to stderr. Host code gates its own
    /// free-form debug lines behind the same switch.
    #[inline]
    pub fn trace_stderr(&self) -> bool {
        self.0.trace_stderr.load(Ordering::Relaxed)
    }

    /// Monotonic nanoseconds since the deployment epoch. Usable even
    /// when recording is disabled — the engines' duration histograms
    /// read time through this single source.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let ns = self.0.epoch.elapsed().as_nanos() as u64;
        if self.0.drift_ppb == 0 {
            return ns;
        }
        // Injected drift (tests only): scale elapsed time by
        // (1 + ppb/1e9), clamped at zero for pathological negatives.
        let skewed = ns as i128 + ns as i128 * self.0.drift_ppb as i128 / 1_000_000_000;
        skewed.max(0) as u64
    }

    /// Append a record. The disabled fast path is a branch on one
    /// relaxed atomic load; no lock is touched.
    #[inline]
    pub fn record(&self, clock: u64, event: ProtoEvent) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.record_slow(clock, event);
    }

    /// Append a record at an explicit timestamp instead of wall time.
    /// The simulator uses this to write virtual-time records, so its
    /// dumps are byte-stable across runs of the same seed.
    #[inline]
    pub fn record_at(&self, clock: u64, ts_ns: u64, event: ProtoEvent) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.push(FlightRecord {
            rank: self.0.rank,
            clock,
            ts_ns,
            event,
        });
    }

    #[cold]
    fn record_slow(&self, clock: u64, event: ProtoEvent) {
        self.push(FlightRecord {
            rank: self.0.rank,
            clock,
            ts_ns: self.now_ns(),
            event,
        });
    }

    fn push(&self, rec: FlightRecord) {
        if self.0.trace_stderr.load(Ordering::Relaxed) {
            eprintln!(
                "[mvr r{} c{} t{}ns] {}: {:?}",
                rec.rank,
                rec.clock,
                rec.ts_ns,
                rec.event.kind(),
                rec.event
            );
        }
        if let Some(sink) = &self.0.sink {
            sink.observe(&rec);
        }
        self.0.ring.lock().push(rec);
    }

    /// Copy of the ring, oldest → newest.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.0.ring.lock().snapshot()
    }

    /// Records overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.0.ring.lock().dropped
    }
}

/// The deployment-wide registry of flight recorders. Owns the shared
/// monotonic epoch (so merged timelines order correctly across ranks)
/// and survives individual incarnations: a rank that restarts gets a
/// fresh recorder handle writing into the same registry, so the dump
/// contains every incarnation's records.
pub struct RecorderHub {
    cfg: RecorderConfig,
    epoch: Instant,
    recorders: Mutex<Vec<Recorder>>,
    sink: Mutex<Option<Arc<dyn RecordSink>>>,
}

impl std::fmt::Debug for RecorderHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHub")
            .field("cfg", &self.cfg)
            .field("recorders", &self.recorders.lock().len())
            .finish()
    }
}

impl RecorderHub {
    /// A hub minting recorders with the given configuration.
    pub fn new(cfg: RecorderConfig) -> Arc<Self> {
        Self::with_epoch(cfg, Instant::now())
    }

    /// A hub whose recorders stamp timestamps relative to an explicit
    /// epoch. Multi-process deployments translate one wall-clock epoch
    /// (broadcast by the supervisor) into a local `Instant` per process,
    /// so the merged cross-process timeline orders correctly.
    pub fn with_epoch(cfg: RecorderConfig, epoch: Instant) -> Arc<Self> {
        Arc::new(RecorderHub {
            cfg,
            epoch,
            recorders: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
        })
    }

    /// Attach a live record sink (the online invariant monitor).
    /// Recorders minted *after* this call feed the sink inline from
    /// their recording threads; call before spawning any nodes.
    pub fn set_sink(&self, sink: Arc<dyn RecordSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// Flush the attached sink's buffers, if any — the explicit
    /// teardown a child performs before `exit` instead of sleeping and
    /// hoping the stream drained.
    pub fn flush_sink(&self) {
        if let Some(sink) = self.sink.lock().as_ref() {
            sink.flush();
        }
    }

    /// Whether minted recorders keep records.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Mint (and register) a recorder for `rank`. Call once per
    /// incarnation; all incarnations' records end up in the dump.
    pub fn recorder(&self, rank: u32) -> Recorder {
        let r = Recorder::with_epoch_sink(rank, self.cfg, self.epoch, self.sink.lock().clone());
        self.recorders.lock().push(r.clone());
        r
    }

    /// Merged snapshot of every registered recorder, ordered by
    /// timestamp (ties broken by rank, then logical clock, then event
    /// kind, so equal-timestamp records from a virtual-time run merge
    /// deterministically and dumps are byte-stable per seed).
    pub fn timeline(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .recorders
            .lock()
            .iter()
            .flat_map(|r| r.snapshot())
            .collect();
        all.sort_by_key(|r| (r.ts_ns, r.rank, r.clock, r.event.kind_index()));
        all
    }

    /// Total records overwritten across all rings (reported in the
    /// dump so a truncated timeline is never mistaken for a full one).
    pub fn dropped(&self) -> u64 {
        self.recorders.lock().iter().map(|r| r.dropped()).sum()
    }

    /// Collect every recorder and write the merged clock-ordered JSONL
    /// timeline plus the Chrome-trace/Perfetto export under `dir`,
    /// named `<tag>.jsonl` / `<tag>.trace.json`.
    pub fn dump(&self, dir: &Path, tag: &str) -> std::io::Result<DumpPaths> {
        let timeline = self.timeline();
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join(format!("{tag}.jsonl"));
        let trace = dir.join(format!("{tag}.trace.json"));
        dump::write_jsonl(&jsonl, &timeline, self.dropped())?;
        dump::write_chrome_trace(&trace, &timeline)?;
        Ok(DumpPaths {
            jsonl,
            trace,
            records: timeline.len(),
            dropped: self.dropped(),
            triage: dump::triage(&timeline),
        })
    }
}

/// Nanoseconds since `UNIX_EPOCH` right now — the form a supervisor
/// broadcasts its recorder epoch in (an `Instant` cannot cross a
/// process boundary).
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
}

/// Translate a shared wall-clock epoch (nanoseconds since `UNIX_EPOCH`,
/// broadcast by the supervising process) into a local [`Instant`] lying
/// the same distance in the past, so `now_ns()` values agree across
/// processes up to wall-clock skew. An epoch from the future clamps to
/// now rather than panicking.
pub fn epoch_from_unix_ns(epoch_unix_ns: u64) -> Instant {
    let now = Instant::now();
    let elapsed = unix_now_ns().saturating_sub(epoch_unix_ns);
    now.checked_sub(std::time::Duration::from_nanos(elapsed))
        .unwrap_or(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SendDisposition;

    fn send(to: u32, clock: u64, bytes: u64) -> ProtoEvent {
        ProtoEvent::Send {
            to,
            clock,
            bytes,
            disposition: SendDisposition::Wire,
        }
    }

    #[test]
    fn injected_drift_scales_the_recorder_clock() {
        let fast = Recorder::new(
            0,
            RecorderConfig {
                // +10%: a full second gains 100ms.
                clock_drift_ppb: 100_000_000,
                ..Default::default()
            },
        );
        let slow = Recorder::new(
            1,
            RecorderConfig {
                clock_drift_ppb: -100_000_000,
                ..Default::default()
            },
        );
        let true_r = Recorder::new(2, RecorderConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(5));
        let (f, s, t) = (fast.now_ns(), slow.now_ns(), true_r.now_ns());
        // Epochs differ by creation order (µs apart), but ±10% over
        // ≥5ms dwarfs that: the drifted clocks straddle the true one.
        assert!(f > t, "fast clock must read ahead: {f} vs {t}");
        assert!(s < t, "slow clock must read behind: {s} vs {t}");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::disabled();
        r.record(1, send(0, 1, 8));
        assert!(r.snapshot().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let r = Recorder::new(
            0,
            RecorderConfig {
                enabled: true,
                capacity: 4,
                ..Default::default()
            },
        );
        for i in 0..10u64 {
            r.record(i, send(1, i, 1));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(r.dropped(), 6);
        // Oldest → newest: clocks 6, 7, 8, 9.
        let clocks: Vec<u64> = snap.iter().map(|f| f.clock).collect();
        assert_eq!(clocks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn hub_merges_across_ranks_in_ts_order() {
        let hub = RecorderHub::new(RecorderConfig::enabled());
        let a = hub.recorder(0);
        let b = hub.recorder(1);
        a.record(1, send(1, 1, 8));
        b.record(
            1,
            ProtoEvent::Deliver {
                from: 0,
                sender_clock: 1,
                receiver_clock: 1,
                replay: false,
            },
        );
        a.record(2, send(1, 2, 8));
        let tl = hub.timeline();
        assert_eq!(tl.len(), 3);
        assert!(tl.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn equal_ts_ties_break_by_rank_clock_kind() {
        let hub = RecorderHub::new(RecorderConfig::enabled());
        let a = hub.recorder(0);
        let b = hub.recorder(1);
        // All four records share ts_ns=500; merge order must be fully
        // determined by (rank, clock, kind_index).
        b.record_at(2, 500, ProtoEvent::Finish { clock: 2 });
        a.record_at(
            3,
            500,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: 7,
            },
        );
        a.record_at(3, 500, send(1, 3, 8));
        a.record_at(1, 500, ProtoEvent::Restart1 { rank: 0 });
        let tl = hub.timeline();
        let keys: Vec<(u32, u64, u8)> = tl
            .iter()
            .map(|r| (r.rank, r.clock, r.event.kind_index()))
            .collect();
        assert_eq!(keys, vec![(0, 1, 10), (0, 3, 0), (0, 3, 2), (1, 2, 17)]);
    }

    #[test]
    fn clones_share_the_ring() {
        let r = Recorder::new(3, RecorderConfig::enabled());
        let r2 = r.clone();
        r.record(1, ProtoEvent::Restart1 { rank: 3 });
        r2.record(2, ProtoEvent::Finish { clock: 2 });
        assert_eq!(r.snapshot().len(), 2);
    }
}
