//! The flight recorder: a lock-light per-engine ring buffer of
//! [`FlightRecord`]s, plus the [`RecorderHub`] that owns the shared
//! monotonic epoch and collects every recorder for post-mortem dumps.

use crate::dump::{Dump, DumpHeader};
use crate::event::{FlightRecord, ProtoEvent};
use crate::monitor::RecordSink;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A time source that a discrete-event simulator advances by hand.
/// Recorders minted on it ([`Recorder::on_clock`],
/// [`RecorderHub::recorder_on_clock`]) read their time from it instead
/// of the wall clock, so engines driven in virtual time measure virtual
/// durations and their records carry virtual timestamps.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock standing at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the clock to `ns`.
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// The current reading, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Where a recorder reads its time.
enum TimeSource {
    /// Elapsed time since a monotonic epoch, with an optional injected
    /// drift (see [`RecorderConfig::clock_drift_ppb`]).
    Wall { epoch: Instant, drift_ppb: i64 },
    /// A simulator's virtual clock.
    Virtual(VirtualClock),
}

/// How a deployment's recorders behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record events at all. When `false`, [`Recorder::record`] is a
    /// single relaxed atomic load — the benchmark-safe fast path.
    pub enabled: bool,
    /// Ring capacity per recorder; the oldest records are overwritten
    /// once full (the overwrite count is preserved for triage).
    pub capacity: usize,
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
            clock_drift_ppb: 0,
        }
    }
}

impl RecorderConfig {
    /// Recording on, every other setting at its default.
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
    time: TimeSource,
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
        Self::with_time(rank, cfg, Self::wall(cfg, Instant::now()), None)
    }

    /// A permanently-disabled recorder: the engine default, costing one
    /// relaxed atomic load per would-be record.
    pub fn disabled() -> Self {
        Self::new(u32::MAX, RecorderConfig::default())
    }

    /// A standalone recorder reading its time from `clock` (a
    /// simulator's virtual time). The drift setting does not apply.
    pub fn on_clock(rank: u32, cfg: RecorderConfig, clock: &VirtualClock) -> Self {
        Self::with_time(rank, cfg, TimeSource::Virtual(clock.clone()), None)
    }

    fn wall(cfg: RecorderConfig, epoch: Instant) -> TimeSource {
        TimeSource::Wall {
            epoch,
            drift_ppb: cfg.clock_drift_ppb,
        }
    }

    fn with_time(
        rank: u32,
        cfg: RecorderConfig,
        time: TimeSource,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Self {
        Recorder(Arc::new(Shared {
            rank,
            enabled: AtomicBool::new(cfg.enabled),
            time,
            ring: Mutex::new(Ring::new(cfg.capacity)),
            sink,
        }))
    }

    /// Rank this recorder writes records for.
    pub fn rank(&self) -> u32 {
        self.0.rank
    }

    /// Monotonic nanoseconds since the deployment epoch (or the virtual
    /// clock's reading). Usable even when recording is disabled — the
    /// engines' duration histograms read time through this single
    /// source.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let (epoch, drift_ppb) = match &self.0.time {
            TimeSource::Wall { epoch, drift_ppb } => (epoch, *drift_ppb),
            TimeSource::Virtual(clock) => return clock.now_ns(),
        };
        let ns = epoch.elapsed().as_nanos() as u64;
        if drift_ppb == 0 {
            return ns;
        }
        // Injected drift (tests only): scale elapsed time by
        // (1 + ppb/1e9), clamped at zero for pathological negatives.
        let skewed = ns as i128 + ns as i128 * drift_ppb as i128 / 1_000_000_000;
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

    /// Mint (and register) a recorder for `rank`. Call once per
    /// incarnation; all incarnations' records end up in the dump.
    pub fn recorder(&self, rank: u32) -> Recorder {
        self.register(rank, Recorder::wall(self.cfg, self.epoch))
    }

    /// As [`recorder`](Self::recorder), with timestamps read from
    /// `clock` instead of the hub's epoch: a simulator's virtual time,
    /// so a seeded run dumps a byte-identical timeline every time.
    pub fn recorder_on_clock(&self, rank: u32, clock: &VirtualClock) -> Recorder {
        self.register(rank, TimeSource::Virtual(clock.clone()))
    }

    fn register(&self, rank: u32, time: TimeSource) -> Recorder {
        let r = Recorder::with_time(rank, self.cfg, time, self.sink.lock().clone());
        self.recorders.lock().push(r.clone());
        r
    }

    /// Merged snapshot of every registered recorder, ordered by
    /// timestamp, ties broken by rank. The sort is stable, so records of
    /// one rank sharing a timestamp keep the order they were written in
    /// — a virtual-time run stamps a whole cascade (an ack, the gate
    /// opening it causes, the sends it releases) with one instant — and
    /// dumps are byte-stable per seed.
    pub fn timeline(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .recorders
            .lock()
            .iter()
            .flat_map(|r| r.snapshot())
            .collect();
        all.sort_by_key(|r| (r.ts_ns, r.rank));
        all
    }

    /// Total records overwritten across all rings (reported in the
    /// dump so a truncated timeline is never mistaken for a full one).
    pub fn dropped(&self) -> u64 {
        self.recorders.lock().iter().map(|r| r.dropped()).sum()
    }

    /// Collect every recorder and write the merged clock-ordered JSONL
    /// timeline to `dir/<tag>.jsonl`.
    pub fn dump(&self, dir: &Path, tag: &str) -> std::io::Result<Dump> {
        let timeline = self.timeline();
        let header = DumpHeader {
            records: timeline.len() as u64,
            dropped: self.dropped(),
            ..DumpHeader::default()
        };
        Dump::write(&dir.join(format!("{tag}.jsonl")), header, &timeline)
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
    fn equal_ts_ties_break_by_rank_then_recording_order() {
        let hub = RecorderHub::new(RecorderConfig::enabled());
        let clock = VirtualClock::new();
        clock.set(500);
        let a = hub.recorder_on_clock(0, &clock);
        let b = hub.recorder_on_clock(1, &clock);
        // All four records share ts_ns=500; merge order must be fully
        // determined by rank, then the order each rank wrote them in.
        b.record(2, ProtoEvent::Finish { clock: 2 });
        a.record(
            3,
            ProtoEvent::ElAck {
                up_to: 3,
                batches_retired: 1,
                rtt_ns: 7,
            },
        );
        a.record(
            3,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: 7,
            },
        );
        a.record(4, send(1, 4, 8));
        let tl = hub.timeline();
        assert!(tl.iter().all(|r| r.ts_ns == 500));
        let keys: Vec<(u32, u64, u8)> = tl
            .iter()
            .map(|r| (r.rank, r.clock, r.event.kind_index()))
            .collect();
        assert_eq!(keys, vec![(0, 3, 6), (0, 3, 2), (0, 4, 0), (1, 2, 17)]);
        clock.set(900);
        assert_eq!(a.now_ns(), 900, "the recorder reads the virtual clock");
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
