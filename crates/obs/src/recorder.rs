//! The flight recorder: a per-rank handle that timestamps
//! [`FlightRecord`]s and hands each one to its sink, plus the
//! [`RecorderHub`] that owns the shared monotonic epoch and decides where
//! records go — one JSONL stream per incarnation in a run directory, or
//! one in-memory timeline when there is no directory.

use crate::dump::{JsonlStreamSink, RotateConfig, TeeSink};
use crate::event::{FlightRecord, ProtoEvent, DISPATCHER_RANK};
use crate::monitor::RecordSink;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record events at all. When `false`, [`Recorder::record`] is a
    /// single relaxed atomic load — the benchmark-safe fast path.
    pub enabled: bool,
    /// Read by nothing: recorders keep no records of their own, so there
    /// is no capacity to set. Kept only so that the frozen benchmark's
    /// `RecorderConfig { capacity, .. }` literal still compiles.
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

impl RecorderConfig {
    /// Recording on, every other setting at its default.
    pub fn enabled() -> Self {
        RecorderConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

struct Shared {
    rank: u32,
    enabled: AtomicBool,
    time: TimeSource,
    /// Where every record goes, inline on the recording thread: the
    /// hub's stream or timeline, teed with its live consumer. `None`
    /// for a standalone recorder, which keeps nothing.
    sink: Option<Arc<dyn RecordSink>>,
}

/// A cloneable handle to one rank's flight recorder. Cloning shares the
/// sink, so a daemon and the engine it hosts write into the same
/// stream.
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
    /// A standalone recorder with its own epoch. It stamps records and
    /// keeps none of them (what a timing harness measures); recorders
    /// whose records are wanted come from a [`RecorderHub`].
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

    /// Stamp a record and hand it to the sink. The disabled fast path
    /// is a branch on one relaxed atomic load.
    #[inline]
    pub fn record(&self, clock: u64, event: ProtoEvent) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.record_slow(clock, event);
    }

    #[cold]
    fn record_slow(&self, clock: u64, event: ProtoEvent) {
        let rec = FlightRecord {
            rank: self.0.rank,
            clock,
            ts_ns: self.now_ns(),
            event,
        };
        if let Some(sink) = &self.0.sink {
            sink.observe(&rec);
        }
    }
}

/// Where a hub's recorders put their records.
enum Keep {
    /// One in-memory timeline, in arrival order.
    Memory(Arc<Timeline>),
    /// One JSONL stream per minted name in `dir`.
    Streams { dir: PathBuf, rotate: RotateConfig },
}

/// The in-memory timeline of a hub without a run directory.
#[derive(Default)]
struct Timeline(Mutex<Vec<FlightRecord>>);

impl RecordSink for Timeline {
    fn observe(&self, rec: &FlightRecord) {
        self.0.lock().push(rec.clone());
    }
}

/// The deployment-wide source of flight recorders. Owns the shared
/// monotonic epoch (so merged timelines order correctly across ranks)
/// and survives individual incarnations: a rank that restarts gets a
/// fresh recorder from the same hub.
///
/// A streaming hub ([`streaming`](Self::streaming)) gives every
/// recorder its own JSONL stream in the run directory, which
/// [`merge_streams`](crate::merge_streams) merges into a dump; a hub
/// without a directory ([`new`](Self::new)) keeps one unbounded
/// in-memory timeline, read by [`timeline`](Self::timeline).
pub struct RecorderHub {
    cfg: RecorderConfig,
    epoch: Instant,
    keep: Keep,
    /// Live consumer of records (the online invariant monitor, a
    /// child's telemetry buffer), fed after the record is kept.
    live: Mutex<Option<Arc<dyn RecordSink>>>,
}

impl RecorderHub {
    /// A hub keeping its recorders' records in one in-memory timeline.
    pub fn new(cfg: RecorderConfig) -> Arc<Self> {
        Self::with_keep(cfg, Instant::now(), Keep::Memory(Arc::default()))
    }

    /// A hub whose recorders each stream to `dir/<name>.jsonl`, cut into
    /// segments by `rotate`, with timestamps relative to `epoch`.
    /// Multi-process deployments translate one wall-clock epoch
    /// (broadcast by the supervisor) into a local `Instant` per process
    /// ([`epoch_from_unix_ns`]), so the merged cross-process timeline
    /// orders correctly.
    pub fn streaming(
        cfg: RecorderConfig,
        epoch: Instant,
        dir: &Path,
        rotate: RotateConfig,
    ) -> Arc<Self> {
        let dir = dir.to_path_buf();
        Self::with_keep(cfg, epoch, Keep::Streams { dir, rotate })
    }

    fn with_keep(cfg: RecorderConfig, epoch: Instant, keep: Keep) -> Arc<Self> {
        Arc::new(RecorderHub {
            cfg,
            epoch,
            keep,
            live: Mutex::new(None),
        })
    }

    /// Attach a live record sink (the online invariant monitor).
    /// Recorders minted *after* this call feed the sink inline from
    /// their recording threads; call before spawning any nodes.
    pub fn set_sink(&self, sink: Arc<dyn RecordSink>) {
        *self.live.lock() = Some(sink);
    }

    /// Mint a recorder for `rank`. On a streaming hub it writes the
    /// stream `disp` for [`DISPATCHER_RANK`] and `rank<r>` otherwise,
    /// appending to what an earlier recorder of that name wrote.
    pub fn recorder(&self, rank: u32) -> Recorder {
        let stream = match rank {
            DISPATCHER_RANK => "disp".to_string(),
            r => format!("rank{r}"),
        };
        self.stream_recorder(rank, &stream)
    }

    /// Mint a recorder for `rank` writing the stream `name`
    /// (`dir/<name>.jsonl`) on a streaming hub, or the timeline
    /// otherwise. Deployments mint one per incarnation, named after it.
    pub fn stream_recorder(&self, rank: u32, name: &str) -> Recorder {
        self.mint(rank, name, Recorder::wall(self.cfg, self.epoch))
    }

    /// As [`recorder`](Self::recorder), with timestamps read from
    /// `clock` instead of the hub's epoch: a simulator's virtual time,
    /// so a seeded run dumps a byte-identical timeline every time.
    pub fn recorder_on_clock(&self, rank: u32, clock: &VirtualClock) -> Recorder {
        let time = TimeSource::Virtual(clock.clone());
        self.mint(rank, &format!("rank{rank}"), time)
    }

    fn mint(&self, rank: u32, name: &str, time: TimeSource) -> Recorder {
        let kept: Option<Arc<dyn RecordSink>> = match &self.keep {
            _ if !self.cfg.enabled => None,
            Keep::Memory(timeline) => Some(timeline.clone()),
            Keep::Streams { dir, rotate } => {
                let path = dir.join(format!("{name}.jsonl"));
                match JsonlStreamSink::open(&path, *rotate) {
                    Ok(sink) => Some(Arc::new(sink)),
                    // Observability degrades, the run does not.
                    Err(e) => {
                        eprintln!("flight recorder: cannot open {}: {e}", path.display());
                        None
                    }
                }
            }
        };
        let sink: Option<Arc<dyn RecordSink>> = match (kept, self.live.lock().clone()) {
            (Some(kept), Some(live)) => Some(Arc::new(TeeSink(vec![kept, live]))),
            (kept, live) => kept.or(live),
        };
        Recorder::with_time(rank, self.cfg, time, sink)
    }

    /// Every record the hub's recorders kept in memory, ordered by
    /// timestamp, ties broken by rank. The sort is stable, so records of
    /// one rank sharing a timestamp keep the order they were written in
    /// — a virtual-time run stamps a whole cascade (an ack, the gate
    /// opening it causes, the sends it releases) with one instant — and
    /// dumps are byte-stable per seed. Empty on a streaming hub, whose
    /// records are on disk.
    pub fn timeline(&self) -> Vec<FlightRecord> {
        let Keep::Memory(timeline) = &self.keep else {
            return Vec::new();
        };
        let mut all = timeline.0.lock().clone();
        all.sort_by_key(|r| (r.ts_ns, r.rank));
        all
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
        let hub = RecorderHub::new(RecorderConfig::default());
        hub.recorder(0).record(1, send(0, 1, 8));
        assert!(hub.timeline().is_empty());
        let standalone = Recorder::new(0, RecorderConfig::enabled());
        standalone.record(1, send(0, 1, 8));
        assert!(standalone.0.sink.is_none(), "nowhere to keep a record");
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
    fn clones_share_the_sink() {
        let hub = RecorderHub::new(RecorderConfig::enabled());
        let r = hub.recorder(3);
        let r2 = r.clone();
        r.record(1, ProtoEvent::Restart1 { rank: 3 });
        r2.record(2, ProtoEvent::Finish { clock: 2 });
        assert_eq!(hub.timeline().len(), 2);
    }

    #[test]
    fn a_streaming_hub_writes_one_stream_per_name() {
        let dir = std::env::temp_dir().join("mvr-obs-hub-stream-test");
        let _ = std::fs::remove_dir_all(&dir);
        let hub = RecorderHub::streaming(
            RecorderConfig::enabled(),
            Instant::now(),
            &dir,
            RotateConfig::default(),
        );
        hub.stream_recorder(1, "cn1-i0").record(1, send(0, 1, 8));
        hub.stream_recorder(1, "cn1-i1").record(1, send(0, 1, 8));
        hub.recorder(DISPATCHER_RANK)
            .record(0, ProtoEvent::Finish { clock: 0 });
        // A second dispatcher recorder appends to the same stream.
        hub.recorder(DISPATCHER_RANK)
            .record(0, ProtoEvent::Finish { clock: 1 });
        let lines = |name: &str| {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            text.lines().count()
        };
        assert_eq!(lines("cn1-i0.jsonl"), 1);
        assert_eq!(lines("cn1-i1.jsonl"), 1);
        assert_eq!(lines("disp.jsonl"), 2);
        assert!(hub.timeline().is_empty(), "the records are on disk");
    }
}
