//! The MPICH-V2 protocol engine — a sans-IO state machine.
//!
//! The engine implements the Appendix-A protocol: the `send`, `recv` and
//! `UnDetAction` (probe) actions, and the `on Restart` / `RESTART1` /
//! `RESTART2` rules, plus checkpointing and garbage collection. It is
//! driven by [`Input`]s and emits [`Output`] commands; all IO (threads,
//! streams, the event-logger connection) lives in `mvr-runtime`, and the
//! discrete-event simulator can drive the same machine. This keeps the
//! protocol testable in isolation: the unit tests below run whole
//! multi-process crash/recovery scenarios by shuttling `Output`s between
//! engines by hand.
//!
//! # Pessimism invariant
//!
//! No application payload is handed to the transport while a reception
//! event is still unacknowledged by the event logger. *All* data
//! transmissions — fresh sends **and** recovery re-sends — are funneled
//! through the gated queue; a re-send of a payload whose original
//! transmission is itself still gated must not leak early. Control
//! messages (`RESTART1/2`, `CkptNotify`) bypass the gate: they carry only
//! watermark knowledge that is safe to expose (see `recovery.rs`).

use crate::clock::LogicalClock;
use crate::envelope::{DataMsg, PeerMsg};
use crate::event::{EventBatch, ReceptionEvent, DEFAULT_BATCH_MAX_EVENTS};
use crate::ids::{MsgId, Rank};
use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::pessimism::PessimismGate;
use crate::recovery::Watermarks;
use crate::replay::{Offer, ProbeVerdict, ReplayError, ReplayPlan};
use crate::sender_log::SenderLog;
use crate::snapshot::EngineSnapshot;
use mvr_obs::{ProtoEvent, ProtocolTimings, Recorder, SendDisposition};
use std::collections::VecDeque;

/// Stimuli the hosting daemon feeds into the engine.
#[derive(Clone, Debug)]
pub enum Input {
    /// The MPI process performs a channel-level blocking send (`PIbsend`).
    AppSend {
        /// Destination rank.
        dst: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// The MPI process blocks in `PIbrecv`, ready for the next delivery.
    AppRecv,
    /// The MPI process probes for a pending message (`PInprobe`).
    AppProbe,
    /// A message arrived from a peer daemon.
    Peer {
        /// Emitting peer.
        from: Rank,
        /// The message.
        msg: PeerMsg,
    },
    /// The event logger acknowledged durability of all events up to the
    /// given receiver clock.
    ElAck {
        /// Highest durable receiver clock.
        up_to: u64,
    },
    /// One replica of this rank's event-logger shard acknowledged
    /// durability up to the given receiver clock. The gate only trusts
    /// the *quorum* watermark derived from these (see
    /// [`V2Engine::set_el_replication`]); with `el_replicas <= 1` this
    /// degenerates to [`Input::ElAck`].
    ElReplicaAck {
        /// Replica index within this rank's shard.
        replica: u32,
        /// Highest receiver clock that replica has durably stored.
        up_to: u64,
    },
    /// A revived replica of this rank's shard announced its watermark
    /// (`ElReply::Revived`): an [`Input::ElReplicaAck`], after which the
    /// engine re-ships it what it lacks above `up_to`.
    ElReplicaRevived {
        /// Replica index within this rank's shard.
        replica: u32,
        /// Highest receiver clock that replica has durably stored.
        up_to: u64,
    },
    /// The checkpoint scheduler ordered a checkpoint.
    CheckpointOrder,
    /// The runtime confirms the checkpoint image was stored durably.
    CheckpointStored,
    /// The hosting daemon is idle: ship any pending reception events now
    /// (bounds event latency while a batch is below its size bound).
    FlushEvents,
}

/// Commands the engine asks the hosting daemon to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Ship a message to a peer daemon.
    Transmit {
        /// Destination peer.
        to: Rank,
        /// The message.
        msg: PeerMsg,
    },
    /// Append events to the event logger (asynchronously; the EL will ack).
    LogEvents(EventBatch),
    /// Append events to one replica of the event-logger shard only: the
    /// suffix a revived replica lacks (see [`Input::ElReplicaRevived`]).
    ReshipEvents {
        /// The replica, flat-indexed within this rank's shard.
        replica: u32,
        /// The events it lacks, in receiver-clock order.
        batch: EventBatch,
    },
    /// Hand a message to the blocked MPI process (answers `AppRecv`).
    Deliver {
        /// Original sender rank.
        from: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// Answer a pending `AppProbe`.
    ProbeAnswer(bool),
    /// Ask the EL to drop events at or below `up_to` (post-checkpoint).
    ElTruncate {
        /// Checkpoint clock.
        up_to: u64,
    },
    /// Replay finished; execution is live again (informational).
    ReplayComplete,
}

/// Execution mode.
#[derive(Clone, Debug)]
enum Mode {
    /// Live execution.
    Normal,
    /// Re-execution: forced delivery order from the replay plan.
    Replay(ReplayPlan),
}

/// The MPICH-V2 protocol engine for one computing process.
///
/// `Clone` is provided for state-space exploration (the exhaustive
/// interleaving tests clone whole engines to branch executions).
#[derive(Clone, Debug)]
pub struct V2Engine {
    rank: Rank,
    world: u32,
    clock: LogicalClock,
    saved: SenderLog,
    marks: Watermarks,
    gate: PessimismGate,
    mode: Mode,
    /// Arrived, not-yet-delivered messages (normal mode), kept ascending
    /// in sender clock *per sender* (cross-sender order is free). Arrival
    /// order cannot be trusted wholesale: an in-flight message emitted to
    /// a dead incarnation can surface in the new incarnation's mailbox
    /// ahead of the RESTART resends that precede it in sender-clock
    /// order, so duplicates are detected by exact membership (plus `HR`
    /// for delivered clocks), never by a high-watermark on arrivals.
    recv_buffer: VecDeque<(Rank, u64, Payload)>,
    /// Highest sender clock ever buffered per peer (indexed by rank).
    /// An arrival above it (and above `HR`) is neither buffered nor
    /// delivered and sorts after everything buffered from that peer, so
    /// the in-order case appends without scanning `recv_buffer`. Lives
    /// and dies with the buffer: recovery starts from a fresh engine.
    buffered_high: Vec<u64>,
    /// Data transmissions waiting behind the pessimism gate (FIFO),
    /// each carrying its enqueue timestamp for the gate-wait histogram.
    gated: VecDeque<(Rank, PeerMsg, u64)>,
    app_waiting_recv: bool,
    app_waiting_probe: bool,
    /// Unsuccessful probes since the last delivery (§4.5).
    probes_since_delivery: u32,
    /// Peers whose post-restart "connection" is established: after a
    /// recovery, data from a peer is dropped until its `RESTART1`/
    /// `RESTART2` arrives — the analog of in-flight bytes dying with the
    /// old TCP connection — and data to it stays in SAVED, for the
    /// re-send round that answer triggers. (`None` = not recovering; all
    /// peers accepted.)
    handshaken: Option<std::collections::BTreeSet<Rank>>,
    /// Size bound of an event batch ([`DEFAULT_BATCH_MAX_EVENTS`] unless
    /// [`set_batch_bound`](Self::set_batch_bound) changed it).
    batch_max: usize,
    /// Delivered-but-not-yet-shipped reception events, in receiver-clock
    /// order. The gate already counts them as scheduled; they are volatile
    /// and die with a crash — which is safe, because no transmission can
    /// have depended on them (the gate stays shut until their EL ack).
    pending_events: Vec<ReceptionEvent>,
    /// A checkpoint order is pending, waiting for quiescence.
    ckpt_pending: bool,
    /// The checkpoint currently being stored, if any.
    ckpt_in_flight: Option<CkptInFlight>,
    metrics: Metrics,
    outputs: VecDeque<Output>,
    /// Flight recorder (disabled by default: one atomic load per
    /// would-be record). Shared with the hosting daemon.
    obs: Recorder,
    /// Latency histograms for the four hot protocol intervals.
    timings: ProtocolTimings,
    /// Shipped-but-unacked event batches: highest receiver clock the
    /// batch covers, plus its ship timestamp (EL ack RTT accounting).
    el_inflight: VecDeque<(u64, u64)>,
    /// Replication factor of this rank's EL shard (1 = unreplicated).
    el_replicas: u32,
    /// Acks required before the gate trusts a watermark.
    el_quorum: u32,
    /// Per-replica monotone acked watermarks (`el_replicas` entries;
    /// empty when unreplicated — `Input::ElAck` bypasses this).
    el_replica_acked: Vec<u64>,
    /// Highest quorum watermark already advanced past (dedupes quorum
    /// recomputation: only a strictly newer watermark re-enters
    /// [`on_el_ack`](Self::on_el_ack)).
    el_quorum_acked: u64,
    /// Replicated only: shipped events the quorum has not acked yet, in
    /// receiver-clock order — what a revived replica is re-shipped from.
    el_unacked: VecDeque<ReceptionEvent>,
    /// Replay in progress: start timestamp and `replayed_deliveries`
    /// at recovery begin.
    replay_started: Option<(u64, u64)>,
}

/// A checkpoint image in flight to the checkpoint server: the snapshot
/// clock, plus the per-peer HR watermarks captured *at the snapshot
/// instant*. The GC notifications must use these — deliveries continue
/// while the image transfer is in flight, and a watermark read later
/// would let senders drop messages the image does not cover.
#[derive(Clone, Debug)]
struct CkptInFlight {
    clock: u64,
    watermarks: Vec<(Rank, u64)>,
    /// Arm timestamp for the upload-duration histogram.
    armed_ns: u64,
}

impl V2Engine {
    /// A fresh engine for the initial launch of `rank` in a world of
    /// `world` computing processes, with the default batch bound.
    pub fn fresh(rank: Rank, world: u32) -> Self {
        assert!(rank.0 < world, "rank {rank} out of world {world}");
        V2Engine {
            rank,
            world,
            clock: LogicalClock::new(),
            saved: SenderLog::new(),
            marks: Watermarks::new(),
            gate: PessimismGate::new(),
            mode: Mode::Normal,
            recv_buffer: VecDeque::new(),
            buffered_high: vec![0; world as usize],
            gated: VecDeque::new(),
            app_waiting_recv: false,
            app_waiting_probe: false,
            probes_since_delivery: 0,
            handshaken: None,
            batch_max: DEFAULT_BATCH_MAX_EVENTS,
            pending_events: Vec::new(),
            ckpt_pending: false,
            ckpt_in_flight: None,
            metrics: Metrics::new(),
            outputs: VecDeque::new(),
            obs: Recorder::disabled(),
            timings: ProtocolTimings::new(),
            el_inflight: VecDeque::new(),
            el_replicas: 1,
            el_quorum: 1,
            el_replica_acked: Vec::new(),
            el_quorum_acked: 0,
            el_unacked: VecDeque::new(),
            replay_started: None,
        }
    }

    /// Configure EL replication (applied by the runtime after
    /// [`fresh`](Self::fresh) or [`restore`](Self::restore), like
    /// [`set_batch_bound`](Self::set_batch_bound)). With
    /// `replicas <= 1` the engine keeps the unreplicated single-ack
    /// behavior byte-for-byte.
    pub fn set_el_replication(&mut self, replicas: u32, quorum: u32) {
        let replicas = replicas.max(1);
        assert!(
            quorum >= 1 && quorum <= replicas,
            "quorum {quorum} out of range for {replicas} replicas"
        );
        self.el_replicas = replicas;
        self.el_quorum = quorum;
        self.el_replica_acked = if replicas > 1 {
            vec![0; replicas as usize]
        } else {
            Vec::new()
        };
        self.el_quorum_acked = 0;
        self.el_unacked.clear();
    }

    /// Attach a flight recorder (minted by the deployment's
    /// `RecorderHub`). The engine emits a structured record per protocol
    /// transition; with the default disabled recorder each emit is a
    /// single relaxed atomic load.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attached flight recorder (engine and daemon share it).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Latency histograms accumulated by this incarnation.
    pub fn timings(&self) -> &ProtocolTimings {
        &self.timings
    }

    /// Rebuild an engine from a checkpoint image (`ROLLBACK()`), before
    /// [`begin_recovery`](Self::begin_recovery) is invoked.
    pub fn restore(snapshot: EngineSnapshot) -> Self {
        let mut e = Self::fresh(snapshot.rank, snapshot.world);
        e.clock = LogicalClock::from_value(snapshot.clock);
        e.marks = snapshot.watermarks;
        e.saved = snapshot.saved;
        e
    }

    /// Capture the engine half of a checkpoint image. Must only be called
    /// right after [`try_arm_checkpoint`](Self::try_arm_checkpoint)
    /// returned a clock (the quiescence window), before any other input.
    pub fn snapshot(&self) -> EngineSnapshot {
        debug_assert!(
            self.gate.is_open() && self.gated.is_empty(),
            "snapshot of a non-quiescent engine"
        );
        EngineSnapshot {
            rank: self.rank,
            world: self.world,
            clock: self.clock.value(),
            watermarks: self.marks.clone(),
            saved: self.saved.clone(),
        }
    }

    /// Enter recovery: install the event list downloaded from the EL
    /// (`DownloadEL(H_p)`), and emit `RESTART1` to every peer. Call this
    /// on a restored (or fresh, if no image existed) engine before any
    /// application activity.
    pub fn begin_recovery(&mut self, events: Vec<ReceptionEvent>) {
        self.metrics.recoveries += 1;
        let my_clock = self.clock.value();
        let events: Vec<ReceptionEvent> = events
            .into_iter()
            .filter(|e| e.receiver_clock > my_clock)
            .collect();
        self.obs.record(
            my_clock,
            ProtoEvent::RecoveryBegin {
                restored_clock: my_clock,
            },
        );
        self.gate.reset();
        // Unshipped events died with the crash; the deliveries they
        // described had no externally visible effect (the gate never
        // opened over them), so dropping them is exactly the pessimism
        // argument of §4.1. Likewise the ship→ack RTT queue: those
        // batches belong to the dead incarnation.
        self.pending_events.clear();
        self.el_inflight.clear();
        // The replicas' acked watermarks described the dead
        // incarnation's ledger view; the new incarnation re-earns them.
        self.el_replica_acked.iter_mut().for_each(|w| *w = 0);
        self.el_quorum_acked = 0;
        self.el_unacked.clear();
        self.replay_started = Some((self.obs.now_ns(), self.metrics.replayed_deliveries));
        // Until a peer answers the handshake, its data traffic belongs to
        // the old, dead connection and must be discarded.
        self.handshaken = Some(std::collections::BTreeSet::new());
        self.obs
            .record(my_clock, ProtoEvent::Restart1 { rank: self.rank.0 });
        let restart1: Vec<(Rank, u64)> = self.peers().map(|q| (q, self.marks.hr(q))).collect();
        for (q, last_received) in restart1 {
            self.outputs.push_back(Output::Transmit {
                to: q,
                msg: PeerMsg::Restart1 { last_received },
            });
        }
        let plan = ReplayPlan::new(events);
        if plan.is_done() {
            self.mode = Mode::Normal;
            self.finish_replay_timing();
            self.metrics.replays_completed += 1;
            self.outputs.push_back(Output::ReplayComplete);
        } else {
            self.mode = Mode::Replay(plan);
        }
    }

    /// Record the replay-duration sample and the `ReplayDone` event.
    fn finish_replay_timing(&mut self) {
        if let Some((start_ns, replayed_before)) = self.replay_started.take() {
            let replay_ns = self.obs.now_ns().saturating_sub(start_ns);
            self.timings.replay.record(replay_ns);
            self.obs.record(
                self.clock.value(),
                ProtoEvent::ReplayDone {
                    replayed: self.metrics.replayed_deliveries - replayed_before,
                    replay_ns,
                },
            );
        }
    }

    /// Feed one input and process it to completion. Outputs accumulate and
    /// are collected with [`drain_outputs`](Self::drain_outputs).
    pub fn handle(&mut self, input: Input) -> Result<(), ReplayError> {
        match input {
            Input::AppSend { dst, payload } => self.on_app_send(dst, payload),
            Input::AppRecv => self.on_app_recv()?,
            Input::AppProbe => self.on_app_probe(),
            Input::Peer { from, msg } => self.on_peer(from, msg)?,
            Input::ElAck { up_to } => self.on_el_ack(up_to),
            Input::ElReplicaAck { replica, up_to } => self.on_el_replica_ack(replica, up_to),
            Input::ElReplicaRevived { replica, up_to } => {
                self.on_el_replica_ack(replica, up_to);
                self.reship_to(replica);
            }
            Input::CheckpointOrder => {
                self.ckpt_pending = true;
            }
            Input::CheckpointStored => self.on_checkpoint_stored(),
            Input::FlushEvents => self.flush_events(),
        }
        Ok(())
    }

    /// Drain the accumulated commands.
    pub fn drain_outputs(&mut self) -> Vec<Output> {
        self.outputs.drain(..).collect()
    }

    /// Take the oldest accumulated command, if any. The allocation-free
    /// form of [`drain_outputs`](Self::drain_outputs) for hosts that
    /// pump after every input.
    pub fn pop_output(&mut self) -> Option<Output> {
        self.outputs.pop_front()
    }

    /// Commands accumulated and not yet taken by the host.
    pub fn outputs_pending(&self) -> usize {
        self.outputs.len()
    }

    /// Activity counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// This engine's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn world(&self) -> u32 {
        self.world
    }

    /// Current logical clock value.
    pub fn clock(&self) -> u64 {
        self.clock.value()
    }

    /// Bytes currently held by the sender-based log (scheduler status).
    pub fn logged_bytes(&self) -> u64 {
        self.saved.bytes_held()
    }

    /// Whether the engine is replaying.
    pub fn is_replaying(&self) -> bool {
        matches!(self.mode, Mode::Replay(_))
    }

    /// True when the WAITLOGGED gate is open (diagnostics/tests).
    pub fn gate_open(&self) -> bool {
        self.gate.is_open()
    }

    /// Data sends queued behind the closed gate, awaiting an EL ack.
    pub fn gated_send_count(&self) -> usize {
        self.gated.len()
    }

    /// Whether this recovering incarnation still waits for a peer's
    /// `RESTART1`/`RESTART2` (always false outside recovery).
    pub fn awaiting_restart_answers(&self) -> bool {
        self.handshaken
            .as_ref()
            .is_some_and(|hs| hs.len() + 1 < self.world as usize)
    }

    /// Has this incarnation heard `q`'s `RESTART1`/`RESTART2` (or is it
    /// not recovering)?
    fn heard_restart_from(&self, q: Rank) -> bool {
        self.handshaken.as_ref().is_none_or(|hs| hs.contains(&q))
    }

    /// Change the batch size bound (0 is treated as 1), e.g. after
    /// [`restore`](Self::restore), which always starts from
    /// [`DEFAULT_BATCH_MAX_EVENTS`]. Immediately flushes if the backlog
    /// already reaches the new bound.
    pub fn set_batch_bound(&mut self, max_events: usize) {
        self.batch_max = max_events.max(1);
        if self.pending_events.len() >= self.batch_max {
            self.flush_events();
        }
    }

    /// Arrived messages waiting in the receive buffer for an `AppRecv`
    /// (live mode; replayed deliveries come from the plan instead).
    pub fn recv_backlog(&self) -> usize {
        self.recv_buffer.len()
    }

    /// Number of delivered receptions whose events have not been shipped
    /// to the event logger yet.
    pub fn pending_event_count(&self) -> usize {
        self.pending_events.len()
    }

    /// Ship every pending reception event as one batch. A no-op when the
    /// backlog is empty.
    pub fn flush_events(&mut self) {
        if self.pending_events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.pending_events);
        self.metrics.el_batches_sent += 1;
        self.metrics.el_events_batched += events.len() as u64;
        self.metrics.el_max_batch_events =
            self.metrics.el_max_batch_events.max(events.len() as u64);
        let from_clock = events.first().expect("non-empty batch").receiver_clock;
        let up_to = events.last().expect("non-empty batch").receiver_clock;
        self.el_inflight.push_back((up_to, self.obs.now_ns()));
        if self.el_replicas > 1 {
            self.el_unacked.extend(events.iter().copied());
        }
        self.obs.record(
            self.clock.value(),
            ProtoEvent::ElShip {
                events: events.len() as u64,
                from_clock,
                up_to,
            },
        );
        self.outputs.push_back(Output::LogEvents(EventBatch {
            owner: self.rank,
            events,
        }));
    }

    fn peers(&self) -> impl Iterator<Item = Rank> + '_ {
        let me = self.rank;
        (0..self.world).map(Rank).filter(move |&q| q != me)
    }

    // --- send path -------------------------------------------------------

    fn on_app_send(&mut self, dst: Rank, payload: Payload) {
        assert_ne!(
            dst, self.rank,
            "self-sends must be short-circuited by the MPI layer"
        );
        let h = self.clock.tick();
        let bytes = payload.len() as u64;
        // SAVED is appended unconditionally (Lemma 1: re-executed sends
        // rebuild the log even when their transmission is suppressed).
        self.saved.append(dst, h, payload.clone());
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += bytes;
        if self.marks.should_transmit_to(dst, h) && self.heard_restart_from(dst) {
            self.marks.on_transmit_to(dst, h);
            // The disposition is decided by the same predicate
            // `send_data` uses, so the record matches what the gate
            // actually did with the payload.
            let disposition = if self.gate.is_open() && self.gated.is_empty() {
                SendDisposition::Wire
            } else {
                SendDisposition::Gated
            };
            self.obs.record(
                h,
                ProtoEvent::Send {
                    to: dst.0,
                    clock: h,
                    bytes,
                    disposition,
                },
            );
            let msg = PeerMsg::Data(DataMsg {
                id: MsgId::new(self.rank, h),
                dst,
                payload,
            });
            self.send_data(dst, msg);
        } else {
            // Either the peer provably holds it, or it has not answered
            // our RESTART1 yet: its answer's re-send round carries the
            // message from SAVED if it lacks it.
            self.metrics.transmissions_suppressed += 1;
            self.obs.record(
                h,
                ProtoEvent::Send {
                    to: dst.0,
                    clock: h,
                    bytes,
                    disposition: SendDisposition::Suppressed,
                },
            );
        }
    }

    /// Funnel a data transmission through the pessimism gate.
    fn send_data(&mut self, to: Rank, msg: PeerMsg) {
        debug_assert!(matches!(msg, PeerMsg::Data(_)));
        if self.gate.is_open() && self.gated.is_empty() {
            self.outputs.push_back(Output::Transmit { to, msg });
        } else {
            self.metrics.gate_deferred_sends += 1;
            let deferred_clock = match &msg {
                PeerMsg::Data(d) => d.id.sender_clock,
                _ => 0,
            };
            self.gated.push_back((to, msg, self.obs.now_ns()));
            self.obs.record(
                self.clock.value(),
                ProtoEvent::GateDefer {
                    to: to.0,
                    clock: deferred_clock,
                    queued: self.gated.len() as u64,
                },
            );
            // The send now waits on the EL ack of the deliveries that shut
            // the gate; ship their events or the ack can never arrive.
            self.flush_events();
        }
    }

    fn flush_gated(&mut self) {
        if !self.gate.is_open() || self.gated.is_empty() {
            return;
        }
        let now = self.obs.now_ns();
        let mut released = 0u64;
        let mut oldest_wait = 0u64;
        while let Some((to, msg, enqueued_ns)) = self.gated.pop_front() {
            let waited = now.saturating_sub(enqueued_ns);
            self.metrics.gate_wait_ns += waited;
            self.timings.gate_wait.record(waited);
            oldest_wait = oldest_wait.max(waited);
            released += 1;
            self.outputs.push_back(Output::Transmit { to, msg });
        }
        self.obs.record(
            self.clock.value(),
            ProtoEvent::GateOpen {
                released,
                waited_ns: oldest_wait,
            },
        );
    }

    // --- receive path ----------------------------------------------------

    fn on_app_recv(&mut self) -> Result<(), ReplayError> {
        debug_assert!(!self.app_waiting_recv && !self.app_waiting_probe);
        self.app_waiting_recv = true;
        self.progress_delivery()
    }

    fn on_app_probe(&mut self) {
        debug_assert!(!self.app_waiting_recv && !self.app_waiting_probe);
        match &mut self.mode {
            Mode::Normal => {
                let pending = !self.recv_buffer.is_empty();
                if !pending {
                    self.probes_since_delivery += 1;
                    self.metrics.failed_probes += 1;
                }
                self.outputs.push_back(Output::ProbeAnswer(pending));
            }
            Mode::Replay(plan) => match plan.probe() {
                ProbeVerdict::ReplayNo => {
                    self.metrics.failed_probes += 1;
                    self.outputs.push_back(Output::ProbeAnswer(false));
                }
                ProbeVerdict::ReplayYes => self.outputs.push_back(Output::ProbeAnswer(true)),
                ProbeVerdict::Defer => self.app_waiting_probe = true,
            },
        }
    }

    /// Try to satisfy a blocked `AppRecv` (both modes) and finish the
    /// replay when it runs dry.
    fn progress_delivery(&mut self) -> Result<(), ReplayError> {
        if !self.app_waiting_recv {
            return Ok(());
        }
        match &mut self.mode {
            Mode::Normal => {
                if let Some((from, h, payload)) = self.recv_buffer.pop_front() {
                    self.app_waiting_recv = false;
                    self.deliver_normal(from, h, payload);
                }
                Ok(())
            }
            Mode::Replay(plan) => {
                match plan.try_deliver(self.clock.value())? {
                    Some((ev, payload)) => {
                        self.app_waiting_recv = false;
                        let rc = self.clock.tick();
                        debug_assert_eq!(rc, ev.receiver_clock);
                        let fresh = self.marks.on_delivery_from(ev.sender, ev.sender_clock);
                        debug_assert!(fresh, "replayed delivery below HR watermark");
                        self.metrics.msgs_delivered += 1;
                        self.metrics.replayed_deliveries += 1;
                        self.metrics.bytes_delivered += payload.len() as u64;
                        self.obs.record(
                            rc,
                            ProtoEvent::ReplayStep {
                                from: ev.sender.0,
                                sender_clock: ev.sender_clock,
                                receiver_clock: rc,
                            },
                        );
                        self.outputs.push_back(Output::Deliver {
                            from: ev.sender,
                            payload,
                        });
                        self.maybe_finish_replay();
                        Ok(())
                    }
                    None => Ok(()), // wait for the re-sent message
                }
            }
        }
    }

    /// Normal-mode delivery: tick, log the 4-field event, gate, deliver.
    fn deliver_normal(&mut self, from: Rank, sender_clock: u64, payload: Payload) {
        let rc = self.clock.tick();
        self.obs.record(
            rc,
            ProtoEvent::Deliver {
                from: from.0,
                sender_clock,
                receiver_clock: rc,
                replay: false,
            },
        );
        let hr_before = self.marks.hr(from);
        let fresh = self.marks.on_delivery_from(from, sender_clock);
        debug_assert!(
            fresh,
            "arrival filter let a duplicate through: rank {} delivering from {} clock {} but HR={} (rc {})",
            self.rank, from, sender_clock, hr_before, rc
        );
        let ev = ReceptionEvent {
            sender: from,
            sender_clock,
            receiver_clock: rc,
            probes: self.probes_since_delivery,
        };
        self.probes_since_delivery = 0;
        self.gate.on_scheduled(rc);
        self.metrics.events_logged += 1;
        self.metrics.msgs_delivered += 1;
        self.metrics.bytes_delivered += payload.len() as u64;
        self.pending_events.push(ev);
        // Flush at the size bound, or when transmissions are already
        // queued behind the gate: their release needs the EL to ack this
        // very event.
        if self.pending_events.len() >= self.batch_max || !self.gated.is_empty() {
            self.flush_events();
        }
        self.outputs.push_back(Output::Deliver { from, payload });
    }

    fn maybe_finish_replay(&mut self) {
        let Mode::Replay(plan) = &self.mode else {
            return;
        };
        if !plan.is_done() {
            return;
        }
        let Mode::Replay(plan) = std::mem::replace(&mut self.mode, Mode::Normal) else {
            unreachable!()
        };
        // Deliver parked futures per-pair in sender-clock order (any
        // cross-pair interleaving is a legal fresh nondeterministic
        // order; within a pair MPI non-overtaking requires clock order).
        let mut futures = plan.into_future_arrivals();
        futures.sort_by_key(|(id, _)| (id.sender, id.sender_clock));
        for (id, payload) in futures {
            // A "future" at or below HR is no future at all: it duplicates
            // a delivery the logged history already contains (a peer's
            // later RESTART resend round can re-offer messages whose
            // logged position was consumed, or cover clocks the history
            // recorded under different positions). Exactly-once demands
            // dropping it — parking it would push a below-watermark
            // message into the live receive buffer.
            if id.sender_clock <= self.marks.hr(id.sender) {
                self.metrics.duplicates_dropped += 1;
                self.obs.record(
                    self.clock.value(),
                    ProtoEvent::DuplicateDropped {
                        from: id.sender.0,
                        sender_clock: id.sender_clock,
                    },
                );
                continue;
            }
            let high = &mut self.buffered_high[id.sender.idx()];
            *high = (*high).max(id.sender_clock);
            self.recv_buffer
                .push_back((id.sender, id.sender_clock, payload));
        }
        // Replay completion is a forced-flush point (normally a no-op:
        // replayed deliveries are never re-logged).
        self.flush_events();
        self.finish_replay_timing();
        self.metrics.replays_completed += 1;
        self.outputs.push_back(Output::ReplayComplete);
    }

    // --- peer messages ---------------------------------------------------

    fn on_peer(&mut self, from: Rank, msg: PeerMsg) -> Result<(), ReplayError> {
        match msg {
            PeerMsg::Data(data) => {
                if !self.heard_restart_from(from) {
                    // Old-connection leftover racing our recovery.
                    self.metrics.duplicates_dropped += 1;
                    self.obs.record(
                        self.clock.value(),
                        ProtoEvent::DuplicateDropped {
                            from: from.0,
                            sender_clock: data.id.sender_clock,
                        },
                    );
                    return Ok(());
                }
                self.on_peer_data(from, data)
            }
            PeerMsg::Restart1 { last_received } => {
                self.on_restart_watermark(from, last_received, true);
                Ok(())
            }
            PeerMsg::Restart2 { last_received } => {
                self.on_restart_watermark(from, last_received, false);
                Ok(())
            }
            PeerMsg::CkptNotify { watermark } => {
                let freed = self.saved.collect(from, watermark);
                self.metrics.gc_bytes_freed += freed;
                self.obs.record(
                    self.clock.value(),
                    ProtoEvent::CkptGc {
                        peer: from.0,
                        bytes_freed: freed,
                    },
                );
                Ok(())
            }
        }
    }

    fn on_peer_data(&mut self, from: Rank, data: DataMsg) -> Result<(), ReplayError> {
        debug_assert_eq!(data.id.sender, from, "spoofed sender");
        debug_assert_eq!(data.dst, self.rank, "misrouted message");
        let h = data.id.sender_clock;
        match &mut self.mode {
            Mode::Normal => {
                // Exactly-once filter: delivered clocks are below `HR`;
                // arrived-but-undelivered ones sit in the buffer. Checked
                // by membership, not watermark — see `recv_buffer`.
                let already_delivered = self.marks.is_duplicate_from(from, h);
                // In-order arrival (the FIFO-channel common case): above
                // everything this peer ever had buffered, so it is not
                // in the buffer and belongs at its end — no scan.
                let high = &mut self.buffered_high[from.idx()];
                if !already_delivered && h > *high {
                    *high = h;
                    self.recv_buffer.push_back((from, h, data.payload));
                    return self.progress_delivery();
                }
                let already_buffered = self
                    .recv_buffer
                    .iter()
                    .any(|(q, hq, _)| *q == from && *hq == h);
                if already_delivered || already_buffered {
                    self.metrics.duplicates_dropped += 1;
                    self.obs.record(
                        self.clock.value(),
                        ProtoEvent::DuplicateDropped {
                            from: from.0,
                            sender_clock: h,
                        },
                    );
                    return Ok(());
                }
                // Insert keeping the per-sender clock order: a RESTART
                // resend can legitimately arrive behind an in-flight copy
                // of a *later* message from the peer's previous view.
                let at = self
                    .recv_buffer
                    .iter()
                    .position(|(q, hq, _)| *q == from && *hq > h)
                    .unwrap_or(self.recv_buffer.len());
                self.recv_buffer.insert(at, (from, h, data.payload));
                // A blocked probe can only exist in replay mode; a blocked
                // recv may now complete.
                self.progress_delivery()
            }
            Mode::Replay(plan) => {
                if self.marks.is_duplicate_from(from, h) {
                    self.metrics.duplicates_dropped += 1;
                    self.obs.record(
                        self.clock.value(),
                        ProtoEvent::DuplicateDropped {
                            from: from.0,
                            sender_clock: h,
                        },
                    );
                    return Ok(());
                }
                match plan.offer(data.id, data.payload) {
                    Offer::Stored => {
                        if self.app_waiting_probe {
                            match plan.probe() {
                                ProbeVerdict::ReplayYes => {
                                    self.app_waiting_probe = false;
                                    self.outputs.push_back(Output::ProbeAnswer(true));
                                }
                                ProbeVerdict::ReplayNo => {
                                    // Cannot happen: Defer only occurs past
                                    // the probe budget.
                                    self.app_waiting_probe = false;
                                    self.metrics.failed_probes += 1;
                                    self.outputs.push_back(Output::ProbeAnswer(false));
                                }
                                ProbeVerdict::Defer => {}
                            }
                        }
                        self.progress_delivery()
                    }
                    Offer::Future => Ok(()),
                }
            }
        }
    }

    /// Common half of the `RESTART1` / `RESTART2` rules: set `HS` from the
    /// peer's watermark and re-send newer saved messages; `RESTART1`
    /// additionally answers with `RESTART2`. A `RESTART2` from a peer
    /// whose `RESTART1` this incarnation has already handled re-sends
    /// nothing: that round covered all of SAVED above an older watermark
    /// of the same peer incarnation, and what it queued must not be
    /// purged.
    fn on_restart_watermark(&mut self, from: Rank, last_received: u64, reply: bool) {
        let already_resent = match &mut self.handshaken {
            Some(hs) => !hs.insert(from) && !reply,
            None => false,
        };
        self.marks.set_hs_from_restart(from, last_received);
        self.obs.record(
            self.clock.value(),
            ProtoEvent::Restart2 {
                peer: from.0,
                watermark: last_received,
            },
        );
        if reply {
            let mine = self.marks.hr(from);
            self.outputs.push_back(Output::Transmit {
                to: from,
                msg: PeerMsg::Restart2 {
                    last_received: mine,
                },
            });
        }
        if already_resent {
            return;
        }
        // Purge transmissions to the restarting peer still queued behind
        // the gate: they were addressed to its dead incarnation, and
        // leaving them in place would emit them *ahead* of the (older)
        // SAVED resends queued below, breaking the ascending per-peer
        // wire order the receiver's replay relies on. Every purged
        // payload the peer still needs is covered by `resend_after`
        // (emission appends to SAVED before gating); purged clocks at or
        // below `last_received` were already received and need nothing.
        // A purged send leaves the queue unreleased; its wait is sampled
        // all the same, so every deferred send is sampled exactly once.
        let now = self.obs.now_ns();
        let (metrics, timings) = (&mut self.metrics, &mut self.timings);
        self.gated.retain(|(to, _, enqueued_ns)| {
            if *to != from {
                return true;
            }
            let waited = now.saturating_sub(*enqueued_ns);
            metrics.gate_wait_ns += waited;
            timings.gate_wait.record(waited);
            false
        });
        let resends: Vec<_> = self.saved.resend_after(from, last_received).collect();
        for s in resends {
            self.marks.on_transmit_to(from, s.sender_clock);
            self.metrics.retransmissions += 1;
            let msg = PeerMsg::Data(DataMsg {
                id: MsgId::new(self.rank, s.sender_clock),
                dst: from,
                payload: s.payload,
            });
            self.send_data(from, msg);
        }
    }

    /// The hosting daemon could not hand a data transmission at our clock
    /// `h` to `to`: the peer's incarnation is gone and the message died
    /// with its mailbox. Retract the optimistic `HS` advance recorded at
    /// emission time, or a checkpoint of the inflated mark would suppress
    /// the healing re-sends across our own later restart (see
    /// [`Watermarks::rollback_hs_below`]).
    pub fn on_transmit_dropped(&mut self, to: Rank, h: u64) {
        self.marks.rollback_hs_below(to, h);
    }

    // --- event logger ----------------------------------------------------

    fn on_el_ack(&mut self, up_to: u64) {
        self.metrics.el_acks_received += 1;
        // Retire every shipped batch the (possibly coalesced,
        // high-watermark) ack covers, crediting each with its own
        // ship→ack round-trip.
        let now = self.obs.now_ns();
        let mut batches_retired = 0u64;
        let mut oldest_rtt = 0u64;
        while let Some(&(batch_up_to, shipped_ns)) = self.el_inflight.front() {
            if batch_up_to > up_to {
                break;
            }
            self.el_inflight.pop_front();
            let rtt = now.saturating_sub(shipped_ns);
            self.metrics.el_batches_acked += 1;
            self.metrics.el_ack_rtt_ns += rtt;
            self.timings.el_ack_rtt.record(rtt);
            oldest_rtt = oldest_rtt.max(rtt);
            batches_retired += 1;
        }
        self.obs.record(
            self.clock.value(),
            ProtoEvent::ElAck {
                up_to,
                batches_retired,
                rtt_ns: oldest_rtt,
            },
        );
        if self.gate.on_ack(up_to) {
            self.flush_gated();
        }
    }

    /// One replica of this rank's shard acked. The pessimism gate may
    /// only trust a receiver clock once a quorum of replicas has stored
    /// it — the Q-th largest per-replica watermark — so a single
    /// replica crash neither loses a gate-released dependency nor
    /// stalls the gate (the surviving majority keeps acking).
    fn on_el_replica_ack(&mut self, replica: u32, up_to: u64) {
        if self.el_replicas <= 1 {
            // Unreplicated: the replica ack *is* the ack.
            self.on_el_ack(up_to);
            return;
        }
        self.metrics.el_acks_received += 1;
        self.obs.record(
            self.clock.value(),
            ProtoEvent::ElReplicaAck {
                // The engine only ever talks to its own shard; the
                // hosting daemon rewrites the shard index when it
                // forwards dumps, so 0 here means "my shard".
                shard: 0,
                replica,
                up_to,
            },
        );
        let Some(slot) = self.el_replica_acked.get_mut(replica as usize) else {
            return;
        };
        // Monotone: a reordered stale ack may not regress the replica.
        *slot = (*slot).max(up_to);
        let mut sorted = self.el_replica_acked.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let quorum_w = sorted[(self.el_quorum as usize - 1).min(sorted.len() - 1)];
        if quorum_w > self.el_quorum_acked {
            self.el_quorum_acked = quorum_w;
            while self
                .el_unacked
                .front()
                .is_some_and(|e| e.receiver_clock <= quorum_w)
            {
                self.el_unacked.pop_front();
            }
            // Feed the quorum watermark through the single-ack path:
            // batch retirement, RTT accounting and the gate all see
            // exactly one (coalesced) ack per quorum
            // advance. The extra el_acks_received bump above keeps the
            // per-replica traffic visible in the metrics.
            self.metrics.el_acks_received -= 1;
            self.on_el_ack(quorum_w);
        }
    }

    /// `replica` was revived over what its live siblings held when it
    /// caught up: re-ship it exactly the suffix above its watermark that
    /// the quorum has not acked yet. A batch that died with its mailbox,
    /// or was sent while it was down, and that no sibling had stored at
    /// the catch-up, would otherwise hold the quorum watermark — and the
    /// gate — below it for good.
    fn reship_to(&mut self, replica: u32) {
        let Some(&acked) = self.el_replica_acked.get(replica as usize) else {
            return;
        };
        let events: Vec<ReceptionEvent> = self
            .el_unacked
            .iter()
            .filter(|e| e.receiver_clock > acked)
            .copied()
            .collect();
        if !events.is_empty() {
            self.outputs.push_back(Output::ReshipEvents {
                replica,
                batch: EventBatch {
                    owner: self.rank,
                    events,
                },
            });
        }
    }

    // --- checkpointing ---------------------------------------------------

    /// Attempt to start a pending checkpoint *now*. Called by the hosting
    /// daemon when the MPI process polls a checkpoint site — the quiescent
    /// point of our cooperative (Condor-substituting) checkpointing. Arms
    /// only when a checkpoint was ordered, none is in flight, and the
    /// protocol is quiescent (live mode, open gate, no queued
    /// transmissions). Returns the image clock; the caller must then call
    /// [`snapshot`](Self::snapshot) immediately, before feeding any other
    /// input.
    pub fn try_arm_checkpoint(&mut self) -> Option<u64> {
        if !self.ckpt_pending || self.ckpt_in_flight.is_some() {
            return None;
        }
        // An ordered checkpoint forces the flush: the quiescence condition
        // below needs the gate re-openable, and the gate cannot reopen
        // while the events it waits on sit unshipped.
        self.flush_events();
        if self.is_replaying() || !self.gate.is_open() || !self.gated.is_empty() {
            return None;
        }
        self.ckpt_pending = false;
        let clock = self.clock.value();
        let watermarks: Vec<(Rank, u64)> = self.peers().map(|q| (q, self.marks.hr(q))).collect();
        self.obs.record(
            clock,
            ProtoEvent::CkptBegin {
                seq: self.metrics.checkpoints_taken + 1,
                bytes: self.saved.bytes_held(),
            },
        );
        self.ckpt_in_flight = Some(CkptInFlight {
            clock,
            watermarks,
            armed_ns: self.obs.now_ns(),
        });
        Some(clock)
    }

    fn on_checkpoint_stored(&mut self) {
        let Some(CkptInFlight {
            clock,
            watermarks,
            armed_ns,
        }) = self.ckpt_in_flight.take()
        else {
            return;
        };
        self.metrics.checkpoints_taken += 1;
        let store_ns = self.obs.now_ns().saturating_sub(armed_ns);
        self.timings.ckpt_store.record(store_ns);
        self.obs.record(
            self.clock.value(),
            ProtoEvent::CkptCommit {
                seq: self.metrics.checkpoints_taken,
                store_ns,
            },
        );
        // §4.6.1: notify every other daemon so they can garbage-collect
        // the messages we received before this checkpoint — "before" being
        // the snapshot instant, not the (later) durability ack.
        for (q, watermark) in watermarks {
            self.outputs.push_back(Output::Transmit {
                to: q,
                msg: PeerMsg::CkptNotify { watermark },
            });
        }
        self.outputs.push_back(Output::ElTruncate { up_to: clock });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(n: u8) -> Payload {
        Payload::from_vec(vec![n])
    }

    /// A fresh engine whose batches hold at most `max_events` events.
    fn bounded(rank: Rank, world: u32, max_events: usize) -> V2Engine {
        let mut e = V2Engine::fresh(rank, world);
        e.set_batch_bound(max_events);
        e
    }

    /// Collect outputs, asserting the pessimism invariant on every data
    /// transmission.
    fn outs(e: &mut V2Engine) -> Vec<Output> {
        e.drain_outputs()
    }

    fn data_out(outs: &[Output]) -> Vec<(Rank, MsgId, Payload)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::Transmit {
                    to,
                    msg: PeerMsg::Data(d),
                } => Some((*to, d.id, d.payload.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn send_emits_and_saves() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(7),
        })
        .unwrap();
        let o = outs(&mut e);
        let d = data_out(&o);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, MsgId::new(Rank(0), 1));
        assert_eq!(e.logged_bytes(), 1);
        assert_eq!(e.clock(), 1);
    }

    #[test]
    fn delivery_logs_event_then_gates_next_send() {
        // Batch bound 1: the eager one-round-trip-per-message protocol.
        let mut e = bounded(Rank(1), 2, 1);
        // A message arrives; the app receives it.
        e.handle(Input::AppRecv).unwrap();
        e.handle(Input::Peer {
            from: Rank(0),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(0), 1),
                dst: Rank(1),
                payload: pl(1),
            }),
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(|x| matches!(x, Output::Deliver { .. })));
        let ev = o
            .iter()
            .find_map(|x| match x {
                Output::LogEvents(b) => Some(b.events[0]),
                _ => None,
            })
            .expect("event logged");
        assert_eq!(ev.sender, Rank(0));
        assert_eq!(ev.sender_clock, 1);
        assert_eq!(ev.receiver_clock, 1);
        assert_eq!(ev.probes, 0);
        assert!(!e.gate_open());

        // The app now sends: the transmission must wait for the EL ack.
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(2),
        })
        .unwrap();
        assert!(
            data_out(&outs(&mut e)).is_empty(),
            "payload leaked past a closed gate"
        );
        e.handle(Input::ElAck { up_to: 1 }).unwrap();
        let d = data_out(&outs(&mut e));
        assert_eq!(d.len(), 1);
        assert_eq!(e.metrics().gate_deferred_sends, 1);
    }

    #[test]
    fn probes_counted_and_attached_to_next_event() {
        let mut e = bounded(Rank(1), 2, 1);
        e.handle(Input::AppProbe).unwrap();
        assert_eq!(outs(&mut e), vec![Output::ProbeAnswer(false)]);
        e.handle(Input::AppProbe).unwrap();
        outs(&mut e);
        e.handle(Input::Peer {
            from: Rank(0),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(0), 1),
                dst: Rank(1),
                payload: pl(1),
            }),
        })
        .unwrap();
        e.handle(Input::AppProbe).unwrap();
        assert_eq!(outs(&mut e), vec![Output::ProbeAnswer(true)]);
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        let ev = o
            .iter()
            .find_map(|x| match x {
                Output::LogEvents(b) => Some(b.events[0]),
                _ => None,
            })
            .unwrap();
        assert_eq!(ev.probes, 2, "only unsuccessful probes count");
    }

    #[test]
    fn duplicate_arrivals_dropped() {
        let mut e = V2Engine::fresh(Rank(1), 2);
        let m = PeerMsg::Data(DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: pl(1),
        });
        e.handle(Input::Peer {
            from: Rank(0),
            msg: m.clone(),
        })
        .unwrap();
        e.handle(Input::Peer {
            from: Rank(0),
            msg: m,
        })
        .unwrap();
        assert_eq!(e.metrics().duplicates_dropped, 1);
        // Only one delivery possible.
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        assert_eq!(
            o.iter()
                .filter(|x| matches!(x, Output::Deliver { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn restart1_triggers_restart2_and_resends() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        for i in 0..3 {
            e.handle(Input::AppSend {
                dst: Rank(1),
                payload: pl(i),
            })
            .unwrap();
        }
        outs(&mut e);
        // Peer restarts having received only clock 1.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart1 { last_received: 1 },
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(
            |x| matches!(x, Output::Transmit { to, msg: PeerMsg::Restart2 { last_received: 0 } } if *to == Rank(1))
        ));
        let d = data_out(&o);
        assert_eq!(d.len(), 2, "clocks 2 and 3 re-sent");
        assert_eq!(d[0].1.sender_clock, 2);
        assert_eq!(d[1].1.sender_clock, 3);
        assert_eq!(e.metrics().retransmissions, 2);
    }

    /// The one `RESTART1` (or `RESTART2`) in `o`, as the peer receives it.
    fn restart_msg(o: &[Output]) -> PeerMsg {
        let mut it = o.iter().filter_map(|x| match x {
            Output::Transmit { msg, .. } if !matches!(msg, PeerMsg::Data(_)) => Some(msg.clone()),
            _ => None,
        });
        let msg = it.next().expect("a RESTART message");
        assert!(it.next().is_none(), "one RESTART message per peer");
        msg
    }

    #[test]
    fn ranks_restarting_together_send_each_saved_message_once() {
        // Rank 0 sent clocks 1 and 2 to rank 1, rank 1 sent clock 1 to
        // rank 0; both restart from images taken right after, and every
        // message died in flight.
        let mut images = Vec::new();
        for (r, sends) in [(0u32, 2u8), (1, 1)] {
            let mut e = V2Engine::fresh(Rank(r), 2);
            for i in 0..sends {
                e.handle(Input::AppSend {
                    dst: Rank(1 - r),
                    payload: pl(i),
                })
                .unwrap();
            }
            images.push(e.snapshot());
        }
        let mut e: Vec<V2Engine> = images.into_iter().map(V2Engine::restore).collect();
        let mut r1 = Vec::new();
        for x in e.iter_mut() {
            x.begin_recovery(vec![]);
            assert!(x.awaiting_restart_answers());
            r1.push(restart_msg(&outs(x)));
        }
        // Rank 0 re-executes a send before rank 1 has answered: it stays
        // in SAVED.
        e[0].handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(2),
        })
        .unwrap();
        assert!(
            data_out(&outs(&mut e[0])).is_empty(),
            "sent before the answer"
        );
        assert_eq!(e[0].metrics().transmissions_suppressed, 1);
        // Both RESTART1s cross; each answer re-sends everything the peer
        // lacks, the held send included.
        let mut data: Vec<Vec<u64>> = vec![Vec::new(); 2];
        let mut r2 = Vec::new();
        for (to, msg) in [(0usize, r1[1].clone()), (1, r1[0].clone())] {
            let from = Rank(1 - to as u32);
            e[to].handle(Input::Peer { from, msg }).unwrap();
            let o = outs(&mut e[to]);
            data[to].extend(data_out(&o).iter().map(|d| d.1.sender_clock));
            r2.push(restart_msg(&o));
            assert!(!e[to].awaiting_restart_answers());
        }
        assert_eq!(data, vec![vec![1, 2, 3], vec![1]]);
        // The RESTART2s re-send nothing: that round already happened.
        for (to, msg) in [(0usize, r2[1].clone()), (1, r2[0].clone())] {
            let from = Rank(1 - to as u32);
            assert!(matches!(msg, PeerMsg::Restart2 { last_received: 0 }));
            e[to].handle(Input::Peer { from, msg }).unwrap();
            assert!(outs(&mut e[to]).is_empty(), "rank {to} re-sent twice");
        }
        assert_eq!(e[0].metrics().retransmissions, 3);
        assert_eq!(e[1].metrics().retransmissions, 1);
    }

    #[test]
    fn resends_respect_the_gate() {
        let mut e = V2Engine::fresh(Rank(0), 3);
        // Deliver something so the gate closes.
        e.handle(Input::Peer {
            from: Rank(2),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(2), 1),
                dst: Rank(0),
                payload: pl(9),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        outs(&mut e);
        assert!(!e.gate_open());
        // An earlier send exists in SAVED.
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(1),
        })
        .unwrap();
        outs(&mut e);
        // Peer 1 restarts: the resend must NOT leak while the gate is shut.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart1 { last_received: 0 },
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(data_out(&o).is_empty(), "resend leaked past a closed gate");
        // RESTART2 itself (control) is allowed through.
        assert!(o.iter().any(|x| matches!(
            x,
            Output::Transmit {
                msg: PeerMsg::Restart2 { .. },
                ..
            }
        )));
        e.handle(Input::ElAck { up_to: 1 }).unwrap();
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
    }

    #[test]
    fn suppressed_reexecuted_sends_still_rebuild_saved() {
        let snap = EngineSnapshot {
            rank: Rank(0),
            world: 2,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut e = V2Engine::restore(snap);
        e.begin_recovery(vec![]);
        outs(&mut e);
        // Peer already received our clock-1 message (its RESTART2 says so).
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 1 },
        })
        .unwrap();
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(1),
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(
            data_out(&o).is_empty(),
            "suppressed re-send must not transmit"
        );
        assert_eq!(e.metrics().transmissions_suppressed, 1);
        assert!(
            e.saved.get(Rank(1), 1).is_some(),
            "SAVED must be rebuilt (Lemma 1)"
        );
        // The next (new) send transmits normally.
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(2),
        })
        .unwrap();
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
    }

    #[test]
    fn replay_forces_logged_order() {
        // Restarted process logged: (r1,c1)@rc1 then (r2,c1)@rc2.
        let snap = EngineSnapshot {
            rank: Rank(0),
            world: 3,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut e = V2Engine::restore(snap);
        e.begin_recovery(vec![
            ReceptionEvent {
                sender: Rank(1),
                sender_clock: 1,
                receiver_clock: 1,
                probes: 0,
            },
            ReceptionEvent {
                sender: Rank(2),
                sender_clock: 1,
                receiver_clock: 2,
                probes: 0,
            },
        ]);
        let o = outs(&mut e);
        // RESTART1 broadcast to both peers.
        assert_eq!(
            o.iter()
                .filter(|x| matches!(
                    x,
                    Output::Transmit {
                        msg: PeerMsg::Restart1 { .. },
                        ..
                    }
                ))
                .count(),
            2
        );
        assert!(e.is_replaying());
        // Peers answer the handshake before any data (connection
        // establishment).
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        e.handle(Input::Peer {
            from: Rank(2),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        // Peer 2's message arrives first but must NOT be delivered first.
        e.handle(Input::Peer {
            from: Rank(2),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(2), 1),
                dst: Rank(0),
                payload: pl(2),
            }),
        })
        .unwrap();
        assert!(outs(&mut e)
            .iter()
            .all(|x| !matches!(x, Output::Deliver { .. })));
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(matches!(&o[..], [Output::Deliver { from, .. }] if *from == Rank(1)));
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        assert!(o
            .iter()
            .any(|x| matches!(x, Output::Deliver { from, .. } if *from == Rank(2))));
        assert!(o.iter().any(|x| matches!(x, Output::ReplayComplete)));
        assert!(!e.is_replaying());
        assert_eq!(e.metrics().replayed_deliveries, 2);
        // Replayed deliveries are NOT re-logged.
        assert_eq!(e.metrics().events_logged, 0);
    }

    #[test]
    fn future_arrivals_delivered_after_replay() {
        let snap = EngineSnapshot {
            rank: Rank(0),
            world: 2,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut e = V2Engine::restore(snap);
        e.set_batch_bound(1);
        e.begin_recovery(vec![ReceptionEvent {
            sender: Rank(1),
            sender_clock: 1,
            receiver_clock: 1,
            probes: 0,
        }]);
        outs(&mut e);
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        // An unlogged (post-crash-point) message arrives during replay.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 5),
                dst: Rank(0),
                payload: pl(5),
            }),
        })
        .unwrap();
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(|x| matches!(x, Output::Deliver { .. })));
        assert!(o.iter().any(|x| matches!(x, Output::ReplayComplete)));
        // The future message is now a fresh, logged reception.
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(|x| matches!(x, Output::Deliver { .. })));
        assert!(o.iter().any(|x| matches!(x, Output::LogEvents(_))));
        assert_eq!(e.clock(), 2);
    }

    #[test]
    fn checkpoint_waits_for_quiescence_then_notifies() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        // Close the gate with a delivery.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        outs(&mut e);
        e.handle(Input::CheckpointOrder).unwrap();
        assert_eq!(
            e.try_arm_checkpoint(),
            None,
            "checkpoint must wait for the ack"
        );
        e.handle(Input::ElAck { up_to: 1 }).unwrap();
        outs(&mut e);
        assert_eq!(e.try_arm_checkpoint(), Some(1));
        assert_eq!(e.try_arm_checkpoint(), None, "already in flight");
        let snap = e.snapshot();
        assert_eq!(snap.clock, 1);
        e.handle(Input::CheckpointStored).unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(
            |x| matches!(x, Output::Transmit { to, msg: PeerMsg::CkptNotify { watermark: 1 } } if *to == Rank(1))
        ));
        assert!(o
            .iter()
            .any(|x| matches!(x, Output::ElTruncate { up_to: 1 })));
        assert_eq!(e.metrics().checkpoints_taken, 1);
    }

    #[test]
    fn gc_watermark_captured_at_snapshot_not_at_store_ack() {
        // Regression: deliveries continuing while the image transfer is in
        // flight must not inflate the GC watermark past what the image
        // covers - or a later restart from that image would need messages
        // the senders already dropped.
        let mut e = V2Engine::fresh(Rank(0), 2);
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        e.handle(Input::ElAck { up_to: 1 }).unwrap();
        e.handle(Input::CheckpointOrder).unwrap();
        assert_eq!(e.try_arm_checkpoint(), Some(1));
        let _snap = e.snapshot();
        // While the image is in flight, another delivery advances HR.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 5),
                dst: Rank(0),
                payload: pl(5),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        outs(&mut e);
        // The stored ack arrives: the notify must carry HR=1 (snapshot
        // instant), not HR=5.
        e.handle(Input::CheckpointStored).unwrap();
        let o = outs(&mut e);
        assert!(
            o.iter().any(|x| matches!(
                x,
                Output::Transmit {
                    msg: PeerMsg::CkptNotify { watermark: 1 },
                    ..
                }
            )),
            "watermark must reflect the snapshot instant: {o:?}"
        );
    }

    #[test]
    fn ckpt_notify_garbage_collects_sender_log() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        for i in 0..4 {
            e.handle(Input::AppSend {
                dst: Rank(1),
                payload: Payload::filled(i, 100),
            })
            .unwrap();
        }
        outs(&mut e);
        assert_eq!(e.logged_bytes(), 400);
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::CkptNotify { watermark: 2 },
        })
        .unwrap();
        assert_eq!(e.logged_bytes(), 200);
        assert_eq!(e.metrics().gc_bytes_freed, 200);
    }

    #[test]
    fn probe_counts_replay_with_deferral() {
        // Original run: probe fails twice, then the message arrives and a
        // recv follows. The replay must answer exactly two probes `false`
        // (even holding the answer if the re-sent payload lags) and then
        // deliver.
        let snap = EngineSnapshot {
            rank: Rank(0),
            world: 2,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut e = V2Engine::restore(snap);
        e.begin_recovery(vec![ReceptionEvent {
            sender: Rank(1),
            sender_clock: 1,
            receiver_clock: 1,
            probes: 2,
        }]);
        outs(&mut e);
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        // First two probes answered false immediately.
        e.handle(Input::AppProbe).unwrap();
        assert_eq!(outs(&mut e), vec![Output::ProbeAnswer(false)]);
        e.handle(Input::AppProbe).unwrap();
        assert_eq!(outs(&mut e), vec![Output::ProbeAnswer(false)]);
        // Third probe: the original succeeded, but the payload is not
        // here yet — the answer is HELD, not falsified.
        e.handle(Input::AppProbe).unwrap();
        assert!(outs(&mut e).is_empty(), "probe answer must be deferred");
        // The re-sent payload arrives: the held probe answers true.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        assert_eq!(outs(&mut e), vec![Output::ProbeAnswer(true)]);
        e.handle(Input::AppRecv).unwrap();
        let o = outs(&mut e);
        assert!(o.iter().any(|x| matches!(x, Output::Deliver { .. })));
        assert!(o.iter().any(|x| matches!(x, Output::ReplayComplete)));
    }

    #[test]
    fn checkpoint_cannot_arm_during_replay() {
        let snap = EngineSnapshot {
            rank: Rank(0),
            world: 2,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut e = V2Engine::restore(snap);
        e.begin_recovery(vec![ReceptionEvent {
            sender: Rank(1),
            sender_clock: 1,
            receiver_clock: 1,
            probes: 0,
        }]);
        outs(&mut e);
        e.handle(Input::CheckpointOrder).unwrap();
        assert_eq!(
            e.try_arm_checkpoint(),
            None,
            "no checkpoints while replaying"
        );
        // Finish the replay; now it can arm.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(1),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        outs(&mut e);
        assert_eq!(e.try_arm_checkpoint(), Some(1));
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_protocol_state() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(1),
        })
        .unwrap();
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(1), 1),
                dst: Rank(0),
                payload: pl(2),
            }),
        })
        .unwrap();
        e.handle(Input::AppRecv).unwrap();
        e.handle(Input::ElAck { up_to: 2 }).unwrap();
        outs(&mut e);
        let snap = e.snapshot();
        let r = V2Engine::restore(snap);
        assert_eq!(r.clock(), e.clock());
        assert_eq!(r.logged_bytes(), e.logged_bytes());
        assert_eq!(r.marks.hr(Rank(1)), e.marks.hr(Rank(1)));
        assert_eq!(r.marks.hs(Rank(1)), e.marks.hs(Rank(1)));
    }

    fn feed_data(e: &mut V2Engine, from: Rank, h: u64) {
        e.handle(Input::Peer {
            from,
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(from, h),
                dst: e.rank(),
                payload: pl(h as u8),
            }),
        })
        .unwrap();
    }

    #[test]
    fn lazy_batching_defers_log_until_send_gates() {
        let mut e = bounded(Rank(1), 2, 8);
        for h in 1..=2u64 {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(0), h);
        }
        let o = outs(&mut e);
        assert!(
            o.iter().all(|x| !matches!(x, Output::LogEvents(_))),
            "a batch bound above 1 must not ship per delivery"
        );
        assert_eq!(e.pending_event_count(), 2);
        assert!(!e.gate_open(), "the gate still closes at delivery");

        // A send queues behind the gate: the batch must flush, the payload
        // must not.
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        let o = outs(&mut e);
        assert!(data_out(&o).is_empty(), "payload leaked past a closed gate");
        let batch = o
            .iter()
            .find_map(|x| match x {
                Output::LogEvents(b) => Some(b.clone()),
                _ => None,
            })
            .expect("gated send must force a flush");
        assert_eq!(batch.events.len(), 2);
        assert!(batch.is_ordered());
        assert_eq!(e.pending_event_count(), 0);

        // One coalesced ack covers both events and releases the send.
        e.handle(Input::ElAck { up_to: 2 }).unwrap();
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
        let m = e.metrics();
        assert_eq!(m.el_batches_sent, 1);
        assert_eq!(m.el_events_batched, 2);
        assert_eq!(m.el_max_batch_events, 2);
        assert_eq!(m.el_acks_received, 1);
    }

    #[test]
    fn replica_acks_open_gate_only_at_quorum() {
        let mut e = V2Engine::fresh(Rank(1), 2);
        e.set_el_replication(3, 2);
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        assert!(data_out(&outs(&mut e)).is_empty(), "gate closed: no data");

        // One replica ack is not a quorum: the gate must stay shut.
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 1,
        })
        .unwrap();
        assert!(!e.gate_open());
        assert!(data_out(&outs(&mut e)).is_empty());
        assert_eq!(e.metrics().el_batches_acked, 0);

        // The second replica completes the quorum and releases the send.
        e.handle(Input::ElReplicaAck {
            replica: 1,
            up_to: 1,
        })
        .unwrap();
        assert!(e.gate_open());
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
        let m = e.metrics();
        assert_eq!(m.el_acks_received, 2, "each replica ack counts once");
        assert_eq!(m.el_batches_acked, 1, "the batch retires exactly once");

        // The straggler's ack of the same watermark must not re-open or
        // re-retire anything.
        e.handle(Input::ElReplicaAck {
            replica: 2,
            up_to: 1,
        })
        .unwrap();
        let m = e.metrics();
        assert_eq!(m.el_acks_received, 3);
        assert_eq!(m.el_batches_acked, 1);
    }

    #[test]
    fn replica_ack_is_plain_ack_when_unreplicated() {
        // Without set_el_replication the replica-addressed ack must be
        // byte-identical to Input::ElAck — the R=1 deployment cannot
        // change behavior.
        let mut e = V2Engine::fresh(Rank(1), 2);
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        outs(&mut e);
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 1,
        })
        .unwrap();
        assert!(e.gate_open());
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
        assert_eq!(e.metrics().el_acks_received, 1);
        assert_eq!(e.metrics().el_batches_acked, 1);
    }

    /// A replicated engine (R = 2, Q = 2) that delivered and shipped
    /// events 1..=`shipped`, one batch each, and has a send gated behind
    /// the last.
    fn replicated_with_a_gated_send(shipped: u64) -> V2Engine {
        let mut e = bounded(Rank(1), 2, 1);
        e.set_el_replication(2, 2);
        for h in 1..=shipped {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(0), h);
        }
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        outs(&mut e);
        e
    }

    fn reshipped(o: &[Output]) -> Vec<(u32, Vec<u64>)> {
        o.iter()
            .filter_map(|x| match x {
                Output::ReshipEvents { replica, batch } => Some((
                    *replica,
                    batch.events.iter().map(|e| e.receiver_clock).collect(),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_revived_replica_announcing_below_the_shipped_mark_is_reshipped_exactly_the_suffix() {
        let mut e = replicated_with_a_gated_send(4);
        for replica in 0..2 {
            e.handle(Input::ElReplicaAck { replica, up_to: 2 }).unwrap();
        }
        // Batches 3 and 4 reached replica 0; replica 1 died with them in
        // its mailbox (or was down when they were sent).
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 4,
        })
        .unwrap();
        assert!(!e.gate_open(), "one replica is not the quorum of two");
        // Revived over a sibling that held event 3 only, it announces 3:
        // the engine re-ships exactly event 4, to it alone.
        e.handle(Input::ElReplicaRevived {
            replica: 1,
            up_to: 3,
        })
        .unwrap();
        let o = outs(&mut e);
        assert_eq!(reshipped(&o), [(1, vec![4])]);
        assert!(!o.iter().any(|x| matches!(x, Output::LogEvents(_))));
        assert!(data_out(&o).is_empty(), "the gate is still shut");
        // Its ack of the re-shipped suffix completes the quorum.
        e.handle(Input::ElReplicaAck {
            replica: 1,
            up_to: 4,
        })
        .unwrap();
        assert!(e.gate_open());
        let o = outs(&mut e);
        assert_eq!(data_out(&o).len(), 1, "the gated send leaves");
        assert!(reshipped(&o).is_empty(), "re-shipped once");
    }

    #[test]
    fn only_an_announcement_reships_and_only_what_the_quorum_lacks() {
        let mut e = replicated_with_a_gated_send(3);
        // A plain ack behind the shipped mark: batches 2 and 3 are merely
        // in flight to replica 1.
        e.handle(Input::ElReplicaAck {
            replica: 1,
            up_to: 1,
        })
        .unwrap();
        assert!(reshipped(&outs(&mut e)).is_empty());
        // Once the quorum has acked everything, an announcement below it
        // owes nothing: the quorum no longer depends on that replica.
        for replica in 0..2 {
            e.handle(Input::ElReplicaAck { replica, up_to: 3 }).unwrap();
        }
        outs(&mut e);
        e.handle(Input::ElReplicaRevived {
            replica: 1,
            up_to: 2,
        })
        .unwrap();
        assert!(reshipped(&outs(&mut e)).is_empty());
    }

    #[test]
    fn stale_replica_ack_cannot_regress_the_quorum() {
        let mut e = bounded(Rank(1), 2, 1);
        e.set_el_replication(2, 2);
        for h in 1..=2u64 {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(0), h);
        }
        outs(&mut e);
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 2,
        })
        .unwrap();
        // A reordered stale ack from the same replica...
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 1,
        })
        .unwrap();
        // ...must not have clobbered its watermark: replica 1 at 2
        // completes the quorum at 2, retiring both shipped batches.
        e.handle(Input::ElReplicaAck {
            replica: 1,
            up_to: 2,
        })
        .unwrap();
        assert!(e.gate_open());
        assert_eq!(e.metrics().el_batches_acked, 2);
    }

    #[test]
    fn quorum_watermark_advances_on_qth_ack() {
        // R = 3, Q = 2, one event per batch: the trusted watermark — here
        // the count of retired batches — follows the second-highest
        // replica.
        let mut e = bounded(Rank(1), 2, 1);
        e.set_el_replication(3, 2);
        for h in 1..=12u64 {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(0), h);
        }
        outs(&mut e);
        let mut ack = |replica, up_to| {
            e.handle(Input::ElReplicaAck { replica, up_to }).unwrap();
            e.metrics().el_batches_acked
        };
        assert_eq!(ack(0, 10), 0, "one ack is not a quorum");
        assert_eq!(ack(1, 7), 7, "two of three acked ≥ 7");
        assert_eq!(ack(2, 12), 10);
        assert_eq!(ack(1, 12), 12);
        assert!(e.gate_open());
    }

    #[test]
    fn single_replica_is_its_own_quorum() {
        let mut e = V2Engine::fresh(Rank(1), 2);
        e.set_el_replication(1, 1);
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        outs(&mut e);
        e.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 1,
        })
        .unwrap();
        assert!(e.gate_open(), "R = 1 reduces to the unreplicated ack");
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
        assert_eq!(e.metrics().el_batches_acked, 1);
    }

    #[test]
    fn recovery_resets_replica_quorum_state() {
        let mut e = V2Engine::fresh(Rank(1), 2);
        e.set_el_replication(2, 2);
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        for r in 0..2 {
            e.handle(Input::ElReplicaAck {
                replica: r,
                up_to: 1,
            })
            .unwrap();
        }
        assert!(e.gate_open());
        outs(&mut e);

        // Restart: the new incarnation re-earns its quorum from zero —
        // a fresh delivery at the same clock gates until both replicas
        // re-ack it.
        let snap = EngineSnapshot {
            rank: Rank(1),
            world: 2,
            clock: 0,
            watermarks: Watermarks::new(),
            saved: SenderLog::new(),
        };
        let mut r = V2Engine::restore(snap);
        r.set_el_replication(2, 2);
        r.begin_recovery(vec![]);
        outs(&mut r);
        // Re-establish the peer connection so fresh data is accepted.
        r.handle(Input::Peer {
            from: Rank(0),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        outs(&mut r);
        r.handle(Input::AppRecv).unwrap();
        feed_data(&mut r, Rank(0), 1);
        assert!(!r.gate_open());
        r.handle(Input::ElReplicaAck {
            replica: 0,
            up_to: 1,
        })
        .unwrap();
        assert!(!r.gate_open(), "one ack is not a quorum after restart");
        r.handle(Input::ElReplicaAck {
            replica: 1,
            up_to: 1,
        })
        .unwrap();
        assert!(r.gate_open());
    }

    #[test]
    fn lazy_batch_flushes_at_size_threshold() {
        let mut e = bounded(Rank(1), 2, 3);
        for h in 1..=3u64 {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(0), h);
        }
        let o = outs(&mut e);
        let batches: Vec<&EventBatch> = o
            .iter()
            .filter_map(|x| match x {
                Output::LogEvents(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), 1, "exactly one flush at the threshold");
        assert_eq!(batches[0].events.len(), 3);
        assert_eq!(e.pending_event_count(), 0);
        assert_eq!(e.metrics().el_max_batch_events, 3);
    }

    /// The load-bearing invariant under any interleaving of deliveries,
    /// sends, idle flushes and acks: a data transmission never leaves
    /// while any delivered reception's event is still unacked by the EL.
    #[test]
    fn transmit_never_precedes_ack_of_delivered_events() {
        for seed in 0..64u64 {
            let mut e = bounded(Rank(0), 2, 4);
            let mut rng = seed;
            let mut next_h = 1u64; // peer's sender clock
            let mut shipped = 0u64; // highest rc the EL has seen
            let mut acked = 0u64; // highest rc the EL has acked
            let mut delivered = 0u64; // highest rc delivered to the app
            for _ in 0..40 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (rng >> 33) % 4 {
                    0 => {
                        e.handle(Input::AppRecv).unwrap();
                        feed_data(&mut e, Rank(1), next_h);
                        next_h += 1;
                    }
                    1 => e
                        .handle(Input::AppSend {
                            dst: Rank(1),
                            payload: pl(0),
                        })
                        .unwrap(),
                    2 => e.handle(Input::FlushEvents).unwrap(),
                    _ => {
                        // The EL can only ack what it has received.
                        if shipped > acked {
                            acked = shipped;
                            e.handle(Input::ElAck { up_to: acked }).unwrap();
                        }
                    }
                }
                let mut saw_delivery = false;
                for o in e.drain_outputs() {
                    match o {
                        Output::LogEvents(b) => {
                            shipped = shipped.max(b.events.last().unwrap().receiver_clock);
                        }
                        Output::Deliver { .. } => saw_delivery = true,
                        Output::Transmit {
                            msg: PeerMsg::Data(_),
                            ..
                        } => {
                            assert!(
                                delivered <= acked,
                                "seed {seed}: transmit with delivery rc {delivered} unacked (acked {acked})"
                            );
                        }
                        _ => {}
                    }
                }
                if saw_delivery {
                    // Only the delivery in this step can have ticked the
                    // clock past the previous watermark.
                    delivered = e.clock();
                }
            }
        }
    }

    /// A crash while events sit unflushed loses exactly the suffix of
    /// receptions the EL never saw — and that is safe: the durable prefix
    /// replays identically, the lost receptions are re-delivered as fresh
    /// nondeterministic events, and no transmission ever depended on them.
    #[test]
    fn crash_between_flushes_preserves_replay_determinism() {
        let lazy = 100;
        // Pre-crash run: three receptions; only the first event reaches
        // the EL (explicit flush), the other two stay pending.
        let mut e = bounded(Rank(0), 2, lazy);
        for h in 1..=3u64 {
            e.handle(Input::AppRecv).unwrap();
            feed_data(&mut e, Rank(1), h);
            if h == 1 {
                e.handle(Input::FlushEvents).unwrap();
            }
        }
        let o = outs(&mut e);
        let durable: Vec<ReceptionEvent> = o
            .iter()
            .filter_map(|x| match x {
                Output::LogEvents(b) => Some(b.events.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(durable.len(), 1, "only the explicit flush shipped");
        assert_eq!(e.pending_event_count(), 2);

        // Crash, no checkpoint image: recovery replays the EL's durable
        // prefix only.
        let mut r = bounded(Rank(0), 2, lazy);
        r.begin_recovery(durable);
        outs(&mut r);
        assert!(r.is_replaying());
        r.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart2 { last_received: 0 },
        })
        .unwrap();
        // The peer re-sends everything; re-sends arrive out of order.
        for h in [3u64, 1, 2] {
            feed_data(&mut r, Rank(1), h);
        }
        // First recv: the logged reception replays exactly as recorded.
        r.handle(Input::AppRecv).unwrap();
        let o = outs(&mut r);
        assert!(o
            .iter()
            .any(|x| matches!(x, Output::Deliver { from, payload } if *from == Rank(1) && *payload == pl(1))));
        assert!(o.iter().any(|x| matches!(x, Output::ReplayComplete)));
        assert_eq!(r.clock(), 1, "replayed delivery reproduces rc 1");
        assert_eq!(r.metrics().replayed_deliveries, 1);
        // The two lost receptions come back as fresh events with new
        // clocks, in per-pair sender-clock order.
        let mut redelivered = Vec::new();
        for _ in 0..2 {
            r.handle(Input::AppRecv).unwrap();
            for x in outs(&mut r) {
                if let Output::Deliver { payload, .. } = x {
                    redelivered.push(payload);
                }
            }
        }
        assert_eq!(redelivered, vec![pl(2), pl(3)]);
        assert_eq!(r.clock(), 3);
        assert_eq!(
            r.pending_event_count(),
            2,
            "re-received messages are fresh lazily-batched events"
        );
    }

    #[test]
    fn in_order_arrivals_append_without_hiding_late_or_duplicate_ones() {
        // Two peers interleaved, each in order: the append fast path.
        let mut e = V2Engine::fresh(Rank(2), 3);
        for h in 1..=3 {
            feed_data(&mut e, Rank(0), h);
            feed_data(&mut e, Rank(1), h);
        }
        assert_eq!(e.recv_backlog(), 6);
        // A duplicate of a buffered clock sits at or below the peer's
        // high mark, so it still reaches the membership scan...
        feed_data(&mut e, Rank(0), 2);
        assert_eq!(e.metrics().duplicates_dropped, 1);
        // ...and so does a late earlier clock behind a later one, which
        // must sort into per-sender order, not append.
        feed_data(&mut e, Rank(0), 6);
        feed_data(&mut e, Rank(0), 5);
        let mut from0 = Vec::new();
        while e.recv_backlog() > 0 {
            e.handle(Input::AppRecv).unwrap();
            for x in outs(&mut e) {
                if let Output::Deliver { from, payload } = x {
                    if from == Rank(0) {
                        from0.push(payload);
                    }
                }
            }
        }
        assert_eq!(from0, vec![pl(1), pl(2), pl(3), pl(5), pl(6)]);
        // Delivered clocks fall to HR even though the high mark is stale.
        feed_data(&mut e, Rank(0), 6);
        assert_eq!(e.metrics().duplicates_dropped, 2);
        assert_eq!(e.recv_backlog(), 0);
    }

    #[test]
    fn pop_output_yields_the_queue_in_order() {
        let mut e = V2Engine::fresh(Rank(0), 2);
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(1),
        })
        .unwrap();
        e.handle(Input::AppProbe).unwrap();
        assert_eq!(e.outputs_pending(), 2);
        assert!(matches!(e.pop_output(), Some(Output::Transmit { .. })));
        assert_eq!(e.pop_output(), Some(Output::ProbeAnswer(false)));
        assert_eq!(e.pop_output(), None);
    }

    #[test]
    fn out_of_order_arrival_buffers_in_clock_order() {
        // An in-flight message emitted toward a dead incarnation can land
        // in the new incarnation's mailbox *ahead* of the RESTART resends
        // of its predecessors. The buffer must re-establish per-sender
        // clock order and must not mistake the late-arriving earlier
        // clocks for duplicates.
        let mut e = V2Engine::fresh(Rank(1), 2);
        feed_data(&mut e, Rank(0), 3);
        feed_data(&mut e, Rank(0), 1);
        // A duplicate of a buffered, undelivered message is recognized by
        // membership (no arrival high-watermark involved).
        feed_data(&mut e, Rank(0), 3);
        assert_eq!(e.metrics().duplicates_dropped, 1);
        feed_data(&mut e, Rank(0), 2);
        let mut got = Vec::new();
        for _ in 0..3 {
            e.handle(Input::AppRecv).unwrap();
            for x in outs(&mut e) {
                if let Output::Deliver { payload, .. } = x {
                    got.push(payload);
                }
            }
        }
        assert_eq!(got, vec![pl(1), pl(2), pl(3)], "delivered in clock order");
        // Once delivered, duplicates fall to the HR watermark.
        feed_data(&mut e, Rank(0), 2);
        assert_eq!(e.metrics().duplicates_dropped, 2);
    }

    #[test]
    fn gate_wait_and_el_rtt_counted_with_flight_records() {
        use mvr_obs::{RecorderConfig, RecorderHub};
        let mut e = bounded(Rank(1), 2, 1);
        let hub = RecorderHub::new(RecorderConfig::enabled());
        e.set_recorder(hub.recorder(1));
        // A delivery closes the gate and ships its event.
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        // A send queues behind the gate.
        e.handle(Input::AppSend {
            dst: Rank(0),
            payload: pl(9),
        })
        .unwrap();
        outs(&mut e);
        // The ack retires the batch and opens the gate.
        e.handle(Input::ElAck { up_to: 1 }).unwrap();
        assert_eq!(data_out(&outs(&mut e)).len(), 1);
        let m = *e.metrics();
        assert_eq!(m.el_batches_sent, 1);
        assert_eq!(m.el_batches_acked, 1, "ship/ack balance at quiescence");
        assert_eq!(m.gate_deferred_sends, 1);
        let t = e.timings().summary();
        assert_eq!(t.gate_wait.count, 1, "one released send sampled");
        assert_eq!(t.el_ack_rtt.count, 1, "one retired batch sampled");
        assert_eq!(m.gate_wait_ns, t.gate_wait.sum);
        assert_eq!(m.el_ack_rtt_ns, t.el_ack_rtt.sum);
        // The recorder saw the protocol sequence and validates clean.
        let tl = hub.timeline();
        let kinds: Vec<&str> = tl.iter().map(|r| r.event.kind()).collect();
        for want in ["deliver", "el-ship", "gate-defer", "el-ack", "gate-open"] {
            assert!(kinds.contains(&want), "missing {want} in {kinds:?}");
        }
        mvr_obs::validate_records(&tl).expect("schema-clean timeline");
    }

    #[test]
    fn coalesced_ack_retires_every_covered_batch() {
        let mut e = bounded(Rank(1), 2, 8);
        // Two separate flushes ship two batches.
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 1);
        e.handle(Input::FlushEvents).unwrap();
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(0), 2);
        e.handle(Input::FlushEvents).unwrap();
        outs(&mut e);
        assert_eq!(e.metrics().el_batches_sent, 2);
        // One coalesced high-watermark ack covers both.
        e.handle(Input::ElAck { up_to: 2 }).unwrap();
        let m = e.metrics();
        assert_eq!(m.el_acks_received, 1, "the EL coalesced");
        assert_eq!(m.el_batches_acked, 2, "both batches retired");
        assert_eq!(e.timings().el_ack_rtt.count(), 2);
    }

    #[test]
    fn recovery_clears_stale_el_rtt_queue() {
        let mut e = bounded(Rank(0), 2, 1);
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(1), 1);
        outs(&mut e);
        assert_eq!(e.metrics().el_batches_sent, 1);
        // Crash without the ack: the new incarnation must not credit the
        // dead batch to a later ack.
        let mut r = V2Engine::fresh(Rank(0), 2);
        r.begin_recovery(vec![]);
        outs(&mut r);
        r.handle(Input::ElAck { up_to: 5 }).unwrap();
        assert_eq!(r.metrics().el_batches_acked, 0);
        assert_eq!(r.timings().el_ack_rtt.count(), 0);
    }

    #[test]
    fn restart_purges_gated_and_resends_in_clock_order() {
        // A live re-executed send queued behind the gate must not be
        // emitted ahead of the older SAVED messages a RESTART1 asks to
        // re-send: the peer's replay assumes ascending per-pair clocks.
        let mut e = bounded(Rank(0), 2, 1);
        for n in [1u8, 2, 3] {
            e.handle(Input::AppSend {
                dst: Rank(1),
                payload: pl(n),
            })
            .unwrap();
        }
        assert_eq!(data_out(&outs(&mut e)).len(), 3, "gate open: all sent");
        // A reception closes the gate; the next send is queued.
        e.handle(Input::AppRecv).unwrap();
        feed_data(&mut e, Rank(1), 1);
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: pl(9),
        })
        .unwrap();
        assert!(data_out(&outs(&mut e)).is_empty(), "send gated");
        // The peer restarts having only received our clock 1.
        e.handle(Input::Peer {
            from: Rank(1),
            msg: PeerMsg::Restart1 { last_received: 1 },
        })
        .unwrap();
        outs(&mut e);
        e.handle(Input::ElAck { up_to: 4 }).unwrap();
        let clocks: Vec<u64> = data_out(&outs(&mut e))
            .iter()
            .map(|(_, id, _)| id.sender_clock)
            .collect();
        let mut sorted = clocks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            clocks, sorted,
            "post-restart emissions ascend without duplicates"
        );
        assert!(
            clocks.contains(&5),
            "the purged gated send is re-emitted from SAVED"
        );
        assert_eq!(clocks, vec![2, 3, 5]);
    }
}
