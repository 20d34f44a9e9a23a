//! The discrete-event cluster simulator.
//!
//! Interprets per-rank [`Op`] traces under one of the three protocol
//! models (P4 / V1 / V2, see `config.rs`), with chunk-pipelined transfers
//! over FIFO lanes, the V2 event-logger gating, sender-based log volume
//! accounting (RAM → disk spill → infeasible), checkpointing overlapped
//! with execution, crash-and-recover faults, and log-driven re-execution.
//!
//! Faithfulness notes (what maps to what in the paper):
//! * V2 sends queue behind unacknowledged reception events (§4.5);
//! * V2 `MPI_Isend` only posts; the payload moves asynchronously and the
//!   app pays in `MPI_Wait` (Table 1); P4 pushes during `MPI_Isend`;
//! * the P4 driver is half-duplex (shared lane), V2 full-duplex (Fig. 9);
//! * V1 store-and-forwards whole messages through the receiver's Channel
//!   Memory (bandwidth ÷ 2, Fig. 5);
//! * replaying nodes receive re-sent payloads from their peers' logs and
//!   suppress re-transmission of messages the peers already received; no
//!   event-logger traffic is replayed (Fig. 10);
//! * checkpoints ship `process state + sender log` to the checkpoint
//!   server over the node's own tx lane, overlapped with execution, and
//!   completion garbage-collects the peers' logs (Fig. 11).

use crate::config::{ClusterConfig, Protocol};
use crate::lane::Lane;
use crate::report::{RankBreakdown, SimReport};
use crate::time::{transfer_ns, SimTime};
use crate::trace::Op;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};

type Nid = usize;

/// Pending rendezvous sends: (destination, index) → (bytes, blocking-send
/// token, request op).
type RndvPending = HashMap<(usize, u64), (u64, Option<u64>, Option<usize>)>;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Resume a rank's interpreter (compute done, send accepted, ...),
    /// valid only for the stamped incarnation.
    RankReady(usize, u32),
    /// A transfer chunk reaches the destination's rx lane.
    ChunkArrive { tid: usize, bytes: u64, last: bool },
    /// Chain the next chunk of an interleaved (V1/V2) transfer.
    TxNextChunk { tid: usize },
    /// A whole message finished its rx stage.
    Delivered { tid: usize },
    /// A blocking-send / isend completion token fired (tx finished),
    /// valid only for the stamped incarnation.
    SendTxDone { rank: usize, token: u64, gen: u32 },
    /// Crash rank now.
    Crash(usize),
    /// Restart rank now (image fetched, peers notified).
    Restart(usize),
    /// Kick the continuous checkpoint scheduler.
    SchedulerKick,
}

#[derive(PartialEq, Eq)]
struct HeapEv {
    t: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TKind {
    /// Application payload (eager or rendezvous data).
    Payload {
        from: usize,
        to: usize,
        index: u64,
        bytes: u64,
        rndv: bool,
    },
    /// Rendezvous announcement.
    RndvReq {
        from: usize,
        to: usize,
        index: u64,
        bytes: u64,
    },
    /// Clear-to-send for (sender, index).
    RndvCts {
        sender: usize,
        receiver: usize,
        index: u64,
    },
    /// Reception events to an event-logger replica (one copy of a
    /// batched request; with replication the same batch rides `R`
    /// transfers, one per replica of the owner's shard). `shipped` is
    /// the instant the daemon put the batch on the wire — carried
    /// through to the ack so the round-trip can be measured.
    ElEvent {
        owner: usize,
        events: u64,
        shipped: SimTime,
        replica: usize,
    },
    /// Event-logger acknowledgement, covering `events` receptions.
    /// The batch retires on the quorum-th ack; stragglers only tally
    /// (replica lanes are symmetric, so the ack needs no replica id).
    ElAck {
        owner: usize,
        events: u64,
        shipped: SimTime,
    },
    /// V1: payload pushed to the receiver's Channel Memory.
    CmPush {
        from: usize,
        to: usize,
        index: u64,
        bytes: u64,
    },
    /// V1: pull request from the CM owner.
    CmPull { owner: usize },
    /// V1: stored message forwarded to its owner.
    CmForward {
        from: usize,
        to: usize,
        index: u64,
        bytes: u64,
    },
    /// Checkpoint image to the checkpoint server.
    CkptImage { rank: usize },
}

#[derive(Clone, Debug)]
struct Transfer {
    kind: TKind,
    src: Nid,
    dst: Nid,
    /// Destination rank generation at initiation (drop if stale).
    dst_gen: u32,
    /// Source rank generation (drop chunks of a crashed sender).
    src_rank: Option<usize>,
    src_gen: u32,
    /// Total payload bytes.
    bytes: u64,
    /// Bytes already transmitted (chained mode).
    sent: u64,
    /// Fire `SendTxDone { rank, token }` when the last chunk leaves.
    tx_notify: Option<(usize, u64)>,
    /// P4 large-eager transfer: stalls the single-threaded driver on both
    /// ends (blocking `write()` past the socket buffer; the driver neither
    /// writes other sockets nor reads incoming meanwhile) — the Fig. 9
    /// half-duplex effect and the paper's BT observation. Rendezvous
    /// transfers go through the chunked progress engine and interleave.
    p4_stall: bool,
}

// ---------------------------------------------------------------------
// Per-rank state
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Live,
    /// Re-executing; switches to Live when `pc` reaches `until`.
    Replay {
        until: usize,
    },
    /// Crashed, awaiting restart.
    Dead,
    /// Completed its trace before this (replay-mode) run began.
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Block {
    Compute,
    Send { token: u64 },
    Recv { src: usize },
    WaitReq { op: usize },
    WaitAll,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Compute,
    Send,
    Recv,
    Isend,
    Wait,
}

#[derive(Clone, Debug)]
enum Arrival {
    Eager {
        bytes: u64,
    },
    /// Announced rendezvous: `bytes` is carried for diagnostics; the
    /// authoritative size rides with the payload.
    RndvAnnounce {
        #[allow(dead_code)]
        bytes: u64,
        cts_sent: bool,
    },
    RndvHere {
        bytes: u64,
    },
}

impl Arrival {
    fn consumable(&self) -> bool {
        matches!(self, Arrival::Eager { .. } | Arrival::RndvHere { .. })
    }
}

#[derive(Clone, Debug)]
enum Waiter {
    /// The rank itself blocks in a `Recv` op.
    Blocking,
    /// An `Irecv` request (trace op index).
    Req(usize),
}

/// What a checkpoint image captures.
#[derive(Clone, Debug)]
struct Snapshot {
    pc: usize,
    /// The rank's logical clock at the snapshot.
    clock: u64,
    sent_count: Vec<u64>,
    consumed_count: Vec<u64>,
    arrived_count: Vec<u64>,
    log_bytes: u64,
    image_bytes: u64,
}

#[derive(Clone, Debug)]
enum SendSpec {
    /// A payload or rendezvous-request initiation deferred by the gate.
    Payload {
        dst: usize,
        index: u64,
        bytes: u64,
        token: Option<u64>,
        op: Option<usize>,
    },
    /// A CTS deferred by the gate.
    Cts { sender: usize, index: u64 },
    /// A granted rendezvous payload (bypasses the size re-check).
    RndvData {
        dst: usize,
        index: u64,
        bytes: u64,
        token: Option<u64>,
        op: Option<usize>,
    },
}

struct RankSim {
    trace: Vec<Op>,
    pc: usize,
    mode: Mode,
    generation: u32,
    blocked: Option<Block>,
    block_kind: OpClass,
    block_start: SimTime,
    /// Requests by trace op index: true = complete.
    reqs: HashMap<usize, bool>,
    incomplete_reqs: HashSet<usize>,
    /// Per destination rank.
    sent_count: Vec<u64>,
    /// Size log per destination (sim bookkeeping; the semantic sender log
    /// is the prefix up to `sent_count`, minus GC).
    sent_sizes: Vec<Vec<u64>>,
    gc_watermark: Vec<u64>,
    /// Per source rank.
    arrived_count: Vec<u64>,
    arrivals: Vec<BTreeMap<u64, Arrival>>,
    consumed_count: Vec<u64>,
    reserved_count: Vec<u64>,
    waiters: Vec<VecDeque<Waiter>>,
    /// V2 pessimism gate.
    outstanding_acks: u32,
    /// Reception events delivered but not yet shipped to the EL (lazy
    /// batching). They already count in `outstanding_acks`; a crash
    /// loses them harmlessly (no transmission depended on them).
    pending_el: u64,
    /// Sends parked behind the closed gate, with the instant each was
    /// parked (for the gate-wait histogram).
    gated: VecDeque<(SendSpec, SimTime)>,
    /// Rendezvous sends awaiting CTS.
    rndv_pending: RndvPending,
    /// Recovery re-sends, streamed sequentially (FIFO on the daemon's
    /// connection) rather than all at once.
    resend_q: VecDeque<(usize, u64, u64)>,
    /// Token of the in-flight re-send (chains the queue).
    resend_token: Option<u64>,
    /// Sender-based log occupancy.
    log_bytes: u64,
    max_log_bytes: u64,
    spilled: bool,
    /// Checkpointing.
    ckpt_ordered: bool,
    ckpt_in_progress: bool,
    snapshot: Option<Snapshot>,
    pc_at_crash: usize,
    next_token: u64,
    finish: Option<SimTime>,
    breakdown: RankBreakdown,
    // --- flight-recorder bookkeeping (records are only written when a
    // recorder hub is attached; the counters are cheap either way) ---
    /// The rank's logical clock, as the engine keeps it: every send and
    /// every delivery ticks it, and a restart restores it from the
    /// snapshot. Every record of the rank carries it.
    clock: u64,
    /// Per destination: index → sender clock of the first execution,
    /// reused on re-execution, so spans key stably across crashes.
    sent_clocks: Vec<Vec<u64>>,
    /// Receiver clock of the latest logged delivery.
    logged_clock: u64,
    /// Receiver clock of the first delivery in the pending EL batch.
    pending_from: Option<u64>,
    /// Receiver-clock watermarks of in-flight EL batches (FIFO).
    el_ship_q: VecDeque<u64>,
    /// Replica acks tallied for the head in-flight batch (acks arrive
    /// batch-FIFO because every replica lane is symmetric and the
    /// owner's tx lane serializes the fan-out in batch order).
    el_ack_tally: u32,
    ckpt_seq: u64,
    ckpt_begin_t: SimTime,
    replayed_n: u64,
    replay_start_t: SimTime,
}

impl RankSim {
    fn new(trace: Vec<Op>, n: usize) -> Self {
        RankSim {
            trace,
            pc: 0,
            mode: Mode::Live,
            generation: 0,
            blocked: None,
            block_kind: OpClass::Compute,
            block_start: 0,
            reqs: HashMap::new(),
            incomplete_reqs: HashSet::new(),
            sent_count: vec![0; n],
            sent_sizes: vec![Vec::new(); n],
            gc_watermark: vec![0; n],
            arrived_count: vec![0; n],
            arrivals: vec![BTreeMap::new(); n],
            consumed_count: vec![0; n],
            reserved_count: vec![0; n],
            waiters: vec![VecDeque::new(); n],
            outstanding_acks: 0,
            pending_el: 0,
            gated: VecDeque::new(),
            rndv_pending: HashMap::new(),
            resend_q: VecDeque::new(),
            resend_token: None,
            log_bytes: 0,
            max_log_bytes: 0,
            spilled: false,
            ckpt_ordered: false,
            ckpt_in_progress: false,
            snapshot: None,
            pc_at_crash: 0,
            next_token: 0,
            finish: None,
            breakdown: RankBreakdown::default(),
            clock: 0,
            sent_clocks: vec![Vec::new(); n],
            logged_clock: 0,
            pending_from: None,
            el_ship_q: VecDeque::new(),
            el_ack_tally: 0,
            ckpt_seq: 0,
            ckpt_begin_t: 0,
            replayed_n: 0,
            replay_start_t: 0,
        }
    }

    fn replaying(&self) -> bool {
        matches!(self.mode, Mode::Replay { .. })
    }
}

// ---------------------------------------------------------------------
// Fault / replay plans
// ---------------------------------------------------------------------

/// Fault-injection and checkpointing plan for a simulation.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Scheduled crashes: (virtual time, victim rank).
    pub faults: Vec<(SimTime, usize)>,
    /// Run the continuous random-victim checkpoint scheduler (Fig. 11:
    /// "the system is always checkpointing a node").
    pub continuous_checkpointing: bool,
    /// Seed for the random checkpoint-victim policy.
    pub seed: u64,
}

// ---------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------

/// The simulator state. Construct with [`Sim::new`], run with
/// [`Sim::run_with_plan`] (or use the [`simulate`]/
/// [`simulate_with_faults`]/[`simulate_replay`] helpers).
pub struct Sim {
    cfg: ClusterConfig,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEv>>,
    ranks: Vec<RankSim>,
    tx: Vec<Lane>,
    rx: Vec<Lane>,
    /// P4 only: the per-node single-threaded driver. Large-eager
    /// transfers occupy it on both ends, serializing the node's tx and rx
    /// work — the Fig. 9 half-duplex effect. Other protocols' daemons
    /// (and P4 rendezvous) interleave chunks (full duplex).
    driver: Vec<Lane>,
    transfers: Vec<Transfer>,
    pending_second_notify: HashMap<usize, (usize, u64)>,
    n: usize,
    el_base: Nid,
    cm_base: Nid,
    cs_nid: Nid,
    // V1 Channel Memories: per owner rank: stored forwards + pull state.
    cm_store: Vec<VecDeque<(usize, u64, u64)>>, // (from, index, bytes)
    cm_pulled: Vec<u64>,
    cm_forwarded: Vec<u64>,
    // Stats
    msgs_delivered: u64,
    bytes_delivered: u64,
    el_events: u64,
    el_requests: u64,
    checkpoints: u64,
    faults: u64,
    /// Virtual-time protocol latency histograms (V2 only; see
    /// [`SimReport::gate_wait`] / [`SimReport::el_ack_rtt`]).
    gate_wait: mvr_obs::LogHistogram,
    el_ack_rtt: mvr_obs::LogHistogram,
    /// Per-rank flight recorders (empty when no hub is attached).
    obs: Vec<mvr_obs::Recorder>,
    /// Pseudo-rank recorder for fault-plan interventions.
    obs_dispatch: Option<mvr_obs::Recorder>,
    infeasible: bool,
    // Continuous checkpointing
    ckpt_continuous: bool,
    ckpt_rng: u64,
    ckpt_victim: Option<usize>,
}

impl Sim {
    /// Build a simulator over the given per-rank traces.
    pub fn new(cfg: ClusterConfig, traces: Vec<Vec<Op>>) -> Self {
        let n = traces.len();
        assert_eq!(cfg.nodes, n, "config.nodes must match trace count");
        let num_els = cfg.event_loggers.max(1) * cfg.el_replicas.max(1);
        let num_cms = if cfg.channel_memories == 0 {
            n
        } else {
            cfg.channel_memories
        };
        let el_base = n;
        let cm_base = el_base + num_els;
        let cs_nid = cm_base + num_cms;
        let total = cs_nid + 1;
        Sim {
            ranks: traces.into_iter().map(|t| RankSim::new(t, n)).collect(),
            cfg,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            tx: vec![Lane::new(); total],
            rx: vec![Lane::new(); total],
            driver: vec![Lane::new(); total],
            transfers: Vec::new(),
            pending_second_notify: HashMap::new(),
            n,
            el_base,
            cm_base,
            cs_nid,
            cm_store: vec![VecDeque::new(); n],
            cm_pulled: vec![0; n],
            cm_forwarded: vec![0; n],
            msgs_delivered: 0,
            bytes_delivered: 0,
            el_events: 0,
            el_requests: 0,
            checkpoints: 0,
            faults: 0,
            gate_wait: mvr_obs::LogHistogram::default(),
            el_ack_rtt: mvr_obs::LogHistogram::default(),
            obs: Vec::new(),
            obs_dispatch: None,
            infeasible: false,
            ckpt_continuous: false,
            ckpt_rng: 1,
            ckpt_victim: None,
        }
    }

    /// Mint one recorder per rank (plus a dispatcher pseudo-rank for
    /// fault-plan interventions) from `hub`. Records are written with
    /// [`mvr_obs::Recorder::record_at`] at the *virtual* clock, so a
    /// seeded run dumps a byte-identical timeline on every execution.
    pub fn attach_recorder(&mut self, hub: &mvr_obs::RecorderHub) {
        self.obs = (0..self.n).map(|r| hub.recorder(r as u32)).collect();
        self.obs_dispatch = Some(hub.recorder(mvr_obs::DISPATCHER_RANK));
    }

    /// Write a record for `r` at the current virtual time and `r`'s
    /// logical clock.
    fn rec(&self, r: usize, ev: mvr_obs::ProtoEvent) {
        self.rec_at(r, self.now, ev);
    }

    /// As [`Sim::rec`] at an explicit virtual timestamp (used to order
    /// a `GateOpen` strictly after the `ElAck` that produced it).
    fn rec_at(&self, r: usize, ts: SimTime, ev: mvr_obs::ProtoEvent) {
        if let Some(rc) = self.obs.get(r) {
            rc.record_at(self.ranks[r].clock, ts, ev);
        }
    }

    /// Sender clock assigned to `(u → v, index)`, with a deterministic
    /// fallback for pre-seeded logs (`simulate_replay` finished ranks).
    fn sender_clock_of(&self, u: usize, v: usize, index: u64) -> u64 {
        self.ranks[u].sent_clocks[v]
            .get(index as usize)
            .copied()
            .unwrap_or(index + 1)
    }

    /// Node id of `replica` within the shard serving `rank`. Shards
    /// partition ranks round-robin (a cost model, not the runtime's
    /// consistent hash); a shard's replicas occupy contiguous ids.
    fn el_nid(&self, rank: usize, replica: usize) -> Nid {
        let reps = self.cfg.el_replicas.max(1);
        let shards = (self.cm_base - self.el_base) / reps;
        self.el_base + (rank % shards) * reps + replica
    }

    /// Acks that must arrive before a batch retires: a majority of the
    /// shard's replicas, so one is exactly the unreplicated behaviour.
    fn el_quorum(&self) -> u32 {
        (self.cfg.el_replicas.max(1) / 2 + 1) as u32
    }

    fn cm_for(&self, rank: usize) -> Nid {
        self.cm_base + rank % (self.cs_nid - self.cm_base)
    }

    fn cm_owner_slot(&self, rank: usize) -> usize {
        rank // cm_store is indexed by owner rank directly
    }

    fn push_ev(&mut self, t: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(HeapEv {
            t,
            seq: self.seq,
            ev,
        }));
    }

    /// Schedule a RankReady for the current incarnation of `r`.
    fn push_ready(&mut self, t: SimTime, r: usize) {
        let gen = self.ranks[r].generation;
        self.push_ev(t, Ev::RankReady(r, gen));
    }

    /// Schedule a SendTxDone for the current incarnation of `r`.
    fn push_tx_done(&mut self, t: SimTime, r: usize, token: u64) {
        let gen = self.ranks[r].generation;
        self.push_ev(
            t,
            Ev::SendTxDone {
                rank: r,
                token,
                gen,
            },
        );
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// Start a transfer on the source's tx lane; chunks pipeline into the
    /// destination's rx lane. `head` is extra source-side time (payload
    /// copy, EL service).
    ///
    /// Under P4 the whole message occupies the sender's (shared) lane as
    /// one block — the half-duplex driver behaviour. Under V1/V2 chunks
    /// are chained one reservation at a time, so concurrent transfers
    /// (application traffic, checkpoint images, EL events) interleave
    /// fairly, as the paper describes for the V2 driver.
    fn start_transfer(&mut self, src: Nid, dst: Nid, bytes: u64, head: SimTime, kind: TKind) {
        self.start_transfer_notify(src, dst, bytes, head, kind, None, None);
    }

    /// As [`start_transfer`], with completion notifications fired when the
    /// last byte leaves the source (blocking-send unblock + request
    /// completion).
    #[allow(clippy::too_many_arguments)]
    fn start_transfer_notify(
        &mut self,
        src: Nid,
        dst: Nid,
        bytes: u64,
        head: SimTime,
        kind: TKind,
        token: Option<(usize, u64)>,
        op: Option<(usize, usize)>,
    ) {
        let src_rank = if src < self.n { Some(src) } else { None };
        let src_gen = src_rank.map(|r| self.ranks[r].generation).unwrap_or(0);
        let dst_gen = if dst < self.n {
            self.ranks[dst].generation
        } else {
            0
        };
        let tid = self.transfers.len();
        let mut notify: Vec<(usize, u64)> = Vec::new();
        if let Some((r, tk)) = token {
            notify.push((r, tk));
        }
        if let Some((r, o)) = op {
            notify.push((r, u64::MAX - o as u64));
        }
        let p4_stall = self.cfg.protocol == Protocol::P4
            && src < self.n
            && dst < self.n
            && bytes > self.cfg.p4_socket_buffer
            && bytes < self.cfg.rndv_threshold;
        self.transfers.push(Transfer {
            kind,
            src,
            dst,
            dst_gen,
            src_rank,
            src_gen,
            bytes,
            sent: 0,
            tx_notify: None,
            p4_stall,
        });
        // Chained mode for every protocol: the first chunk carries the
        // head costs; concurrent transfers interleave chunk-by-chunk.
        self.transfers[tid].tx_notify = notify.first().copied();
        if notify.len() > 1 {
            // At most two notifications (blocking token + request).
            self.pending_second_notify.insert(tid, notify[1]);
        }
        self.tx_chunk(tid, head + self.cfg.send_overhead);
    }

    /// Transmit the next chunk of a chained transfer.
    fn tx_chunk(&mut self, tid: usize, head: SimTime) {
        let (src, src_rank, src_gen, bytes, sent) = {
            let t = &self.transfers[tid];
            (t.src, t.src_rank, t.src_gen, t.bytes, t.sent)
        };
        if let Some(sr) = src_rank {
            if self.ranks[sr].generation != src_gen {
                return; // sender crashed: remaining chunks are lost
            }
        }
        let chunk = self.cfg.chunk_bytes.max(1);
        let this_chunk = (bytes - sent).min(chunk);
        let last = sent + this_chunk >= bytes;
        let dur = head + transfer_ns(this_chunk, self.cfg.bandwidth);
        let stall = self.transfers[tid].p4_stall;
        let (_, end) = self.reserve_lane(true, src, self.now, dur, stall);
        self.transfers[tid].sent = sent + this_chunk;
        self.push_ev(
            end + self.cfg.wire_latency,
            Ev::ChunkArrive {
                tid,
                bytes: this_chunk,
                last,
            },
        );
        if last {
            if let Some((r, tk)) = self.transfers[tid].tx_notify {
                self.push_tx_done(end, r, tk);
            }
            if let Some((r, tk)) = self.pending_second_notify.remove(&tid) {
                self.push_tx_done(end, r, tk);
            }
        } else {
            self.push_ev(end, Ev::TxNextChunk { tid });
        }
    }

    /// Reserve a node lane, optionally coupled with the node's P4 driver
    /// lane (large-eager transfers stall the single-threaded driver).
    fn reserve_lane(
        &mut self,
        tx_side: bool,
        nid: Nid,
        now: SimTime,
        dur: SimTime,
        stall_driver: bool,
    ) -> (SimTime, SimTime) {
        let lane_avail = if tx_side {
            self.tx[nid].available_at()
        } else {
            self.rx[nid].available_at()
        };
        if stall_driver && nid < self.n {
            let start = now.max(lane_avail).max(self.driver[nid].available_at());
            let end = start + dur;
            self.driver[nid].reserve(start, dur);
            if tx_side {
                self.tx[nid].reserve(start, dur);
            } else {
                self.rx[nid].reserve(start, dur);
            }
            (start, end)
        } else if tx_side {
            self.tx[nid].reserve(now, dur)
        } else {
            self.rx[nid].reserve(now, dur)
        }
    }

    fn on_chunk_arrive(&mut self, tid: usize, chunk_bytes: u64, last: bool) {
        let (dst, dst_gen, src_rank, src_gen) = {
            let t = &self.transfers[tid];
            (t.dst, t.dst_gen, t.src_rank, t.src_gen)
        };
        // Drop stale chunks (either end crashed since initiation).
        if dst < self.n && self.ranks[dst].generation != dst_gen {
            return;
        }
        if let Some(sr) = src_rank {
            if self.ranks[sr].generation != src_gen {
                return;
            }
        }
        let rx_dur = transfer_ns(chunk_bytes, self.cfg.bandwidth)
            + if last { self.cfg.recv_overhead } else { 0 };
        let stall = self.transfers[tid].p4_stall;
        let (_, end) = self.reserve_lane(false, dst, self.now, rx_dur, stall);
        if last {
            self.push_ev(end, Ev::Delivered { tid });
        }
    }

    fn on_delivered_ev(&mut self, tid: usize) {
        let (dst, dst_gen, src_rank, src_gen, kind) = {
            let t = &self.transfers[tid];
            (t.dst, t.dst_gen, t.src_rank, t.src_gen, t.kind.clone())
        };
        if let Some(sr) = src_rank {
            if self.ranks[sr].generation != src_gen {
                return;
            }
        }
        self.on_delivered_inner(dst, dst_gen, kind);
    }

    // ------------------------------------------------------------------
    // Delivery dispatch
    // ------------------------------------------------------------------

    fn on_delivered_inner(&mut self, dst: Nid, dst_gen: u32, kind: TKind) {
        if dst < self.n && self.ranks[dst].generation != dst_gen {
            return;
        }
        match kind {
            TKind::Payload {
                from,
                to,
                index,
                bytes,
                rndv,
            } => {
                debug_assert_eq!(to, dst);
                let arr = if rndv {
                    Arrival::RndvHere { bytes }
                } else {
                    Arrival::Eager { bytes }
                };
                self.rank_arrival(to, from, index, arr);
            }
            TKind::RndvReq {
                from,
                to,
                index,
                bytes,
            } => {
                self.rank_arrival(
                    to,
                    from,
                    index,
                    Arrival::RndvAnnounce {
                        bytes,
                        cts_sent: false,
                    },
                );
            }
            TKind::RndvCts {
                sender,
                receiver,
                index,
            } => {
                // CTS reception is a channel message: logged like any other.
                self.log_reception_if_live(sender, None);
                if let Some((bytes, token, op)) =
                    self.ranks[sender].rndv_pending.remove(&(receiver, index))
                {
                    self.initiate_payload(sender, receiver, index, bytes, token, op);
                }
            }
            TKind::ElEvent {
                owner,
                events,
                shipped,
                replica,
            } => {
                // One EL service pass per batch per replica, then one
                // coalesced high-watermark ack back from each (the
                // round-trip amortization).
                let el = self.el_nid(owner, replica);
                self.start_transfer(
                    el,
                    owner,
                    self.cfg.event_bytes,
                    self.cfg.el_service,
                    TKind::ElAck {
                        owner,
                        events,
                        shipped,
                    },
                );
            }
            TKind::ElAck {
                owner,
                events,
                shipped,
            } => {
                // Quorum gate: the head batch retires on the Q-th replica
                // ack; sub-quorum acks and post-quorum stragglers only
                // move the tally. Replica lanes are symmetric and the
                // owner's tx lane serializes the fan-out in batch order,
                // so acks arrive batch-FIFO and a modular tally suffices.
                // With one replica Q == 1 and every ack retires a batch —
                // the paper's unreplicated path, on identical events.
                let reps = self.cfg.el_replicas.max(1) as u32;
                let quorum = self.el_quorum();
                let tally = {
                    let rk = &mut self.ranks[owner];
                    rk.el_ack_tally += 1;
                    let t = rk.el_ack_tally;
                    if t == reps {
                        rk.el_ack_tally = 0;
                    }
                    t
                };
                if tally != quorum {
                    return;
                }
                let rtt = self.now.saturating_sub(shipped);
                self.el_ack_rtt.record(rtt);
                let up_to = {
                    let r = &mut self.ranks[owner];
                    debug_assert!(r.outstanding_acks as u64 >= events);
                    r.outstanding_acks = r.outstanding_acks.saturating_sub(events as u32);
                    r.el_ship_q.pop_front().unwrap_or(r.logged_clock)
                };
                self.rec(
                    owner,
                    mvr_obs::ProtoEvent::ElAck {
                        up_to,
                        batches_retired: 1,
                        rtt_ns: rtt,
                    },
                );
                if self.ranks[owner].outstanding_acks == 0 {
                    self.drain_gate(owner);
                }
            }
            TKind::CmPush {
                from,
                to,
                index,
                bytes,
            } => {
                let slot = self.cm_owner_slot(to);
                self.cm_store[slot].push_back((from, index, bytes));
                self.cm_try_forward(to);
            }
            TKind::CmPull { owner } => {
                let slot = self.cm_owner_slot(owner);
                self.cm_pulled[slot] += 1;
                self.cm_try_forward(owner);
            }
            TKind::CmForward {
                from,
                to,
                index,
                bytes,
            } => {
                self.rank_arrival(to, from, index, Arrival::Eager { bytes });
            }
            TKind::CkptImage { rank } => {
                self.on_checkpoint_stored(rank);
            }
        }
    }

    /// V1 Channel Memory: forward the next stored message if the owner has
    /// an outstanding pull.
    fn cm_try_forward(&mut self, owner: usize) {
        let slot = self.cm_owner_slot(owner);
        while self.cm_forwarded[slot] < self.cm_pulled[slot] {
            let Some((from, index, bytes)) = self.cm_store[slot].pop_front() else {
                return;
            };
            self.cm_forwarded[slot] += 1;
            let cm = self.cm_for(owner);
            self.start_transfer(
                cm,
                owner,
                bytes,
                0,
                TKind::CmForward {
                    from,
                    to: owner,
                    index,
                    bytes,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Rank arrival / matching
    // ------------------------------------------------------------------

    fn rank_arrival(&mut self, to: usize, from: usize, index: u64, arr: Arrival) {
        {
            let r = &mut self.ranks[to];
            if matches!(r.mode, Mode::Dead) {
                return;
            }
            match &arr {
                Arrival::RndvHere { .. } => {
                    // Payload completes an announced rendezvous
                    // (overwrites the announce; may sit below the
                    // contiguity watermark).
                    r.arrivals[from].insert(index, arr);
                }
                _ => {
                    // Duplicate suppression (replay re-sends): consumed
                    // already, or sitting in the arrival buffer. Exact
                    // checks — resends and re-executed sends may arrive
                    // out of index order, so a high-water mark would
                    // wrongly drop late re-sends of earlier indices.
                    if index < r.consumed_count[from] {
                        return;
                    }
                    match (r.arrivals[from].get_mut(&index), &arr) {
                        (
                            Some(Arrival::RndvAnnounce { cts_sent, .. }),
                            Arrival::RndvAnnounce { .. },
                        ) => {
                            // A re-announcement from a restarted sender:
                            // the previous CTS died with the sender's old
                            // incarnation; re-grant it.
                            *cts_sent = false;
                        }
                        (Some(_), _) => return, // true duplicate
                        (None, _) => {
                            r.arrivals[from].insert(index, arr);
                            r.arrived_count[from] = r.arrived_count[from].max(index + 1);
                        }
                    }
                }
            }
        }
        self.grant_pending_cts(to, from);
        self.progress_pair(to, from);
        // V1: a forwarded message that did not satisfy the outstanding
        // pull (wrong source for the blocked receive) consumes the pull;
        // ask the Channel Memory for the next one.
        if self.cfg.protocol == Protocol::V1
            && self.ranks[to].arrivals[from].contains_key(&index)
            && self.ranks[to].waiters.iter().any(|w| !w.is_empty())
        {
            let cm = self.cm_for(to);
            self.start_transfer(to, cm, self.cfg.event_bytes, 0, TKind::CmPull { owner: to });
        }
    }

    /// Send CTS for announced rendezvous messages that a posted receive is
    /// already waiting for.
    fn grant_pending_cts(&mut self, r: usize, src: usize) {
        let mut to_grant: Vec<u64> = Vec::new();
        {
            let rk = &self.ranks[r];
            let lo = rk.consumed_count[src];
            let hi = rk.reserved_count[src];
            if lo < hi {
                for (idx, a) in rk.arrivals[src].range(lo..hi) {
                    if let Arrival::RndvAnnounce {
                        cts_sent: false, ..
                    } = a
                    {
                        to_grant.push(*idx);
                    }
                }
            }
        }
        for idx in to_grant {
            if let Some(Arrival::RndvAnnounce { cts_sent, .. }) =
                self.ranks[r].arrivals[src].get_mut(&idx)
            {
                *cts_sent = true;
            }
            self.send_or_gate(
                r,
                SendSpec::Cts {
                    sender: src,
                    index: idx,
                },
            );
        }
    }

    /// Is the next in-order arrival from `src` deliverable?
    fn consumable_now(&self, r: usize, src: usize) -> bool {
        let rk = &self.ranks[r];
        rk.arrivals[src]
            .get(&rk.consumed_count[src])
            .map(|a| a.consumable())
            .unwrap_or(false)
    }

    /// Deliver the next in-order arrival from `src` (must be consumable).
    fn consume_one(&mut self, r: usize, src: usize) {
        let idx = self.ranks[r].consumed_count[src];
        let bytes = match self.ranks[r].arrivals[src].remove(&idx) {
            Some(Arrival::Eager { bytes }) | Some(Arrival::RndvHere { bytes }) => bytes,
            other => panic!("consume_one on non-consumable arrival {other:?}"),
        };
        self.ranks[r].consumed_count[src] = idx + 1;
        self.msgs_delivered += 1;
        self.bytes_delivered += bytes;
        let sender_clock = self.sender_clock_of(src, r, idx);
        let (rc, replaying) = {
            let rk = &mut self.ranks[r];
            rk.clock += 1;
            if rk.replaying() {
                rk.replayed_n += 1;
            }
            (rk.clock, rk.replaying())
        };
        if replaying {
            self.rec(
                r,
                mvr_obs::ProtoEvent::ReplayStep {
                    from: src as u32,
                    sender_clock,
                    receiver_clock: rc,
                },
            );
        } else {
            self.rec(
                r,
                mvr_obs::ProtoEvent::Deliver {
                    from: src as u32,
                    sender_clock,
                    receiver_clock: rc,
                    replay: false,
                },
            );
        }
        // The delivery is a reception event (V2, live mode only).
        self.log_reception_if_live(r, Some(rc));
    }

    /// Consume consumable arrivals in index order, completing waiters.
    fn progress_pair(&mut self, r: usize, src: usize) {
        loop {
            if self.ranks[r].waiters[src].is_empty() || !self.consumable_now(r, src) {
                break;
            }
            self.consume_one(r, src);
            let w = self.ranks[r].waiters[src]
                .pop_front()
                .expect("checked nonempty");
            match w {
                Waiter::Blocking => {
                    debug_assert_eq!(self.ranks[r].blocked, Some(Block::Recv { src }));
                    self.unblock(r);
                }
                Waiter::Req(op) => {
                    self.ranks[r].reqs.insert(op, true);
                    self.ranks[r].incomplete_reqs.remove(&op);
                    self.check_wait_block(r);
                }
            }
        }
    }

    fn check_wait_block(&mut self, r: usize) {
        match self.ranks[r].blocked {
            Some(Block::WaitReq { op }) if *self.ranks[r].reqs.get(&op).unwrap_or(&false) => {
                self.unblock(r);
            }
            Some(Block::WaitAll) if self.ranks[r].incomplete_reqs.is_empty() => {
                self.unblock(r);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // V2 logging & gate
    // ------------------------------------------------------------------

    /// Log a reception: a delivery at receiver clock `rc`, or a CTS
    /// (`None`), which is a channel message without a delivery.
    fn log_reception_if_live(&mut self, r: usize, rc: Option<u64>) {
        if self.cfg.protocol != Protocol::V2 {
            return;
        }
        if self.ranks[r].replaying() || self.ranks[r].mode == Mode::Finished {
            return;
        }
        if let Some(rc) = rc {
            let rk = &mut self.ranks[r];
            rk.pending_from.get_or_insert(rc);
            rk.logged_clock = rc;
        }
        self.el_events += 1;
        // The gate closes at delivery regardless of when the event ships.
        self.ranks[r].outstanding_acks += 1;
        self.ranks[r].pending_el += 1;
        // Flush at the size threshold, or immediately when a send is
        // already queued behind the gate (its ack can otherwise never
        // arrive). `el_batch_max == 1` is the eager per-event baseline.
        let limit = self.cfg.el_batch_max.max(1);
        if self.ranks[r].pending_el >= limit || !self.ranks[r].gated.is_empty() {
            self.flush_el(r);
        }
    }

    /// Ship the pending reception events as one batched EL request.
    fn flush_el(&mut self, r: usize) {
        let events = self.ranks[r].pending_el;
        if events == 0 {
            return;
        }
        self.ranks[r].pending_el = 0;
        self.el_requests += 1;
        // The batch covers the receiver clocks of the live deliveries
        // since the previous ship (replay never pends). CTS receptions
        // count as events but assign no receiver clock: a batch of
        // those alone covers the empty range.
        let up_to = self.ranks[r].logged_clock;
        let from_clock = self.ranks[r].pending_from.take().unwrap_or(up_to + 1);
        self.ranks[r].el_ship_q.push_back(up_to);
        self.rec(
            r,
            mvr_obs::ProtoEvent::ElShip {
                events,
                from_clock,
                up_to,
            },
        );
        // Fan the batch out to every replica of the shard; the owner's
        // tx lane serializes the copies, which is the real cost of
        // replication (the quorum ack lands no later than the single
        // ack did, replicas being symmetric).
        for replica in 0..self.cfg.el_replicas.max(1) {
            let el = self.el_nid(r, replica);
            self.start_transfer(
                r,
                el,
                events * self.cfg.event_bytes,
                0,
                TKind::ElEvent {
                    owner: r,
                    events,
                    shipped: self.now,
                    replica,
                },
            );
        }
    }

    fn gate_closed(&self, r: usize) -> bool {
        self.cfg.protocol == Protocol::V2
            && !self.ranks[r].replaying()
            && self.ranks[r].outstanding_acks > 0
    }

    fn send_or_gate(&mut self, r: usize, spec: SendSpec) {
        if self.gate_closed(r) {
            let deferred = match &spec {
                SendSpec::Payload { dst, index, .. } | SendSpec::RndvData { dst, index, .. } => {
                    Some((*dst, self.sender_clock_of(r, *dst, *index)))
                }
                SendSpec::Cts { .. } => None,
            };
            self.ranks[r].gated.push_back((spec, self.now));
            if let Some((dst, clock)) = deferred {
                let queued = self.ranks[r].gated.len() as u64;
                self.rec(
                    r,
                    mvr_obs::ProtoEvent::GateDefer {
                        to: dst as u32,
                        clock,
                        queued,
                    },
                );
            }
            // The send now waits on the EL ack of every delivered event:
            // ship any still-pending events or the gate never opens.
            self.flush_el(r);
        } else {
            self.execute_send_spec(r, spec);
        }
    }

    fn drain_gate(&mut self, r: usize) {
        let mut released = 0u64;
        let mut oldest_wait = 0u64;
        while self.ranks[r].outstanding_acks == 0 {
            let Some((spec, parked)) = self.ranks[r].gated.pop_front() else {
                break;
            };
            let waited = self.now.saturating_sub(parked);
            self.gate_wait.record(waited);
            oldest_wait = oldest_wait.max(waited);
            released += 1;
            self.execute_send_spec(r, spec);
        }
        if released > 0 {
            // +1 ns so the opening sorts strictly after the ElAck record
            // that covered the owed events — the merged timeline then
            // replays cleanly through the offline invariant monitor.
            self.rec_at(
                r,
                self.now + 1,
                mvr_obs::ProtoEvent::GateOpen {
                    released,
                    waited_ns: oldest_wait,
                },
            );
        }
    }

    fn execute_send_spec(&mut self, r: usize, spec: SendSpec) {
        match spec {
            SendSpec::Payload {
                dst,
                index,
                bytes,
                token,
                op,
            } => {
                if (bytes as usize) >= self.cfg.rndv_threshold as usize {
                    // Rendezvous: announce, stash, transmit on CTS.
                    self.ranks[r]
                        .rndv_pending
                        .insert((dst, index), (bytes, token, op));
                    self.start_transfer(
                        r,
                        dst,
                        self.cfg.event_bytes,
                        0,
                        TKind::RndvReq {
                            from: r,
                            to: dst,
                            index,
                            bytes,
                        },
                    );
                } else {
                    self.start_transfer_notify(
                        r,
                        dst,
                        bytes,
                        0,
                        TKind::Payload {
                            from: r,
                            to: dst,
                            index,
                            bytes,
                            rndv: false,
                        },
                        token.map(|t| (r, t)),
                        op.map(|o| (r, o)),
                    );
                }
            }
            SendSpec::Cts { sender, index } => {
                self.start_transfer(
                    r,
                    sender,
                    self.cfg.event_bytes,
                    0,
                    TKind::RndvCts {
                        sender,
                        receiver: r,
                        index,
                    },
                );
            }
            SendSpec::RndvData {
                dst,
                index,
                bytes,
                token,
                op,
            } => {
                self.start_transfer_notify(
                    r,
                    dst,
                    bytes,
                    0,
                    TKind::Payload {
                        from: r,
                        to: dst,
                        index,
                        bytes,
                        rndv: true,
                    },
                    token.map(|t| (r, t)),
                    op.map(|o| (r, o)),
                );
            }
        }
    }

    /// Rendezvous payload transmission (post-CTS). The CTS reception was
    /// itself a logged event, so under V2 the payload queues behind the
    /// pessimism gate until the event logger acknowledges it — one extra
    /// EL round-trip per rendezvous transfer, exactly as in the protocol.
    fn initiate_payload(
        &mut self,
        r: usize,
        dst: usize,
        index: u64,
        bytes: u64,
        token: Option<u64>,
        op: Option<usize>,
    ) {
        self.send_or_gate(
            r,
            SendSpec::RndvData {
                dst,
                index,
                bytes,
                token,
                op,
            },
        );
    }

    // ------------------------------------------------------------------
    // Send path from the interpreter
    // ------------------------------------------------------------------

    /// Start an application send. Returns (copy_duration, suppressed).
    fn app_send(
        &mut self,
        r: usize,
        dst: usize,
        bytes: u64,
        token: Option<u64>,
        op: Option<usize>,
    ) -> (SimTime, bool) {
        let index = self.ranks[r].sent_count[dst];
        self.ranks[r].sent_count[dst] = index + 1;
        let rk = &mut self.ranks[r];
        if rk.sent_sizes[dst].len() <= index as usize {
            rk.sent_sizes[dst].push(bytes);
        }
        // The send ticks the logical clock; the span key is the clock
        // of its first execution, recalled on re-execution.
        rk.clock += 1;
        let clock = match rk.sent_clocks[dst].get(index as usize) {
            Some(&c) => c,
            None => {
                rk.sent_clocks[dst].push(rk.clock);
                rk.clock
            }
        };
        // Sender-based copy (V2): charge the copy and grow the log — also
        // during re-execution (the log must be rebuilt, Lemma 1).
        let mut copy = 0;
        if self.cfg.protocol == Protocol::V2 {
            let already_logged = rk.replaying() && (index as usize) < rk.sent_sizes[dst].len() - 1;
            let _ = already_logged;
            let bw = if rk.log_bytes > self.cfg.log_ram_budget {
                rk.spilled = true;
                self.cfg.log_disk_bw
            } else {
                self.cfg.log_copy_bw
            };
            copy = transfer_ns(bytes, bw);
            rk.log_bytes += bytes;
            rk.max_log_bytes = rk.max_log_bytes.max(rk.log_bytes);
            if rk.log_bytes > self.cfg.log_capacity {
                self.infeasible = true;
            }
            // The daemon is busy copying: the copy occupies the tx path
            // before any transmission can proceed.
            if copy > 0 {
                self.tx[r].reserve(self.now, copy);
            }
        }
        // Suppression: the destination provably has this message already
        // (consumed, or a *consumable* buffered arrival — a rendezvous
        // announce is not possession: its payload may never have moved).
        let suppressed = index < self.ranks[dst].consumed_count[r]
            || self.ranks[dst].arrivals[r]
                .get(&index)
                .map(|a| a.consumable())
                .unwrap_or(false);
        let disposition = if suppressed {
            mvr_obs::SendDisposition::Suppressed
        } else if self.gate_closed(r) {
            mvr_obs::SendDisposition::Gated
        } else {
            mvr_obs::SendDisposition::Wire
        };
        self.rec(
            r,
            mvr_obs::ProtoEvent::Send {
                to: dst as u32,
                clock,
                bytes,
                disposition,
            },
        );
        if suppressed {
            if let Some(tk) = token {
                self.push_tx_done(self.now + copy, r, tk);
            }
            if let Some(o) = op {
                self.push_tx_done(self.now + copy, r, u64::MAX - o as u64);
            }
            return (copy, true);
        }
        match self.cfg.protocol {
            Protocol::V1 => {
                let cm = self.cm_for(dst);
                self.start_transfer_notify(
                    r,
                    cm,
                    bytes,
                    0,
                    TKind::CmPush {
                        from: r,
                        to: dst,
                        index,
                        bytes,
                    },
                    token.map(|t| (r, t)),
                    op.map(|o| (r, o)),
                );
            }
            _ => {
                self.send_or_gate(
                    r,
                    SendSpec::Payload {
                        dst,
                        index,
                        bytes,
                        token,
                        op,
                    },
                );
            }
        }
        (copy, false)
    }

    // ------------------------------------------------------------------
    // The interpreter
    // ------------------------------------------------------------------

    fn block(&mut self, r: usize, b: Block, class: OpClass) {
        let rk = &mut self.ranks[r];
        debug_assert!(rk.blocked.is_none());
        rk.blocked = Some(b);
        rk.block_kind = class;
        rk.block_start = self.now;
    }

    fn unblock(&mut self, r: usize) {
        let dt = self.now - self.ranks[r].block_start;
        {
            let rk = &mut self.ranks[r];
            let bucket = match rk.block_kind {
                OpClass::Compute => &mut rk.breakdown.compute,
                OpClass::Send => &mut rk.breakdown.send,
                OpClass::Recv => &mut rk.breakdown.recv,
                OpClass::Isend => &mut rk.breakdown.isend,
                OpClass::Wait => &mut rk.breakdown.wait,
            };
            *bucket += dt;
            rk.blocked = None;
        }
        self.advance(r);
    }

    /// Interpret ops until the rank blocks, dies or finishes.
    fn advance(&mut self, r: usize) {
        loop {
            if self.infeasible {
                return;
            }
            {
                let rk = &self.ranks[r];
                if rk.blocked.is_some()
                    || matches!(rk.mode, Mode::Dead | Mode::Finished)
                    || rk.finish.is_some()
                {
                    return;
                }
            }
            // Replay → live transition.
            if let Mode::Replay { until } = self.ranks[r].mode {
                if self.ranks[r].pc >= until {
                    self.ranks[r].mode = Mode::Live;
                    let (replayed, replay_ns) = {
                        let rk = &self.ranks[r];
                        (rk.replayed_n, self.now.saturating_sub(rk.replay_start_t))
                    };
                    self.rec(
                        r,
                        mvr_obs::ProtoEvent::ReplayDone {
                            replayed,
                            replay_ns,
                        },
                    );
                }
            }
            let pc = self.ranks[r].pc;
            if pc >= self.ranks[r].trace.len() {
                self.ranks[r].finish = Some(self.now);
                self.ranks[r].breakdown.finish = self.now;
                let clock = self.ranks[r].clock;
                self.rec(r, mvr_obs::ProtoEvent::Finish { clock });
                return;
            }
            let op = self.ranks[r].trace[pc];
            self.ranks[r].pc = pc + 1;
            match op {
                Op::Compute(ns) => {
                    let stretch = if self.cfg.protocol == Protocol::V2 && self.ranks[r].spilled {
                        self.cfg.disk_contention
                    } else {
                        1.0
                    };
                    let dur = (ns as f64 * stretch) as u64;
                    self.block(r, Block::Compute, OpClass::Compute);
                    self.push_ready(self.now + dur, r);
                    return;
                }
                Op::Send { dst, bytes } => {
                    let p4_buffered =
                        self.cfg.protocol == Protocol::P4 && bytes <= self.cfg.p4_socket_buffer;
                    if p4_buffered {
                        // Fits the socket buffer: MPI_Send returns after
                        // the kernel memcpy; the kernel drains it.
                        let (_c, _s) = self.app_send(r, dst, bytes, None, None);
                        self.block(r, Block::Compute, OpClass::Send);
                        let memcpy = transfer_ns(bytes, self.cfg.log_copy_bw);
                        self.push_ready(self.now + self.cfg.isend_post_cost + memcpy, r);
                        return;
                    }
                    let token = self.ranks[r].next_token;
                    self.ranks[r].next_token += 1;
                    let (copy, suppressed) = self.app_send(r, dst, bytes, Some(token), None);
                    let _ = copy;
                    let _ = suppressed;
                    self.block(r, Block::Send { token }, OpClass::Send);
                    return;
                }
                Op::Isend { dst, bytes } => {
                    self.ranks[r].reqs.insert(pc, false);
                    self.ranks[r].incomplete_reqs.insert(pc);
                    let p4_buffered =
                        self.cfg.protocol == Protocol::P4 && bytes <= self.cfg.p4_socket_buffer;
                    if p4_buffered {
                        // Fits the socket buffer: the request is complete
                        // (buffer reusable) right after the memcpy.
                        let (_c, _s) = self.app_send(r, dst, bytes, None, None);
                        let memcpy = transfer_ns(bytes, self.cfg.log_copy_bw);
                        self.push_tx_done(
                            self.now + self.cfg.isend_post_cost + memcpy,
                            r,
                            u64::MAX - pc as u64,
                        );
                        self.block(r, Block::Compute, OpClass::Isend);
                        self.push_ready(self.now + self.cfg.isend_post_cost + memcpy, r);
                        return;
                    }
                    let p4_eager =
                        self.cfg.protocol == Protocol::P4 && bytes < self.cfg.rndv_threshold;
                    if p4_eager {
                        // Payload pushed during Isend: block the app for
                        // the tx (the Table-1 behaviour). Rendezvous-sized
                        // sends cannot push during Isend even under P4
                        // (the payload waits for the CTS), so they fall
                        // through to the asynchronous path.
                        let token = self.ranks[r].next_token;
                        self.ranks[r].next_token += 1;
                        let (_c, _s) = self.app_send(r, dst, bytes, Some(token), Some(pc));
                        self.block(r, Block::Send { token }, OpClass::Isend);
                        return;
                    }
                    // V1/V2 (and P4 rendezvous): post only; the transfer
                    // is asynchronous and Wait pays for it.
                    let (_copy, _s) = self.app_send(r, dst, bytes, None, Some(pc));
                    self.block(r, Block::Compute, OpClass::Isend);
                    self.push_ready(self.now + self.cfg.isend_post_cost, r);
                    return;
                }
                Op::Recv { src } => {
                    // Reserve the next reception index; fast-path an
                    // already-available in-order message (no queued
                    // waiters to overtake).
                    self.reserve_recv(r, src);
                    if self.ranks[r].waiters[src].is_empty() && self.consumable_now(r, src) {
                        self.consume_one(r, src);
                        continue;
                    }
                    self.ranks[r].waiters[src].push_back(Waiter::Blocking);
                    self.block(r, Block::Recv { src }, OpClass::Recv);
                    return;
                }
                Op::Irecv { src } => {
                    self.ranks[r].reqs.insert(pc, false);
                    self.ranks[r].incomplete_reqs.insert(pc);
                    self.reserve_recv(r, src);
                    if self.ranks[r].waiters[src].is_empty() && self.consumable_now(r, src) {
                        self.consume_one(r, src);
                        self.ranks[r].reqs.insert(pc, true);
                        self.ranks[r].incomplete_reqs.remove(&pc);
                    } else {
                        self.ranks[r].waiters[src].push_back(Waiter::Req(pc));
                    }
                    // continue (no block)
                }
                Op::Wait { req } => {
                    if *self.ranks[r].reqs.get(&req).unwrap_or(&false) {
                        continue;
                    }
                    self.block(r, Block::WaitReq { op: req }, OpClass::Wait);
                    return;
                }
                Op::WaitAll => {
                    if self.ranks[r].incomplete_reqs.is_empty() {
                        continue;
                    }
                    self.block(r, Block::WaitAll, OpClass::Wait);
                    return;
                }
                Op::CheckpointSite => {
                    if self.ranks[r].ckpt_ordered
                        && !self.ranks[r].ckpt_in_progress
                        && self.ranks[r].mode == Mode::Live
                    {
                        self.begin_checkpoint(r);
                    }
                    // continue
                }
            }
        }
    }

    fn reserve_recv(&mut self, r: usize, src: usize) {
        self.ranks[r].reserved_count[src] += 1;
        if self.cfg.protocol == Protocol::V1 {
            // Pull request to our own Channel Memory.
            let cm = self.cm_for(r);
            self.start_transfer(r, cm, self.cfg.event_bytes, 0, TKind::CmPull { owner: r });
        } else {
            self.grant_pending_cts(r, src);
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    fn begin_checkpoint(&mut self, r: usize) {
        // Mirror the engine: arming a checkpoint forces the pending
        // events out so the gate can quiesce.
        self.flush_el(r);
        let image_bytes = self.cfg.process_state_bytes + self.ranks[r].log_bytes;
        let snap = Snapshot {
            pc: self.ranks[r].pc,
            clock: self.ranks[r].clock,
            sent_count: self.ranks[r].sent_count.clone(),
            consumed_count: self.ranks[r].consumed_count.clone(),
            arrived_count: self.ranks[r].consumed_count.clone(),
            log_bytes: self.ranks[r].log_bytes,
            image_bytes,
        };
        self.ranks[r].ckpt_ordered = false;
        self.ranks[r].ckpt_in_progress = true;
        self.ranks[r].snapshot = Some(snap);
        let (seq, log_bytes) = {
            let rk = &mut self.ranks[r];
            rk.ckpt_seq += 1;
            rk.ckpt_begin_t = self.now;
            (rk.ckpt_seq, rk.log_bytes)
        };
        self.rec(
            r,
            mvr_obs::ProtoEvent::CkptBegin {
                seq,
                bytes: log_bytes,
            },
        );
        // Image transfer competes with application traffic on the tx lane
        // but execution continues (overlapped, §4.6.1).
        self.start_transfer(r, self.cs_nid, image_bytes, 0, TKind::CkptImage { rank: r });
    }

    fn on_checkpoint_stored(&mut self, r: usize) {
        if !self.ranks[r].ckpt_in_progress {
            return; // aborted by a crash
        }
        self.ranks[r].ckpt_in_progress = false;
        self.checkpoints += 1;
        let (seq, store_ns) = {
            let rk = &self.ranks[r];
            (rk.ckpt_seq, self.now.saturating_sub(rk.ckpt_begin_t))
        };
        self.rec(r, mvr_obs::ProtoEvent::CkptCommit { seq, store_ns });
        // Garbage collection: every sender drops messages r consumed
        // before the checkpoint (§4.6.1).
        let consumed = self.ranks[r]
            .snapshot
            .as_ref()
            .expect("snapshot set")
            .consumed_count
            .clone();
        for (u, &upto) in consumed.iter().enumerate() {
            if u == r {
                continue;
            }
            let from = self.ranks[u].gc_watermark[r];
            let freed: u64 = self.ranks[u].sent_sizes[r]
                .iter()
                .skip(from as usize)
                .take((upto.saturating_sub(from)) as usize)
                .sum();
            self.ranks[u].gc_watermark[r] = upto.max(from);
            self.ranks[u].log_bytes = self.ranks[u].log_bytes.saturating_sub(freed);
            if freed > 0 {
                self.rec(
                    u,
                    mvr_obs::ProtoEvent::CkptGc {
                        peer: r as u32,
                        bytes_freed: freed,
                    },
                );
            }
        }
        if self.ckpt_continuous && self.ckpt_victim == Some(r) {
            self.pick_ckpt_victim();
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.ckpt_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.ckpt_rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pick_ckpt_victim(&mut self) {
        let alive: Vec<usize> = (0..self.n)
            .filter(|&r| matches!(self.ranks[r].mode, Mode::Live) && self.ranks[r].finish.is_none())
            .collect();
        if alive.is_empty() {
            self.ckpt_victim = None;
            return;
        }
        let v = alive[(self.next_rand() % alive.len() as u64) as usize];
        self.ckpt_victim = Some(v);
        self.ranks[v].ckpt_ordered = true;
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    fn crash(&mut self, v: usize) {
        if matches!(self.ranks[v].mode, Mode::Dead | Mode::Finished) {
            return;
        }
        if self.ranks[v].finish.is_some() {
            return; // finished ranks are not restarted in these scenarios
        }
        self.faults += 1;
        let pc_at_crash = self.ranks[v].pc;
        {
            // Close out any blocked-time attribution.
            if self.ranks[v].blocked.is_some() {
                let dt = self.now - self.ranks[v].block_start;
                self.ranks[v].breakdown.wait += dt;
                self.ranks[v].blocked = None;
            }
            let rk = &mut self.ranks[v];
            rk.mode = Mode::Dead;
            rk.generation += 1;
            rk.pc_at_crash = pc_at_crash;
            rk.ckpt_in_progress = false;
            rk.outstanding_acks = 0;
            rk.pending_el = 0;
            rk.pending_from = None;
            rk.el_ack_tally = 0;
            rk.gated.clear();
            rk.rndv_pending.clear();
            rk.resend_q.clear();
            rk.resend_token = None;
            rk.el_ship_q.clear();
            rk.reqs.clear();
            rk.incomplete_reqs.clear();
            for s in 0..self.n {
                rk.arrivals[s].clear();
                rk.waiters[s].clear();
            }
        }
        if let Some(d) = &self.obs_dispatch {
            d.record_at(
                0,
                self.now,
                mvr_obs::ProtoEvent::ChaosKill {
                    victim: v as u32,
                    rekill: false,
                },
            );
        }
        self.tx[v].reset(self.now);
        self.rx[v].reset(self.now);
        if self.ckpt_victim == Some(v) {
            self.pick_ckpt_victim();
        }
        // Restart after the detection/spawn overhead + image fetch.
        let image = self.ranks[v]
            .snapshot
            .as_ref()
            .map(|s| s.image_bytes)
            .unwrap_or(0);
        let fetch = transfer_ns(image, self.cfg.ckpt_bandwidth);
        self.push_ev(self.now + self.cfg.restart_overhead + fetch, Ev::Restart(v));
    }

    fn restart(&mut self, v: usize) {
        if !matches!(self.ranks[v].mode, Mode::Dead) {
            return;
        }
        let until = self.ranks[v].pc_at_crash;
        {
            let rk = &mut self.ranks[v];
            match rk.snapshot.clone() {
                Some(s) => {
                    rk.pc = s.pc;
                    rk.clock = s.clock;
                    rk.sent_count = s.sent_count;
                    rk.consumed_count = s.consumed_count.clone();
                    rk.arrived_count = s.arrived_count;
                    rk.reserved_count = s.consumed_count;
                    rk.log_bytes = s.log_bytes;
                }
                None => {
                    rk.pc = 0;
                    rk.clock = 0;
                    rk.sent_count = vec![0; self.n];
                    rk.consumed_count = vec![0; self.n];
                    rk.arrived_count = vec![0; self.n];
                    rk.reserved_count = vec![0; self.n];
                    rk.log_bytes = 0;
                }
            }
            rk.mode = if rk.pc >= until {
                Mode::Live
            } else {
                Mode::Replay { until }
            };
            rk.finish = None;
            rk.replayed_n = 0;
            rk.replay_start_t = self.now;
        }
        let restored_clock = self.ranks[v].clock;
        self.rec(v, mvr_obs::ProtoEvent::RecoveryBegin { restored_clock });
        self.rec(v, mvr_obs::ProtoEvent::Restart1 { rank: v as u32 });
        // RESTART1: every live peer re-sends what v's restored state has
        // not received.
        self.enqueue_retransmits_to(v);
        // RESTART2 replies: v re-sends, from its restored log, the
        // pre-checkpoint messages its peers are missing — messages can be
        // lost in both directions when both ends were down concurrently
        // (the multi-fault case of Appendix A).
        self.enqueue_retransmits_from(v);
        self.push_ready(self.now, v);
    }

    /// Re-send, from `u`'s restored sender log, the messages each live
    /// peer is missing and that `u` will not re-create (indices below its
    /// restored send counters).
    fn enqueue_retransmits_from(&mut self, u: usize) {
        if self.cfg.protocol == Protocol::V1 {
            return; // V1 recovery is CM-driven
        }
        for v in 0..self.n {
            if v == u || matches!(self.ranks[v].mode, Mode::Dead) {
                continue;
            }
            let from_idx = self.ranks[v].consumed_count[u];
            let upto = self.ranks[u].sent_count[v];
            let sizes: Vec<(u64, u64)> = (from_idx..upto)
                .map(|i| (i, self.ranks[u].sent_sizes[v][i as usize]))
                .collect();
            for (index, bytes) in sizes {
                self.ranks[u].resend_q.push_back((v, index, bytes));
            }
        }
        self.pump_resends(u);
    }

    /// Re-send, from every peer's sender log, the messages `v`'s restored
    /// state has not received (index ≥ its arrived count).
    fn enqueue_retransmits_to(&mut self, v: usize) {
        for u in 0..self.n {
            if u == v || matches!(self.ranks[u].mode, Mode::Dead) {
                continue;
            }
            // Base at the consumption pointer: everything not provably
            // consumed is re-sent (the receiver drops surplus).
            let from_idx = self.ranks[v].consumed_count[u];
            let upto = self.ranks[u].sent_count[v];
            let sizes: Vec<(u64, u64)> = (from_idx..upto)
                .map(|i| (i, self.ranks[u].sent_sizes[v][i as usize]))
                .collect();
            if self.cfg.protocol == Protocol::V1 {
                // V1 recovery is CM-driven; the CM still holds the
                // messages (reliable); nothing to do sender-side.
                continue;
            }
            for (index, bytes) in sizes {
                // The retransmit supersedes any rendezvous handshake that
                // was pending toward the crashed receiver: complete its
                // request (the buffer is ours again) and drop the stale
                // pending entry.
                if let Some((_, token, op)) = self.ranks[u].rndv_pending.remove(&(v, index)) {
                    if let Some(tk) = token {
                        self.push_tx_done(self.now, u, tk);
                    }
                    if let Some(o) = op {
                        self.push_tx_done(self.now, u, u64::MAX - o as u64);
                    }
                }
                self.ranks[u].resend_q.push_back((v, index, bytes));
            }
            self.pump_resends(u);
        }
        // V1: reset the CM pull/forward cursors so re-pulls replay the
        // stored sequence from the restored reception index.
        if self.cfg.protocol == Protocol::V1 {
            let slot = self.cm_owner_slot(v);
            self.cm_forwarded[slot] = 0;
            self.cm_pulled[slot] = 0;
            // (A full V1 CM replay model would re-stream the stored
            // prefix; V1 fault experiments are out of the paper's scope.)
        }
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Run to completion with a fault/checkpoint plan.
    pub fn run_with_plan(mut self, plan: &FaultPlan) -> SimReport {
        self.ckpt_continuous = plan.continuous_checkpointing;
        self.ckpt_rng = plan.seed.max(1);
        for &(t, v) in &plan.faults {
            self.push_ev(t, Ev::Crash(v));
        }
        if self.ckpt_continuous {
            self.push_ev(0, Ev::SchedulerKick);
        }
        // Start every live rank.
        for r in 0..self.n {
            if matches!(self.ranks[r].mode, Mode::Live | Mode::Replay { .. }) {
                self.push_ready(0, r);
            }
        }
        let mut guard: u64 = 0;
        while let Some(Reverse(HeapEv { t, ev, .. })) = self.heap.pop() {
            self.now = t;
            if self.infeasible {
                break;
            }
            guard += 1;
            assert!(guard < 2_000_000_000, "simulation runaway");
            match ev {
                Ev::RankReady(r, gen) => {
                    if self.ranks[r].generation != gen {
                        continue; // stale incarnation
                    }
                    if self.ranks[r].blocked == Some(Block::Compute) {
                        self.unblock(r);
                    } else if self.ranks[r].blocked.is_none() {
                        self.advance(r);
                    }
                }
                Ev::ChunkArrive { tid, bytes, last } => self.on_chunk_arrive(tid, bytes, last),
                Ev::TxNextChunk { tid } => self.tx_chunk(tid, 0),
                Ev::Delivered { tid } => self.on_delivered_ev(tid),
                Ev::SendTxDone { rank, token, gen } => {
                    if self.ranks[rank].generation == gen {
                        self.on_send_tx_done(rank, token);
                    }
                }
                Ev::Crash(v) => self.crash(v),
                Ev::Restart(v) => self.restart(v),
                Ev::SchedulerKick => self.pick_ckpt_victim(),
            }
            if self.all_done() {
                break;
            }
        }
        debug_assert!(
            self.all_done() || self.infeasible,
            "simulation wedged: event heap drained before completion"
        );
        self.into_report()
    }

    /// Stream the next queued recovery re-send, if none is in flight.
    fn pump_resends(&mut self, r: usize) {
        if self.ranks[r].resend_token.is_some() {
            return;
        }
        let Some((dst, index, bytes)) = self.ranks[r].resend_q.pop_front() else {
            return;
        };
        let token = self.ranks[r].next_token;
        self.ranks[r].next_token += 1;
        self.ranks[r].resend_token = Some(token);
        self.send_or_gate(
            r,
            SendSpec::Payload {
                dst,
                index,
                bytes,
                token: Some(token),
                op: None,
            },
        );
    }

    fn on_send_tx_done(&mut self, r: usize, token: u64) {
        if self.ranks[r].resend_token == Some(token) {
            self.ranks[r].resend_token = None;
            self.pump_resends(r);
            return;
        }
        // Tokens in the upper range encode request completions.
        if token > u64::MAX / 2 {
            let op = (u64::MAX - token) as usize;
            self.ranks[r].reqs.insert(op, true);
            self.ranks[r].incomplete_reqs.remove(&op);
            self.check_wait_block(r);
            return;
        }
        if self.ranks[r].blocked == Some(Block::Send { token }) {
            self.unblock(r);
        }
    }

    fn all_done(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| r.finish.is_some() || matches!(r.mode, Mode::Finished))
    }

    fn into_report(self) -> SimReport {
        let makespan = self
            .ranks
            .iter()
            .filter(|r| !matches!(r.mode, Mode::Finished))
            .filter_map(|r| r.finish)
            .max()
            .unwrap_or(self.now);
        SimReport {
            makespan,
            per_rank: self.ranks.iter().map(|r| r.breakdown).collect(),
            msgs_delivered: self.msgs_delivered,
            bytes_delivered: self.bytes_delivered,
            el_events: self.el_events,
            el_requests: self.el_requests,
            max_log_bytes: self
                .ranks
                .iter()
                .map(|r| r.max_log_bytes)
                .max()
                .unwrap_or(0),
            spilled: self.ranks.iter().any(|r| r.spilled),
            infeasible: self.infeasible,
            checkpoints: self.checkpoints,
            faults: self.faults,
            gate_wait: self.gate_wait,
            el_ack_rtt: self.el_ack_rtt,
        }
    }
}

/// Simulate a fault-free run.
pub fn simulate(cfg: ClusterConfig, traces: Vec<Vec<Op>>) -> SimReport {
    Sim::new(cfg, traces).run_with_plan(&FaultPlan::default())
}

/// Simulate with faults and (optionally) continuous checkpointing.
pub fn simulate_with_faults(
    cfg: ClusterConfig,
    traces: Vec<Vec<Op>>,
    plan: &FaultPlan,
) -> SimReport {
    Sim::new(cfg, traces).run_with_plan(plan)
}

/// The Fig.-10 scenario: the run has completed; restart the given ranks
/// from the *beginning* (no checkpoints) and measure their re-execution.
/// Non-restarted ranks only serve re-sends from their logs.
#[allow(clippy::needless_range_loop)] // rank/peer cross-indexing
pub fn simulate_replay(cfg: ClusterConfig, traces: Vec<Vec<Op>>, restarted: &[usize]) -> SimReport {
    let n = traces.len();
    let restarted: HashSet<usize> = restarted.iter().copied().collect();
    // Per-pair totals of the completed run.
    let mut sent_sizes: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n]; n];
    for (r, t) in traces.iter().enumerate() {
        for op in t {
            match op {
                Op::Send { dst, bytes } | Op::Isend { dst, bytes } => {
                    sent_sizes[r][*dst].push(*bytes);
                }
                _ => {}
            }
        }
    }
    let mut sim = Sim::new(cfg, traces);
    for r in 0..n {
        if restarted.contains(&r) {
            let until = sim.ranks[r].trace.len();
            sim.ranks[r].mode = Mode::Replay { until };
        } else {
            // Finished: full counters; serves re-sends only.
            sim.ranks[r].mode = Mode::Finished;
            for d in 0..n {
                sim.ranks[r].sent_count[d] = sent_sizes[r][d].len() as u64;
                sim.ranks[r].sent_sizes[d] = sent_sizes[r][d].clone();
            }
            for s in 0..n {
                let total = sent_sizes[s][r].len() as u64;
                sim.ranks[r].arrived_count[s] = total;
                sim.ranks[r].consumed_count[s] = total;
                sim.ranks[r].reserved_count[s] = total;
            }
        }
    }
    // RESTART1 handshake: every finished peer streams its logged messages
    // to the restarted ranks.
    let restarted_list: Vec<usize> = restarted.iter().copied().collect();
    for &v in &restarted_list {
        sim.enqueue_retransmits_to(v);
    }
    sim.run_with_plan(&FaultPlan::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn cfg(p: Protocol, n: usize) -> ClusterConfig {
        ClusterConfig::paper_cluster(p, n)
    }

    fn one_send(bytes: u64) -> Vec<Vec<Op>> {
        let mut a = TraceBuilder::new();
        a.send(1, bytes);
        let mut b = TraceBuilder::new();
        b.recv(0);
        vec![a.build(), b.build()]
    }

    #[test]
    fn single_message_analytic_time_p4() {
        // Delivery time = send_overhead + bytes/bw + wire + last-chunk rx
        // (+ recv_overhead); check against the closed form within 2%.
        let c = cfg(Protocol::P4, 2);
        let bytes = 64 * 1024u64;
        let rep = simulate(c.clone(), one_send(bytes));
        let expect = c.send_overhead
            + transfer_ns(bytes, c.bandwidth)
            + c.wire_latency
            + transfer_ns(c.chunk_bytes, c.bandwidth)
            + c.recv_overhead;
        let err = (rep.makespan as f64 - expect as f64).abs() / expect as f64;
        assert!(err < 0.02, "makespan {} vs analytic {expect}", rep.makespan);
    }

    #[test]
    fn v2_zero_byte_includes_no_gate_wait_for_single_message() {
        // A single one-way message never waits on the gate (the gate only
        // defers *subsequent* sends).
        let p4 = simulate(cfg(Protocol::P4, 2), one_send(0)).makespan;
        let v2 = simulate(cfg(Protocol::V2, 2), one_send(0)).makespan;
        assert_eq!(
            p4, v2,
            "one-way latency identical: the ack is off the critical path"
        );
    }

    #[test]
    fn gate_defers_second_send_after_reception() {
        // B receives then sends: the reply waits for the EL ack.
        let mut a = TraceBuilder::new();
        a.send(1, 0);
        a.recv(1);
        let mut b = TraceBuilder::new();
        b.recv(0);
        b.send(0, 0);
        let t = vec![a.build(), b.build()];
        let p4 = simulate(cfg(Protocol::P4, 2), t.clone()).makespan;
        let v2 = simulate(cfg(Protocol::V2, 2), t).makespan;
        let c = cfg(Protocol::V2, 2);
        let el_rtt = 2 * (c.send_overhead + c.wire_latency + c.recv_overhead) + c.el_service;
        let slack = (v2 - p4) as i64 - el_rtt as i64;
        assert!(
            slack.abs() < 20_000,
            "V2 - P4 should be one EL round trip (~{el_rtt} ns), got {}",
            v2 - p4
        );
    }

    #[test]
    fn driver_stall_applies_only_to_large_eager() {
        // Bidirectional exchange of eager-large messages halves P4
        // throughput; small or rendezvous messages do not.
        let bidir = |bytes: u64| {
            let mut a = TraceBuilder::new();
            let sa = a.isend(1, bytes);
            a.recv(1);
            a.wait(sa);
            let mut b = TraceBuilder::new();
            let sb = b.isend(0, bytes);
            b.recv(0);
            b.wait(sb);
            vec![a.build(), b.build()]
        };
        let c = cfg(Protocol::P4, 2);
        let wire = |bytes: u64| transfer_ns(bytes, c.bandwidth);
        // Large eager (100 kB): serialized => ~2x wire time.
        let t_large = simulate(c.clone(), bidir(100 << 10)).makespan;
        assert!(
            t_large as f64 > 1.7 * wire(100 << 10) as f64,
            "large eager must stall"
        );
        // Rendezvous (300 kB): full duplex => ~1x wire time + handshake.
        let t_rndv = simulate(c.clone(), bidir(300 << 10)).makespan;
        assert!(
            (t_rndv as f64) < 1.5 * wire(300 << 10) as f64,
            "rendezvous must not stall: {} vs wire {}",
            t_rndv,
            wire(300 << 10)
        );
    }

    #[test]
    fn el_partition_is_stable() {
        let sim = Sim::new(cfg(Protocol::V2, 8), vec![Vec::new(); 8]);
        for r in 0..8 {
            let el = sim.el_nid(r, 0);
            assert!(el >= sim.el_base && el < sim.cm_base);
            assert_eq!(el, sim.el_nid(r, 0));
        }
    }

    #[test]
    fn el_replica_addressing_is_contiguous_per_shard() {
        let mut c = cfg(Protocol::V2, 8);
        c.event_loggers = 2;
        c.el_replicas = 3;
        let sim = Sim::new(c, vec![Vec::new(); 8]);
        assert_eq!(sim.cm_base - sim.el_base, 6, "2 shards x 3 replicas");
        for r in 0..8 {
            let shard = r % 2;
            for rep in 0..3 {
                assert_eq!(sim.el_nid(r, rep), sim.el_base + shard * 3 + rep);
            }
        }
        assert_eq!(sim.el_quorum(), 2, "majority of 3");
    }

    #[test]
    fn el_replication_costs_traffic_but_not_the_gate() {
        // The same event sequence ships R wire copies per batch, but the
        // gate reopens on the quorum ack of symmetric replicas: logical
        // counts and RTT samples are replica-invariant, and the makespan
        // only pays the fan-out serialization (never improves).
        let run = |reps: usize| {
            let mut c = cfg(Protocol::V2, 2);
            c.el_replicas = reps;
            let mut a = TraceBuilder::new();
            let mut b = TraceBuilder::new();
            for _ in 0..20 {
                a.send(1, 1024);
                b.recv(0);
            }
            simulate(c, vec![a.build(), b.build()])
        };
        let base = run(1);
        let tri = run(3);
        assert_eq!(tri.el_events, base.el_events, "logical events");
        assert_eq!(tri.el_requests, base.el_requests, "batches shipped");
        // One RTT sample per *retired* batch, taken at the quorum ack.
        // Quorum acks land later than a lone ack (the fan-out serializes
        // on the owner's tx lane), so more tail batches can still be in
        // flight at finish — the count may trail, never exceed.
        assert!(tri.el_ack_rtt.count() <= base.el_ack_rtt.count());
        assert!(base.el_ack_rtt.count() <= base.el_requests);
        assert_eq!(tri.msgs_delivered, base.msgs_delivered);
        assert!(tri.makespan >= base.makespan, "replication is never free");
    }

    #[test]
    fn report_counts_match_traffic() {
        let mut a = TraceBuilder::new();
        for _ in 0..5 {
            a.send(1, 1000);
        }
        let mut b = TraceBuilder::new();
        for _ in 0..5 {
            b.recv(0);
        }
        let rep = simulate(cfg(Protocol::V2, 2), vec![a.build(), b.build()]);
        assert_eq!(rep.msgs_delivered, 5);
        assert_eq!(rep.bytes_delivered, 5000);
        assert_eq!(rep.el_events, 5);
        assert_eq!(rep.el_requests, 5, "eager logging: one request per event");
        assert_eq!(rep.max_log_bytes, 5000);
    }

    #[test]
    fn el_batching_coalesces_requests_for_reception_bursts() {
        // A receive-only rank accumulates events to the batch threshold:
        // 8 receptions ship as ceil(8/4) = 2 EL requests.
        let mut a = TraceBuilder::new();
        for _ in 0..8 {
            a.send(1, 1000);
        }
        let mut b = TraceBuilder::new();
        for _ in 0..8 {
            b.recv(0);
        }
        let mut c = cfg(Protocol::V2, 2);
        c.el_batch_max = 4;
        let rep = simulate(c, vec![a.build(), b.build()]);
        assert_eq!(rep.el_events, 8);
        assert_eq!(rep.el_requests, 2, "two 4-event batches");
        assert_eq!(rep.msgs_delivered, 8);
    }

    #[test]
    fn el_batching_flushes_when_a_send_gates() {
        // Ping-pong under a huge batch threshold: each reply queues
        // behind the gate, which forces the pending event out — the run
        // completes (no deadlock) and pays one EL request per reception.
        let iters = 4u32;
        let mut a = TraceBuilder::new();
        let mut b = TraceBuilder::new();
        for _ in 0..iters {
            a.send(1, 0);
            a.recv(1);
            b.recv(0);
            b.send(0, 0);
        }
        let mut c = cfg(Protocol::V2, 2);
        c.el_batch_max = 1 << 20;
        let rep = simulate(c, vec![a.build(), b.build()]);
        assert_eq!(rep.msgs_delivered, 2 * iters as u64);
        assert_eq!(rep.el_events, 2 * iters as u64);
        // B's replies force per-event flushes; A's receptions (no
        // subsequent gated send except the next ping) flush likewise.
        assert!(
            rep.el_requests >= iters as u64,
            "gated sends must force flushes: {} requests",
            rep.el_requests
        );
    }

    #[test]
    fn el_batching_preserves_one_way_latency() {
        // Lazy batching only defers EL traffic; a single one-way message
        // never waits on the gate, so its latency is unchanged.
        let eager = simulate(cfg(Protocol::V2, 2), one_send(0)).makespan;
        let mut c = cfg(Protocol::V2, 2);
        c.el_batch_max = 64;
        let lazy = simulate(c, one_send(0)).makespan;
        assert_eq!(eager, lazy);
    }

    #[test]
    fn v1_stores_nothing_on_computing_nodes() {
        let rep = simulate(cfg(Protocol::V1, 2), one_send(4096));
        assert_eq!(rep.max_log_bytes, 0, "V1 logs on the CM, not the sender");
        assert_eq!(rep.el_events, 0);
    }

    #[test]
    fn checkpoint_site_without_order_is_free() {
        let mk = |sites: bool| {
            let mut a = TraceBuilder::new();
            let mut b = TraceBuilder::new();
            for _ in 0..10 {
                a.send(1, 1024);
                if sites {
                    a.checkpoint_site();
                }
                b.recv(0);
                if sites {
                    b.checkpoint_site();
                }
            }
            vec![a.build(), b.build()]
        };
        let with = simulate(cfg(Protocol::V2, 2), mk(true)).makespan;
        let without = simulate(cfg(Protocol::V2, 2), mk(false)).makespan;
        assert_eq!(with, without, "unarmed checkpoint sites cost nothing");
    }

    /// Render the dump exactly as `RecorderHub::dump` writes it.
    fn canonical_dump(hub: &mvr_obs::RecorderHub) -> String {
        let timeline = hub.timeline();
        let header = mvr_obs::DumpHeader {
            records: timeline.len() as u64,
            dropped: hub.dropped(),
            ..mvr_obs::DumpHeader::default()
        };
        mvr_obs::render_dump(&header, &timeline)
    }

    fn chaotic_v2_dump(seed: u64) -> String {
        // A faulted, continuously-checkpointing V2 run: exercises Send /
        // GateDefer / GateOpen / Deliver / ElShip / ElAck / Ckpt* /
        // ChaosKill / Restart1 / ReplayStep / Finish records.
        let iters = 6;
        let mut a = TraceBuilder::new();
        let mut b = TraceBuilder::new();
        for _ in 0..iters {
            a.send(1, 2048);
            a.recv(1);
            a.checkpoint_site();
            b.recv(0);
            b.send(0, 2048);
            b.checkpoint_site();
        }
        let hub = mvr_obs::RecorderHub::new(mvr_obs::RecorderConfig::enabled());
        let mut sim = Sim::new(cfg(Protocol::V2, 2), vec![a.build(), b.build()]);
        sim.attach_recorder(&hub);
        let plan = FaultPlan {
            faults: vec![(3_000_000, 1)],
            continuous_checkpointing: true,
            seed,
        };
        let rep = sim.run_with_plan(&plan);
        assert!(!rep.infeasible);
        assert_eq!(rep.faults, 1);
        canonical_dump(&hub)
    }

    #[test]
    fn seeded_run_dumps_are_byte_stable() {
        let d1 = chaotic_v2_dump(42);
        let d2 = chaotic_v2_dump(42);
        assert_eq!(d1, d2, "same seed must render byte-identical dumps");
        assert!(d1.contains("\"Deliver\""), "dump has deliveries");
        assert!(d1.contains("\"ElAck\""), "dump has EL acks");
        assert!(d1.contains("\"ChaosKill\""), "dump has the injected kill");
        assert!(d1.contains("\"Restart1\""), "dump has the restart");
        // The faulted timeline passes the strict audit too: the clock a
        // restart restores is a recovery boundary, like the engine's.
        let records: Result<Vec<_>, _> =
            d1.lines().skip(1).map(mvr_obs::parse_record_line).collect();
        let records = records.expect("every dump line parses");
        let audit = mvr_obs::audit(None, &records).expect("well-formed");
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
    }

    #[test]
    fn virtual_time_records_survive_the_span_stitcher() {
        // The merged virtual-time timeline must pass the strict audit —
        // the same bar the acceptance pipeline holds real dumps to.
        let iters = 4;
        let mut a = TraceBuilder::new();
        let mut b = TraceBuilder::new();
        for _ in 0..iters {
            a.send(1, 512);
            a.recv(1);
            b.recv(0);
            b.send(0, 512);
        }
        let hub = mvr_obs::RecorderHub::new(mvr_obs::RecorderConfig::enabled());
        let mut sim = Sim::new(cfg(Protocol::V2, 2), vec![a.build(), b.build()]);
        sim.attach_recorder(&hub);
        sim.run_with_plan(&FaultPlan::default());
        let timeline = hub.timeline();
        let audit = mvr_obs::audit(None, &timeline).expect("well-formed sim timeline");
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
        assert_eq!(audit.spans.spans.len(), 2 * iters, "one span per message");
    }

    #[test]
    fn lane_reservation_chain_is_fifo() {
        let mut lane = Lane::new();
        let (s1, e1) = lane.reserve(0, 100);
        let (s2, e2) = lane.reserve(0, 50);
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 150));
    }
}
