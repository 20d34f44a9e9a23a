//! The discrete-event cluster simulator.
//!
//! Interprets per-rank [`Op`] traces under one of the three protocol
//! models (P4 / V1 / V2, see `config.rs`), with chunk-pipelined transfers
//! over FIFO lanes, sender-based log volume accounting (RAM → disk spill
//! → infeasible), checkpointing overlapped with execution, crash-and-
//! recover faults, and log-driven re-execution.
//!
//! The simulator is a cost model around the shipped protocol code. Every
//! rank's MPI layer is one `mvr_mpi::MpiCore` — the core under the
//! runtime's `Mpi` — so matching, the eager/rendezvous choice and the
//! rendezvous handshake are `mvr-mpi`'s. Below it, every V2 rank runs one
//! real [`V2Engine`] and every V1 rank one `V1Engine` over the shipped
//! `ChannelMemory` repositories, in virtual time, fed through the same
//! APIs the runtime uses; P4 puts the core's frames straight on the wire.
//! The simulator decides no protocol question: it charges lanes, chunks,
//! socket buffers, sender-log copies and event-logger service, and maps
//! each delivery back to the frame it carries.
//!
//! Faithfulness notes (what maps to what in the paper):
//! * V2 sends queue behind unacknowledged reception events (§4.5); every
//!   channel frame a rank receives — eager data, rendezvous request,
//!   clear-to-send and rendezvous data — is a logged reception;
//! * V2 `MPI_Isend` only posts; the payload moves asynchronously and the
//!   app pays in `MPI_Wait` (Table 1); P4 pushes during `MPI_Isend`;
//! * the P4 driver is half-duplex (shared lane), V2 full-duplex (Fig. 9);
//!   a connection is a FIFO byte stream, so two messages between the
//!   same nodes never overtake each other (MPI's non-overtaking rule,
//!   which the core relies on);
//! * V1 store-and-forwards every frame through the receiver's Channel
//!   Memory (bandwidth ÷ 2, Fig. 5), pulling one frame whenever the MPI
//!   layer waits, as the runtime's V1 channel does;
//! * a restarted node receives re-sent payloads from its peers' logs, and
//!   a re-executed send is suppressed once the peer's RESTART watermark
//!   shows it already has the message; no event-logger traffic is
//!   replayed (Fig. 10). As on the runtime, a restarted process resumes
//!   right after `begin_recovery`; its engine holds the data for a peer
//!   that has not answered yet;
//! * checkpoints ship `process state + sender log` to the checkpoint
//!   server over the node's own tx lane, overlapped with execution, and
//!   the engines' checkpoint notifications garbage-collect the peers'
//!   logs (Fig. 11).

use crate::config::{ClusterConfig, Protocol};
use crate::lane::Lane;
use crate::report::{RankBreakdown, SimReport};
use crate::time::{transfer_ns, SimTime};
use crate::trace::Op;
use mvr_ckpt::{Policy, Scheduler};
use mvr_core::baseline::v1::{ChannelMemory, V1Engine, V1Output};
use mvr_core::{
    CmReply, CmRequest, ElReply, ElRequest, EngineSnapshot, Input, Output, Payload, PeerMsg, Rank,
    V2Engine,
};
use mvr_eventlog::{merge_downloads, quorum_of, EventLogStore};
use mvr_mpi::{Context, MpiCore, MpiFrame, RecvMsg, SendStart, Source, Tag};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

type Nid = usize;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Ev {
    /// Resume a rank's interpreter (compute done, send accepted, ...),
    /// valid only for the stamped incarnation.
    RankReady(usize, u32),
    /// A transfer chunk reaches the destination's rx lane.
    ChunkArrive { tid: usize, bytes: u64, last: bool },
    /// Transmit the next chunk of a transfer (or the first one of a
    /// transfer that waited for its connection).
    TxNextChunk { tid: usize },
    /// A whole message finished its rx stage.
    Delivered { tid: usize },
    /// A send request's payload has left the node (trace op `op`),
    /// valid only for the stamped incarnation.
    SendTxDone { rank: usize, op: usize, gen: u32 },
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
    /// P4: an MPI frame on the wire.
    Mpi {
        from: usize,
        to: usize,
        frame: MpiFrame,
    },
    /// V2: a message between two ranks' engines.
    Peer {
        from: usize,
        to: usize,
        msg: PeerMsg,
    },
    /// V2: a request to one event-logger replica of `owner`'s shard.
    ElReq {
        owner: usize,
        replica: u32,
        req: ElRequest,
    },
    /// V2: a replica's acknowledgement back to `owner`.
    ElAck {
        owner: usize,
        replica: u32,
        up_to: u64,
    },
    /// V1: a request to the Channel Memory of `owner` (a push from a
    /// sender, a pull from the owner).
    CmReq { owner: usize, req: CmRequest },
    /// V1: a Channel Memory's reply to its owner.
    CmReply { owner: usize, reply: CmReply },
    /// Checkpoint image to the checkpoint server.
    CkptImage { rank: usize },
}

/// The send request (its trace op) to complete once a payload has left
/// the node.
type Notify = Option<usize>;

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
    /// Source-side time charged before the first chunk.
    head: SimTime,
    /// Completions fired when the last chunk leaves.
    notify: Notify,
    /// P4 large-eager transfer: stalls the single-threaded driver on both
    /// ends (blocking `write()` past the socket buffer; the driver neither
    /// writes other sockets nor reads incoming meanwhile) — the Fig. 9
    /// half-duplex effect and the paper's BT observation. Rendezvous
    /// transfers go through the chunked progress engine and interleave.
    p4_stall: bool,
}

/// A connection: one FIFO stream from its source node to `dst`.
#[derive(Clone, Debug)]
struct Conn {
    dst: Nid,
    /// When the last byte of the previous transfer left.
    free_at: SimTime,
    /// Transfers waiting for the connection; the first is on the wire
    /// (or starts at `free_at`).
    queue: VecDeque<usize>,
}

// ---------------------------------------------------------------------
// Per-rank state
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Block {
    Compute,
    /// Until request `op` completes (a blocking send or receive waits on
    /// its own op).
    WaitReq {
        op: usize,
    },
    WaitAll,
    /// At a checkpoint site with an order pending, until the gate opens.
    Quiesce,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Compute,
    Send,
    Recv,
    Isend,
    Wait,
}

/// An outstanding request.
#[derive(Clone, Copy, Debug)]
enum Req {
    /// A send, until its payload has left the node; with the core's id
    /// of a send whose body the core holds until the peer's
    /// clear-to-send.
    Send(Option<u64>),
    /// A receive: the core's posted request.
    Recv(u64),
}

/// The MPI process: interpreter position, requests and the MPI core —
/// what a checkpoint image captures beside the engine.
#[derive(Clone, Debug)]
struct Proc {
    pc: usize,
    /// The MPI library.
    core: MpiCore,
    /// Outstanding requests, by trace op index (post order).
    reqs: BTreeMap<usize, Req>,
    /// V1/V2 frames sent per destination / delivered per source:
    /// positions in the pairs' frame lists.
    chan_sent: Vec<u64>,
    chan_recvd: Vec<u64>,
    /// V2 sends whose payload has not left the node yet, by (destination,
    /// sender clock).
    pending_tx: BTreeMap<(usize, u64), Notify>,
    /// Every consumed message, as (source, bytes), in consumption order.
    #[cfg(test)]
    consumed: Vec<(usize, u64)>,
}

impl Proc {
    fn new(rank: usize, n: usize) -> Self {
        Proc {
            pc: 0,
            core: MpiCore::new(Rank(rank as u32)),
            reqs: BTreeMap::new(),
            chan_sent: vec![0; n],
            chan_recvd: vec![0; n],
            pending_tx: BTreeMap::new(),
            #[cfg(test)]
            consumed: Vec::new(),
        }
    }

    /// Has request `op` completed? (One no longer outstanding has.)
    fn req_done(&self, op: usize) -> bool {
        match self.reqs.get(&op) {
            Some(&Req::Recv(seq)) => self.core.recv_done(seq),
            Some(Req::Send(_)) => false,
            None => true,
        }
    }

    /// Can request `op` only complete through a delivery (a receive, or
    /// a held send still waiting for its clear-to-send)?
    fn needs_delivery(&self, op: usize) -> bool {
        match self.reqs.get(&op) {
            Some(&Req::Recv(seq)) => !self.core.recv_done(seq),
            Some(&Req::Send(held)) => held.is_some_and(|id| !self.core.send_done(id)),
            None => false,
        }
    }

    /// Retire completed request `op`: its message, if a receive.
    fn retire(&mut self, op: usize) -> Option<RecvMsg> {
        match self.reqs.remove(&op)? {
            Req::Recv(seq) => self.core.take_recv(seq).expect("a posted receive"),
            Req::Send(_) => None,
        }
    }
}

/// A checkpoint image: the process and the engine half.
#[derive(Clone, Debug)]
struct Snapshot {
    proc: Proc,
    engine: EngineSnapshot,
    image_bytes: u64,
}

struct RankSim {
    trace: Vec<Op>,
    proc: Proc,
    /// The V2 protocol engine (none under P4/V1, and while crashed).
    engine: Option<V2Engine>,
    /// The V1 computing-node engine (none under P4/V2).
    v1: Option<V1Engine>,
    down: bool,
    generation: u32,
    blocked: Option<Block>,
    block_kind: OpClass,
    block_start: SimTime,
    /// V1/V2: the daemon has a receive posted (`AppRecv`, a CM pull) for
    /// the next delivery.
    recv_posted: bool,
    /// V2: a checkpoint order was forwarded and has not been armed yet.
    ckpt_ordered: bool,
    /// V1/V2: the MPI frames sent to each destination, in order, and
    /// not yet delivered unless `Sim::keep_sent`. Kept across
    /// incarnations: re-execution rebuilds the same list.
    sent: Vec<VecDeque<MpiFrame>>,
    max_log_bytes: u64,
    spilled: bool,
    /// The checkpoint image in flight to the server, and the last one
    /// stored.
    image: Option<Snapshot>,
    snapshot: Option<Snapshot>,
    finish: Option<SimTime>,
    breakdown: RankBreakdown,
}

impl RankSim {
    fn new(trace: Vec<Op>, rank: usize, n: usize) -> Self {
        RankSim {
            trace,
            proc: Proc::new(rank, n),
            engine: None,
            v1: None,
            down: false,
            generation: 0,
            blocked: None,
            block_kind: OpClass::Compute,
            block_start: 0,
            recv_posted: false,
            ckpt_ordered: false,
            sent: vec![VecDeque::new(); n],
            max_log_bytes: 0,
            spilled: false,
            image: None,
            snapshot: None,
            finish: None,
            breakdown: RankBreakdown::default(),
        }
    }

    fn engine(&mut self) -> &mut V2Engine {
        self.engine.as_mut().expect("a live V2 rank has an engine")
    }

    /// Is the rank blocked on something only a delivery can resolve?
    fn awaits_delivery(&self) -> bool {
        let p = &self.proc;
        match self.blocked {
            Some(Block::WaitReq { op }) => p.needs_delivery(op),
            Some(Block::WaitAll) => p.reqs.keys().any(|&op| p.needs_delivery(op)),
            Some(Block::Compute | Block::Quiesce) | None => false,
        }
    }
}

// ---------------------------------------------------------------------
// Fault / replay plans
// ---------------------------------------------------------------------

/// Fault-injection and checkpointing plan for a simulation (V2 only).
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
    /// Start of the measured phase (the restart instant for
    /// [`simulate_replay`]).
    t0: SimTime,
    /// The engines' time source, moved with `now`.
    clock: mvr_obs::VirtualClock,
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
    /// Slots of `transfers` whose last event has passed, for reuse.
    free_tids: Vec<usize>,
    /// V2: the connections each node has opened, by source node.
    conns: Vec<Vec<Conn>>,
    n: usize,
    el_base: Nid,
    cm_base: Nid,
    cs_nid: Nid,
    /// One event-log store per event-logger node (V2).
    el_stores: Vec<EventLogStore>,
    /// Every message body is a slice of this one zero buffer.
    zeros: Payload,
    /// V1: the Channel Memory of each rank, by owner.
    cms: Vec<ChannelMemory>,
    /// A run that may re-execute (a fault plan, a replay) keeps every
    /// frame sent, to deliver it again and to check the re-sent copy;
    /// any other run drops a frame once it is delivered.
    keep_sent: bool,
    // Stats
    msgs_delivered: u64,
    bytes_delivered: u64,
    checkpoints: u64,
    faults: u64,
    /// Counters and timings of the engines of crashed incarnations.
    retired_events: u64,
    retired_batches: u64,
    retired_timings: mvr_obs::ProtocolTimings,
    /// Per-rank recorders on the virtual clock (disabled unless a hub is
    /// attached), handed to every incarnation's engine.
    obs: Vec<mvr_obs::Recorder>,
    /// Pseudo-rank recorder for fault-plan interventions.
    obs_dispatch: Option<mvr_obs::Recorder>,
    infeasible: bool,
    // Continuous checkpointing
    ckpt_sched: Scheduler,
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
        let v2 = cfg.protocol == Protocol::V2;
        let max_bytes = traces
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Send { bytes, .. } | Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .chain([cfg.event_bytes])
            .max()
            .unwrap_or(0);
        let clock = mvr_obs::VirtualClock::new();
        let obs: Vec<mvr_obs::Recorder> = (0..n)
            .map(|r| {
                mvr_obs::Recorder::on_clock(r as u32, mvr_obs::RecorderConfig::default(), &clock)
            })
            .collect();
        let mut sim = Sim {
            ranks: (traces.into_iter().enumerate())
                .map(|(r, t)| RankSim::new(t, r, n))
                .collect(),
            now: 0,
            t0: 0,
            clock,
            seq: 0,
            heap: BinaryHeap::new(),
            tx: vec![Lane::new(); total],
            rx: vec![Lane::new(); total],
            driver: vec![Lane::new(); total],
            transfers: Vec::new(),
            free_tids: Vec::new(),
            conns: vec![Vec::new(); total],
            n,
            el_base,
            cm_base,
            cs_nid,
            el_stores: vec![EventLogStore::new(); if v2 { num_els } else { 0 }],
            zeros: Payload::filled(0, max_bytes as usize),
            cms: Vec::new(),
            keep_sent: false,
            msgs_delivered: 0,
            bytes_delivered: 0,
            checkpoints: 0,
            faults: 0,
            retired_events: 0,
            retired_batches: 0,
            retired_timings: mvr_obs::ProtocolTimings::new(),
            obs,
            obs_dispatch: None,
            infeasible: false,
            ckpt_sched: Scheduler::new(Policy::Random, n as u32, 1),
            ckpt_victim: None,
            cfg,
        };
        for r in 0..n {
            let rank = Rank(r as u32);
            match sim.cfg.protocol {
                Protocol::V2 => {
                    let e = sim.configured(r, V2Engine::fresh(rank, n as u32));
                    sim.ranks[r].engine = Some(e);
                }
                Protocol::V1 => {
                    sim.ranks[r].v1 = Some(V1Engine::new(rank));
                    sim.cms.push(ChannelMemory::new(rank));
                }
                Protocol::P4 => {}
            }
        }
        sim
    }

    /// Mint one recorder per rank (plus a dispatcher pseudo-rank for
    /// fault-plan interventions) from `hub`, on the simulator's virtual
    /// clock, so a seeded run dumps a byte-identical timeline on every
    /// execution. The V2 engines write the protocol records.
    pub fn attach_recorder(&mut self, hub: &mvr_obs::RecorderHub) {
        self.obs = (0..self.n)
            .map(|r| hub.recorder_on_clock(r as u32, &self.clock))
            .collect();
        self.obs_dispatch = Some(hub.recorder_on_clock(mvr_obs::DISPATCHER_RANK, &self.clock));
        for (rk, obs) in self.ranks.iter_mut().zip(&self.obs) {
            if let Some(e) = &mut rk.engine {
                e.set_recorder(obs.clone());
            }
        }
    }

    /// `e`, set up as this cluster runs rank `r`'s engines.
    fn configured(&self, r: usize, mut e: V2Engine) -> V2Engine {
        e.set_batch_bound(self.cfg.el_batch_max as usize);
        let replicas = self.cfg.el_replicas.max(1) as u32;
        e.set_el_replication(replicas, quorum_of(replicas));
        e.set_recorder(self.obs[r].clone());
        e
    }

    /// Node id of `replica` within the shard serving `rank`. Shards
    /// partition ranks round-robin (a cost model, not the runtime's
    /// consistent hash); a shard's replicas occupy contiguous ids.
    fn el_nid(&self, rank: usize, replica: usize) -> Nid {
        let reps = self.cfg.el_replicas.max(1);
        let shards = (self.cm_base - self.el_base) / reps;
        self.el_base + (rank % shards) * reps + replica
    }

    fn cm_for(&self, rank: usize) -> Nid {
        self.cm_base + rank % (self.cs_nid - self.cm_base)
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

    /// Complete send request `n` of the current incarnation of `r` at `t`.
    fn fire(&mut self, t: SimTime, r: usize, n: Notify) {
        let gen = self.ranks[r].generation;
        if let Some(op) = n {
            self.push_ev(t, Ev::SendTxDone { rank: r, op, gen });
        }
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// Start a transfer on the source's tx lane; chunks pipeline into the
    /// destination's rx lane. `head` is extra source-side time (EL
    /// service); `notify` fires when the last byte leaves the source.
    ///
    /// Chunks are chained one reservation at a time, so concurrent
    /// transfers (application traffic, checkpoint images, EL events)
    /// interleave fairly, as the paper describes for the V2 driver. A
    /// transfer waits for the previous one between the same two nodes: a
    /// connection is one FIFO stream.
    fn start_transfer(
        &mut self,
        src: Nid,
        dst: Nid,
        bytes: u64,
        head: SimTime,
        kind: TKind,
        notify: Notify,
    ) {
        let src_rank = (src < self.n).then_some(src);
        let src_gen = src_rank.map(|r| self.ranks[r].generation).unwrap_or(0);
        let dst_gen = if dst < self.n {
            self.ranks[dst].generation
        } else {
            0
        };
        let p4_stall = matches!(
            &kind,
            TKind::Mpi {
                frame: MpiFrame::Eager { .. },
                ..
            }
        ) && bytes > self.cfg.p4_socket_buffer;
        let transfer = Transfer {
            kind,
            src,
            dst,
            dst_gen,
            src_rank,
            src_gen,
            bytes,
            sent: 0,
            head: head + self.cfg.send_overhead,
            notify,
            p4_stall,
        };
        let tid = match self.free_tids.pop() {
            Some(tid) => {
                self.transfers[tid] = transfer;
                tid
            }
            None => {
                self.transfers.push(transfer);
                self.transfers.len() - 1
            }
        };
        let conns = &mut self.conns[src];
        let at = match conns.iter().position(|c| c.dst == dst) {
            Some(at) => at,
            None => {
                conns.push(Conn {
                    dst,
                    free_at: 0,
                    queue: VecDeque::new(),
                });
                conns.len() - 1
            }
        };
        let conn = &mut conns[at];
        conn.queue.push_back(tid);
        if conn.queue.len() > 1 {
            return; // its predecessor starts it
        }
        if conn.free_at > self.now {
            let t = conn.free_at;
            self.push_ev(t, Ev::TxNextChunk { tid });
            return;
        }
        self.tx_chunk(tid);
    }

    /// Transmit the next chunk of a chained transfer.
    fn tx_chunk(&mut self, tid: usize) {
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
        let head = if sent == 0 {
            self.transfers[tid].head
        } else {
            0
        };
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
        if !last {
            self.push_ev(end, Ev::TxNextChunk { tid });
            return;
        }
        let notify = match &self.transfers[tid].kind {
            TKind::Peer {
                from,
                to,
                msg: PeerMsg::Data(d),
            } => {
                let key = (*to, d.id.sender_clock);
                self.ranks[*from].proc.pending_tx.remove(&key)
            }
            _ => Some(self.transfers[tid].notify),
        };
        if let (Some(n), Some(r)) = (notify, src_rank) {
            self.fire(end, r, n);
        }
        // The connection is free once the last byte has left; the next
        // transfer queued on it starts then.
        let dst = self.transfers[tid].dst;
        if let Some(conn) = self.conns[src].iter_mut().find(|c| c.dst == dst) {
            conn.free_at = end;
            conn.queue.pop_front();
            if let Some(&next) = conn.queue.front() {
                self.push_ev(end, Ev::TxNextChunk { tid: next });
            }
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

    /// Did either end of transfer `tid` crash since it was initiated?
    fn stale(&self, tid: usize) -> bool {
        let t = &self.transfers[tid];
        let dst_gone =
            t.dst < self.n && (self.ranks[t.dst].generation != t.dst_gen || self.ranks[t.dst].down);
        let src_gone = t
            .src_rank
            .is_some_and(|sr| self.ranks[sr].generation != t.src_gen);
        dst_gone || src_gone
    }

    fn on_chunk_arrive(&mut self, tid: usize, chunk_bytes: u64, last: bool) {
        if self.stale(tid) {
            if last {
                self.free_tids.push(tid);
            }
            return;
        }
        let rx_dur = transfer_ns(chunk_bytes, self.cfg.bandwidth)
            + if last { self.cfg.recv_overhead } else { 0 };
        let (dst, stall) = (self.transfers[tid].dst, self.transfers[tid].p4_stall);
        let (_, end) = self.reserve_lane(false, dst, self.now, rx_dur, stall);
        if last {
            self.push_ev(end, Ev::Delivered { tid });
        }
    }

    // ------------------------------------------------------------------
    // Delivery dispatch
    // ------------------------------------------------------------------

    fn on_delivered(&mut self, tid: usize) {
        // The transfer's last event: its slot is free from here on.
        self.free_tids.push(tid);
        if self.stale(tid) {
            return;
        }
        let dst = self.transfers[tid].dst;
        let kind = std::mem::replace(&mut self.transfers[tid].kind, TKind::CkptImage { rank: 0 });
        match kind {
            TKind::Mpi { from, to, frame } => self.mpi_arrival(to, from, frame),
            TKind::Peer { from, to, msg } => {
                let watermark = match &msg {
                    PeerMsg::Restart1 { last_received } | PeerMsg::Restart2 { last_received } => {
                        Some(*last_received)
                    }
                    _ => None,
                };
                let from_rank = Rank(from as u32);
                self.feed(
                    to,
                    Input::Peer {
                        from: from_rank,
                        msg,
                    },
                );
                if let Some(w) = watermark {
                    self.peer_holds(to, from, w);
                }
                self.pump(to);
            }
            TKind::ElReq {
                owner,
                replica,
                req,
            } => {
                // One EL service pass per request per replica, then one
                // coalesced high-watermark ack back from each.
                if let Some(ElReply::Ack { up_to }) = self.el_stores[dst - self.el_base].handle(req)
                {
                    self.start_transfer(
                        dst,
                        owner,
                        self.cfg.event_bytes,
                        self.cfg.el_service,
                        TKind::ElAck {
                            owner,
                            replica,
                            up_to,
                        },
                        None,
                    );
                }
            }
            TKind::ElAck {
                owner,
                replica,
                up_to,
            } => {
                self.feed(owner, Input::ElReplicaAck { replica, up_to });
                self.pump(owner);
            }
            TKind::CmReq { owner, req } => {
                for reply in self.cms[owner].handle(req) {
                    let bytes = match &reply {
                        // The sender does not wait for the push ack: the
                        // cost model leaves it off the wire.
                        CmReply::PushAck => continue,
                        CmReply::Msg { msg, .. } => msg.payload.len() as u64,
                        CmReply::ProbeAck { .. } => self.cfg.event_bytes,
                    };
                    let kind = TKind::CmReply { owner, reply };
                    self.start_transfer(dst, owner, bytes, 0, kind, None);
                }
            }
            TKind::CmReply { owner, reply } => {
                let e = self.ranks[owner].v1.as_mut().expect("a V1 rank");
                e.on_cm_reply(reply);
                self.pump(owner);
            }
            TKind::CkptImage { rank } => {
                self.checkpoints += 1;
                self.ranks[rank].snapshot = self.ranks[rank].image.take();
                self.feed(rank, Input::CheckpointStored);
                self.pump(rank);
                if self.ckpt_victim == Some(rank) {
                    self.pick_ckpt_victim();
                }
            }
        }
    }

    /// A RESTART watermark: peer `q` holds every message `r` sent it up
    /// to clock `upto`, so those sends are complete, whichever
    /// incarnation made them.
    fn peer_holds(&mut self, r: usize, q: usize, upto: u64) {
        let mut held = Vec::new();
        self.ranks[r].proc.pending_tx.retain(|&(dst, h), n| {
            let keep = dst != q || h > upto;
            if !keep {
                held.push(*n);
            }
            keep
        });
        for n in held {
            self.fire(self.now, r, n);
        }
    }

    // ------------------------------------------------------------------
    // The V1 and V2 engines
    // ------------------------------------------------------------------

    /// Feed one input to `r`'s engine; the outputs wait for [`Sim::pump`].
    fn feed(&mut self, r: usize, input: Input) {
        if let Err(e) = self.ranks[r].engine().handle(input) {
            panic!("rank {r}: {e}");
        }
    }

    /// Perform every output of `r`'s engine, posting a receive whenever
    /// the rank is blocked on something only a delivery can resolve (as
    /// the runtime's `Mpi` pumps its channel only inside a blocked call).
    fn pump(&mut self, r: usize) {
        loop {
            while let Some(out) = self.ranks[r].engine.as_mut().and_then(V2Engine::pop_output) {
                self.perform(r, out);
            }
            while let Some(out) = self.ranks[r].v1.as_mut().and_then(V1Engine::pop_output) {
                self.perform_v1(r, out, None);
            }
            let rk = &self.ranks[r];
            if rk.blocked == Some(Block::Quiesce) {
                let e = rk.engine.as_ref().expect("a quiescing rank is live");
                if e.gate_open() && e.gated_send_count() == 0 {
                    self.unblock(r);
                    self.resume(r);
                }
                return;
            }
            let daemon = rk.engine.is_some() || rk.v1.is_some();
            if !daemon || rk.recv_posted || !rk.awaits_delivery() {
                return;
            }
            self.ranks[r].recv_posted = true;
            match &mut self.ranks[r].v1 {
                Some(e) => e.app_recv(),
                None => self.feed(r, Input::AppRecv),
            }
        }
    }

    /// Perform one output of `r`'s V1 engine; `notify` completes a push.
    fn perform_v1(&mut self, r: usize, out: V1Output, notify: Notify) {
        match out {
            V1Output::ToCm { owner, req } => {
                let owner = owner.idx();
                let bytes = match &req {
                    CmRequest::Push(msg) => msg.payload.len() as u64,
                    CmRequest::Pull { .. } | CmRequest::Probe { .. } => self.cfg.event_bytes,
                };
                let cm = self.cm_for(owner);
                self.start_transfer(r, cm, bytes, 0, TKind::CmReq { owner, req }, notify);
            }
            V1Output::Deliver { from, .. } => self.on_deliver(r, from.idx()),
            V1Output::ProbeAnswer(_) => {}
        }
    }

    fn perform(&mut self, r: usize, out: Output) {
        match out {
            Output::Transmit { to, msg } => {
                let to = to.idx();
                if self.ranks[to].down {
                    // The message dies with the peer's mailbox; SAVED
                    // keeps it for the peer's RESTART1.
                    if let PeerMsg::Data(d) = &msg {
                        self.ranks[r]
                            .engine()
                            .on_transmit_dropped(Rank(to as u32), d.id.sender_clock);
                    }
                    return;
                }
                let bytes = match &msg {
                    PeerMsg::Data(d) => d.payload.len() as u64,
                    _ => self.cfg.event_bytes,
                };
                let kind = TKind::Peer { from: r, to, msg };
                self.start_transfer(r, to, bytes, 0, kind, None);
            }
            Output::LogEvents(batch) => {
                let last = self.cfg.el_replicas.max(1) as u32 - 1;
                for replica in 0..last {
                    self.el_request(r, replica, ElRequest::Log(batch.clone()));
                }
                self.el_request(r, last, ElRequest::Log(batch));
            }
            Output::ReshipEvents { replica, batch } => {
                self.el_request(r, replica, ElRequest::Log(batch));
            }
            Output::ElTruncate { up_to } => {
                for replica in 0..self.cfg.el_replicas.max(1) as u32 {
                    let rank = Rank(r as u32);
                    self.el_request(r, replica, ElRequest::Truncate { rank, up_to });
                }
            }
            Output::Deliver { from, .. } => self.on_deliver(r, from.idx()),
            Output::ProbeAnswer(_) | Output::ReplayComplete => {}
        }
    }

    /// Ship `req` to one replica of `r`'s event-logger shard.
    fn el_request(&mut self, r: usize, replica: u32, req: ElRequest) {
        let bytes = match &req {
            ElRequest::Log(batch) => batch.events.len() as u64 * self.cfg.event_bytes,
            _ => self.cfg.event_bytes,
        };
        let el = self.el_nid(r, replica as usize);
        let kind = TKind::ElReq {
            owner: r,
            replica,
            req,
        };
        self.start_transfer(r, el, bytes, 0, kind, None);
    }

    // ------------------------------------------------------------------
    // The MPI layer: each rank's `MpiCore`, and what its frames cost
    // ------------------------------------------------------------------

    /// Send one MPI frame: straight onto the wire under P4, through the
    /// daemon under V1 (a push to the receiver's Channel Memory) and V2
    /// (the engine logs, gates or suppresses it). The daemons carry the
    /// frame's wire size; the pair's list keeps the frame itself.
    fn chan_send(&mut self, r: usize, dst: usize, frame: MpiFrame, notify: Notify) {
        let bytes = frame
            .body()
            .map_or(self.cfg.event_bytes, |b| b.len() as u64);
        if self.cfg.protocol == Protocol::P4 {
            let kind = TKind::Mpi {
                from: r,
                to: dst,
                frame,
            };
            self.start_transfer(r, dst, bytes, 0, kind, notify);
            return;
        }
        let payload = self.zeros.slice(..bytes as usize);
        let rk = &mut self.ranks[r];
        let pos = rk.proc.chan_sent[dst] as usize;
        rk.proc.chan_sent[dst] += 1;
        // Only a re-execution re-sends a position the list holds.
        if pos >= rk.sent[dst].len() {
            rk.sent[dst].push_back(frame);
        } else {
            assert_eq!(rk.sent[dst][pos], frame, "re-execution diverged");
        }
        if let Some(e) = &mut rk.v1 {
            e.app_send(Rank(dst as u32), payload);
            let push = e.pop_output().expect("a push to the receiver's CM");
            self.perform_v1(r, push, notify);
            return;
        }
        let cfg = &self.cfg;
        // The sender-based copy: charged on every send, re-executed ones
        // included (the log must be rebuilt, Lemma 1), at disk speed once
        // the log has outgrown RAM.
        let bw = if rk.engine().logged_bytes() > cfg.log_ram_budget {
            rk.spilled = true;
            cfg.log_disk_bw
        } else {
            cfg.log_copy_bw
        };
        let copy = transfer_ns(bytes, bw);
        let e = rk.engine();
        let suppressed = e.metrics().transmissions_suppressed;
        let dst = Rank(dst as u32);
        if let Err(err) = e.handle(Input::AppSend { dst, payload }) {
            panic!("rank {r}: {err}");
        }
        let (h, logged) = (e.clock(), e.logged_bytes());
        let suppressed = e.metrics().transmissions_suppressed > suppressed;
        rk.max_log_bytes = rk.max_log_bytes.max(logged);
        if logged > cfg.log_capacity {
            self.infeasible = true;
        }
        // The daemon is busy copying: the copy occupies the tx path
        // before any transmission can proceed.
        if copy > 0 {
            self.tx[r].reserve(self.now, copy);
        }
        if suppressed {
            // The peer already holds it: the send completes after the copy.
            self.fire(self.now + copy, r, notify);
        } else if notify.is_some() {
            self.ranks[r].proc.pending_tx.insert((dst.idx(), h), notify);
        }
    }

    /// Start an application send of `bytes` to `dst` in `r`'s MPI core,
    /// which picks the protocol.
    fn mpi_start(&mut self, r: usize, dst: usize, bytes: u64) -> SendStart {
        let zeros = &self.zeros;
        let body = || zeros.slice(..bytes as usize);
        let core = &mut self.ranks[r].proc.core;
        core.start_send(
            Rank(dst as u32),
            Context::PointToPoint,
            0,
            bytes as usize,
            body,
        )
    }

    /// Ship a send the core started: an eager body now, completing
    /// `notify` once it has left; a held one when the peer's
    /// clear-to-send releases it (completing the request that holds its
    /// id). Returns the core's id of a held send.
    fn ship(
        &mut self,
        r: usize,
        dst: usize,
        bytes: u64,
        start: SendStart,
        notify: Notify,
    ) -> Option<u64> {
        match start {
            SendStart::Eager => {
                let body = self.zeros.slice(..bytes as usize);
                let context = Context::PointToPoint;
                let frame = MpiFrame::Eager {
                    context,
                    tag: 0,
                    body,
                };
                self.chan_send(r, dst, frame, notify);
                None
            }
            SendStart::Rendezvous(id) => {
                self.drain_core(r);
                Some(id)
            }
            SendStart::Local => {
                self.fire(self.now, r, notify);
                None
            }
        }
    }

    /// Post a receive from `src` in `r`'s core; a clear-to-send it grants
    /// goes out now.
    fn post_recv(&mut self, r: usize, src: usize) -> u64 {
        let from = Source::Rank(Rank(src as u32));
        let seq = (self.ranks[r].proc.core).post_recv(from, Tag::Any, Context::PointToPoint);
        self.drain_core(r);
        seq
    }

    /// Send every frame `r`'s core has queued; the frame carrying a held
    /// send's body completes that send's request.
    fn drain_core(&mut self, r: usize) {
        while let Some((dst, frame)) = self.ranks[r].proc.core.pop_output() {
            // Rendezvous data completes the send that held its body.
            let notify = match &frame {
                MpiFrame::RndvData { rndv_id, .. } => self.ranks[r]
                    .proc
                    .reqs
                    .iter()
                    .find(|(_, &q)| matches!(q, Req::Send(Some(h)) if h == *rndv_id))
                    .map(|(&op, _)| op),
                _ => None,
            };
            self.chan_send(r, dst.idx(), frame, notify);
        }
    }

    /// The daemon delivered `r`'s next frame from `from`: the one at that
    /// position in the pair's list.
    fn on_deliver(&mut self, r: usize, from: usize) {
        let rk = &mut self.ranks[r];
        rk.recv_posted = false;
        let pos = rk.proc.chan_recvd[from] as usize;
        rk.proc.chan_recvd[from] += 1;
        let sent = &mut self.ranks[from].sent[r];
        let frame = if self.keep_sent {
            sent[pos].clone()
        } else {
            sent.pop_front().expect("a frame sent")
        };
        self.mpi_arrival(r, from, frame);
    }

    /// A frame reached rank `r`'s MPI core.
    fn mpi_arrival(&mut self, r: usize, from: usize, frame: MpiFrame) {
        if let Err(e) = self.ranks[r].proc.core.on_frame(Rank(from as u32), frame) {
            panic!("rank {r}: {e}");
        }
        self.drain_core(r);
        self.try_resume(r);
    }

    /// Count a message the application took.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn consume(&mut self, r: usize, (src, _, body): RecvMsg) {
        self.msgs_delivered += 1;
        self.bytes_delivered += body.len() as u64;
        #[cfg(test)]
        self.ranks[r]
            .proc
            .consumed
            .push((src.idx(), body.len() as u64));
    }

    /// If what `r` is blocked on has completed, take the messages it
    /// receives and clear the block; true if so.
    fn settle(&mut self, r: usize) -> bool {
        let rk = &mut self.ranks[r];
        let p = &mut rk.proc;
        match rk.blocked {
            Some(Block::WaitReq { op }) if p.req_done(op) => {
                if let Some(m) = p.retire(op) {
                    self.consume(r, m);
                }
            }
            Some(Block::WaitAll) if p.reqs.keys().all(|&op| p.req_done(op)) => {
                while let Some(&op) = self.ranks[r].proc.reqs.keys().next() {
                    if let Some(m) = self.ranks[r].proc.retire(op) {
                        self.consume(r, m);
                    }
                }
            }
            _ => return false,
        }
        self.unblock(r);
        true
    }

    /// Resume `r` if what it is blocked on has completed.
    fn try_resume(&mut self, r: usize) {
        if self.settle(r) {
            self.resume(r);
        }
    }

    /// Send request `op`'s payload has left the node.
    fn complete_req(&mut self, r: usize, op: usize) {
        self.ranks[r].proc.reqs.remove(&op);
        self.try_resume(r);
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

    /// Charge the blocked time to its bucket and clear the block.
    fn unblock(&mut self, r: usize) {
        let dt = self.now - self.ranks[r].block_start;
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

    /// Continue `r`'s interpreter after its block cleared. A V2 rank
    /// resumes through the event queue: its completions arrive while its
    /// engine's outputs are being performed.
    fn resume(&mut self, r: usize) {
        if self.ranks[r].engine.is_some() {
            self.push_ready(self.now, r);
        } else {
            self.advance(r);
        }
    }

    /// Interpret ops until the rank blocks, dies or finishes.
    fn advance(&mut self, r: usize) {
        while self.step(r) {
            self.pump(r);
        }
        self.pump(r);
    }

    /// Interpret one op; false once the rank blocked, died or finished.
    fn step(&mut self, r: usize) -> bool {
        let rk = &self.ranks[r];
        if self.infeasible || rk.blocked.is_some() || rk.down || rk.finish.is_some() {
            return false;
        }
        let pc = rk.proc.pc;
        if pc >= rk.trace.len() {
            self.finish(r);
            return false;
        }
        let op = rk.trace[pc];
        self.ranks[r].proc.pc = pc + 1;
        let p4 = self.cfg.protocol == Protocol::P4;
        match op {
            Op::Compute(ns) => {
                let rk = &self.ranks[r];
                let stretch = if rk.engine.is_some() && rk.spilled {
                    self.cfg.disk_contention
                } else {
                    1.0
                };
                let dur = (ns as f64 * stretch) as u64;
                self.block(r, Block::Compute, OpClass::Compute);
                self.push_ready(self.now + dur, r);
                false
            }
            Op::Send { dst, bytes } | Op::Isend { dst, bytes } => {
                let blocking = matches!(op, Op::Send { .. });
                let class = if blocking {
                    OpClass::Send
                } else {
                    OpClass::Isend
                };
                let start = self.mpi_start(r, dst, bytes);
                if p4 && bytes <= self.cfg.p4_socket_buffer {
                    // Fits the socket buffer: the call returns, its
                    // buffer reusable, after the kernel memcpy; the
                    // kernel drains it.
                    self.ship(r, dst, bytes, start, None);
                    let memcpy = transfer_ns(bytes, self.cfg.log_copy_bw);
                    self.block(r, Block::Compute, class);
                    self.push_ready(self.now + self.cfg.isend_post_cost + memcpy, r);
                    return false;
                }
                let held = self.ship(r, dst, bytes, start, Some(pc));
                self.ranks[r].proc.reqs.insert(pc, Req::Send(held));
                if blocking || (p4 && start == SendStart::Eager) {
                    // A send blocks until its payload has left; so
                    // does a P4 eager Isend, which pushes the payload
                    // during the call (the Table-1 behaviour). A
                    // rendezvous send cannot push during Isend even
                    // under P4 (the payload waits for the CTS).
                    self.block(r, Block::WaitReq { op: pc }, class);
                    return false;
                }
                // V1/V2 (and P4 rendezvous): post only; the transfer
                // is asynchronous and Wait pays for it.
                self.block(r, Block::Compute, class);
                self.push_ready(self.now + self.cfg.isend_post_cost, r);
                false
            }
            Op::Recv { src } | Op::Irecv { src } => {
                let seq = self.post_recv(r, src);
                self.ranks[r].proc.reqs.insert(pc, Req::Recv(seq));
                if matches!(op, Op::Irecv { .. }) {
                    return true;
                }
                self.block(r, Block::WaitReq { op: pc }, OpClass::Recv);
                self.settle(r)
            }
            Op::Wait { req } => {
                self.block(r, Block::WaitReq { op: req }, OpClass::Wait);
                self.settle(r)
            }
            Op::WaitAll => {
                self.block(r, Block::WaitAll, OpClass::Wait);
                self.settle(r)
            }
            Op::CheckpointSite => self.checkpoint_site(r),
        }
    }

    /// The trace is done: the daemon ships its pending events (as the
    /// runtime's does when its process exits) and keeps serving.
    fn finish(&mut self, r: usize) {
        self.ranks[r].finish = Some(self.now);
        self.ranks[r].breakdown.finish = self.now - self.t0;
        if let Some(e) = &self.ranks[r].engine {
            let clock = e.clock();
            e.recorder()
                .record(clock, mvr_obs::ProtoEvent::Finish { clock });
            self.feed(r, Input::FlushEvents);
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// A checkpoint site: take the ordered checkpoint if the engine arms
    /// it; with an order pending and the gate closed, wait at the site
    /// for the gate to reopen and try again. The image (process state +
    /// sender log) competes with application traffic on the tx lane
    /// while execution continues (overlapped, §4.6.1). False while the
    /// rank waits.
    fn checkpoint_site(&mut self, r: usize) -> bool {
        let rk = &mut self.ranks[r];
        let Some(e) = &mut rk.engine else {
            return true;
        };
        if e.try_arm_checkpoint().is_none() {
            if !rk.ckpt_ordered || e.is_replaying() {
                return true;
            }
            rk.proc.pc -= 1;
            self.block(r, Block::Quiesce, OpClass::Wait);
            return false;
        }
        rk.ckpt_ordered = false;
        let image_bytes = self.cfg.process_state_bytes + e.logged_bytes();
        rk.image = Some(Snapshot {
            proc: rk.proc.clone(),
            engine: e.snapshot(),
            image_bytes,
        });
        let kind = TKind::CkptImage { rank: r };
        self.start_transfer(r, self.cs_nid, image_bytes, 0, kind, None);
        true
    }

    /// Order the next checkpoint from the random-victim scheduler. A
    /// down or finished pick is skipped, as the runtime's scheduler
    /// skips a victim it cannot reach.
    fn pick_ckpt_victim(&mut self) {
        let reachable = |rk: &RankSim| !rk.down && rk.finish.is_none();
        self.ckpt_victim = None;
        if !self.ranks.iter().any(reachable) {
            return;
        }
        let v = loop {
            let v = self.ckpt_sched.pick(&[]).expect("a non-empty world").idx();
            if reachable(&self.ranks[v]) {
                break v;
            }
        };
        self.ckpt_victim = Some(v);
        self.ranks[v].ckpt_ordered = true;
        self.feed(v, Input::CheckpointOrder);
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    fn crash(&mut self, v: usize) {
        let rk = &self.ranks[v];
        if rk.down || rk.finish.is_some() {
            return; // finished ranks are not restarted in these scenarios
        }
        self.faults += 1;
        if let Some(d) = &self.obs_dispatch {
            let kill = mvr_obs::ProtoEvent::ChaosKill {
                victim: v as u32,
                rekill: false,
            };
            d.record(0, kill);
        }
        self.take_down(v);
        if self.ckpt_victim == Some(v) {
            self.pick_ckpt_victim();
        }
        // Restart after the detection/spawn overhead + image fetch.
        let image = self.ranks[v].snapshot.as_ref().map_or(0, |s| s.image_bytes);
        let fetch = transfer_ns(image, self.cfg.ckpt_bandwidth);
        self.push_ev(self.now + self.cfg.restart_overhead + fetch, Ev::Restart(v));
    }

    /// End `v`'s incarnation: its engine, in-flight work and lanes die.
    fn take_down(&mut self, v: usize) {
        assert!(self.keep_sent, "a re-execution needs every frame sent");
        if self.ranks[v].blocked.is_some() {
            // Close out the blocked-time attribution.
            let dt = self.now - self.ranks[v].block_start;
            self.ranks[v].breakdown.wait += dt;
            self.ranks[v].blocked = None;
        }
        let rk = &mut self.ranks[v];
        rk.down = true;
        rk.generation += 1;
        rk.recv_posted = false;
        rk.ckpt_ordered = false;
        rk.image = None;
        if let Some(e) = rk.engine.take() {
            self.retired_events += e.metrics().events_logged;
            self.retired_batches += e.metrics().el_batches_sent;
            self.retired_timings.merge(e.timings());
        }
        self.conns[v].clear();
        self.tx[v].reset(self.now);
        self.rx[v].reset(self.now);
    }

    /// Bring `v` back from its last stored image (or from the start),
    /// over the events its shard logged: the engine's RESTART1 asks the
    /// peers for what the image lacks, and the process resumes at once.
    fn restart(&mut self, v: usize) {
        if self.ranks[v].down {
            self.revive(v);
            self.pump(v);
            self.push_ready(self.now, v);
        }
    }

    /// Install `v`'s new incarnation; its RESTART1 messages wait in the
    /// engine's outputs until the next [`Sim::pump`].
    fn revive(&mut self, v: usize) {
        let n = self.n;
        let (proc, engine) = match &self.ranks[v].snapshot {
            Some(s) => (s.proc.clone(), V2Engine::restore(s.engine.clone())),
            None => (Proc::new(v, n), V2Engine::fresh(Rank(v as u32), n as u32)),
        };
        let mut engine = self.configured(v, engine);
        // DownloadEL(H_v) as the runtime does it: the union of the
        // shard's replicas, so an event a write quorum acked is there
        // even where one replica's copy is stale.
        let downloads = (0..self.cfg.el_replicas.max(1))
            .map(|i| {
                self.el_stores[self.el_nid(v, i) - self.el_base]
                    .download(Rank(v as u32), engine.clock())
            })
            .collect();
        engine.begin_recovery(merge_downloads(downloads));
        let rk = &mut self.ranks[v];
        rk.proc = proc;
        rk.engine = Some(engine);
        rk.down = false;
        rk.finish = None;
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Run to completion with a fault/checkpoint plan.
    pub fn run_with_plan(mut self, plan: &FaultPlan) -> SimReport {
        self.start(plan);
        self.run();
        self.into_report()
    }

    /// Schedule the plan's crashes and checkpoint scheduler, and start
    /// every rank.
    fn start(&mut self, plan: &FaultPlan) {
        assert!(
            self.cfg.protocol == Protocol::V2
                || (plan.faults.is_empty() && !plan.continuous_checkpointing),
            "faults and checkpoints are modelled for V2 only"
        );
        self.ckpt_sched = Scheduler::new(Policy::Random, self.n as u32, plan.seed);
        self.keep_sent |= !plan.faults.is_empty();
        for &(t, v) in &plan.faults {
            self.push_ev(t, Ev::Crash(v));
        }
        if plan.continuous_checkpointing {
            self.push_ev(0, Ev::SchedulerKick);
        }
        for r in 0..self.n {
            self.push_ready(0, r);
        }
    }

    /// Process events until every rank has finished.
    fn run(&mut self) {
        self.run_until(Sim::all_done);
        assert!(
            self.all_done() || self.infeasible,
            "simulation wedged: event heap drained before completion"
        );
    }

    /// Process events until `stop` holds, the run turns infeasible or
    /// nothing is left in flight.
    fn run_until(&mut self, stop: impl Fn(&Sim) -> bool) {
        let mut guard: u64 = 0;
        while !stop(self) && !self.infeasible {
            let Some(Reverse(HeapEv { t, ev, .. })) = self.heap.pop() else {
                return;
            };
            guard += 1;
            assert!(guard < 2_000_000_000, "simulation runaway");
            self.now = t;
            self.clock.set(t);
            match ev {
                Ev::RankReady(r, gen) => {
                    if self.ranks[r].generation != gen {
                        continue; // stale incarnation
                    }
                    if self.ranks[r].blocked == Some(Block::Compute) {
                        self.unblock(r);
                    }
                    self.advance(r);
                }
                Ev::ChunkArrive { tid, bytes, last } => self.on_chunk_arrive(tid, bytes, last),
                Ev::TxNextChunk { tid } => self.tx_chunk(tid),
                Ev::Delivered { tid } => self.on_delivered(tid),
                Ev::SendTxDone { rank, op, gen } => {
                    if self.ranks[rank].generation == gen {
                        self.complete_req(rank, op);
                    }
                }
                Ev::Crash(v) => self.crash(v),
                Ev::Restart(v) => self.restart(v),
                Ev::SchedulerKick => self.pick_ckpt_victim(),
            }
        }
    }

    fn all_done(&self) -> bool {
        self.ranks.iter().all(|r| r.finish.is_some())
    }

    fn into_report(self) -> SimReport {
        let makespan = self
            .ranks
            .iter()
            .filter_map(|r| r.finish)
            .max()
            .unwrap_or(self.now)
            .saturating_sub(self.t0);
        let mut timings = self.retired_timings;
        let (mut el_events, mut el_requests) = (self.retired_events, self.retired_batches);
        for e in self.ranks.iter().filter_map(|r| r.engine.as_ref()) {
            el_events += e.metrics().events_logged;
            el_requests += e.metrics().el_batches_sent;
            timings.merge(e.timings());
        }
        SimReport {
            makespan,
            per_rank: self.ranks.iter().map(|r| r.breakdown).collect(),
            msgs_delivered: self.msgs_delivered,
            bytes_delivered: self.bytes_delivered,
            el_events,
            el_requests,
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
            gate_wait: timings.gate_wait,
            el_ack_rtt: timings.el_ack_rtt,
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

/// The Fig.-10 scenario (V2): the run has completed; restart the given
/// ranks from the *beginning* (no checkpoints) over their logged events
/// and measure their re-execution. The other ranks have finished; their
/// engines only serve re-sends from their logs.
pub fn simulate_replay(cfg: ClusterConfig, traces: Vec<Vec<Op>>, restarted: &[usize]) -> SimReport {
    assert_eq!(
        cfg.protocol,
        Protocol::V2,
        "re-execution is modelled for V2 only"
    );
    let mut sim = Sim::new(cfg, traces);
    sim.keep_sent = true;
    sim.start(&FaultPlan::default());
    sim.run();
    sim.run_until(|_| false);
    let mut restarted = restarted.to_vec();
    restarted.sort_unstable();
    restarted.dedup();
    // Every restarted rank is up before any of them announces itself, so
    // their RESTART1 messages reach each other.
    for &v in &restarted {
        sim.take_down(v);
        sim.ranks[v].breakdown = RankBreakdown::default();
    }
    for &v in &restarted {
        sim.revive(v);
    }
    for &v in &restarted {
        sim.pump(v);
    }
    // The restarted processes are relaunched together once every one of
    // their daemons has heard every peer; re-execution is timed from
    // there.
    let answered = |s: &Sim, v: usize| {
        let e = s.ranks[v].engine.as_ref();
        !e.expect("a revived rank").awaiting_restart_answers()
    };
    sim.run_until(|s| restarted.iter().all(|&v| answered(s, v)));
    sim.t0 = sim.now;
    for &v in &restarted {
        sim.push_ready(sim.now, v);
    }
    sim.run();
    sim.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ReqHandle, TraceBuilder};

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
        let t_handshake = simulate(c.clone(), bidir(300 << 10)).makespan;
        assert!(
            (t_handshake as f64) < 1.5 * wire(300 << 10) as f64,
            "rendezvous must not stall: {} vs wire {}",
            t_handshake,
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

    /// Render the hub's timeline as a dump.
    fn canonical_dump(hub: &mvr_obs::RecorderHub) -> String {
        let timeline = hub.timeline();
        let header = mvr_obs::DumpHeader {
            records: timeline.len() as u64,
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
    fn a_receive_completes_when_its_data_lands() {
        // From one source: a rendezvous message, then an eager one. The
        // eager one's Wait returns before the rendezvous data has landed.
        let big = mvr_mpi::RNDV_THRESHOLD as u64 + 1;
        let mut a = TraceBuilder::new();
        a.isend(1, big);
        a.isend(1, 64);
        a.waitall();
        let mut b = TraceBuilder::new();
        let first = b.irecv(0);
        let second = b.irecv(0);
        b.wait(second);
        b.compute(crate::time::secs(1));
        b.wait(first);
        for p in Protocol::all() {
            let mut sim = Sim::new(cfg(p, 2), vec![a.clone().build(), b.clone().build()]);
            sim.start(&FaultPlan::default());
            // Rank 1 is past `Wait(second)`, in the compute after it.
            sim.run_until(|s| s.ranks[1].proc.pc > second + 2);
            assert!(!sim.ranks[1].proc.req_done(first), "{p:?}");
            sim.run();
            assert_eq!(sim.ranks[1].proc.consumed, [(0, 64), (0, big)], "{p:?}");
        }
    }

    /// One message of a generated program: (source, hop to the
    /// destination, bytes, sender's mode, receiver's mode, sender's
    /// compute before it). Mode 0 is blocking; mode `d + 1` is
    /// nonblocking, waited `d` posts of the rank later.
    type Msg = (usize, usize, u64, usize, usize, u64);

    /// A tagless program on `n` ranks, deadlock-free by construction: the
    /// messages run in one global order, each rank posts its sends and
    /// receives in that order, and a nonblocking request's `Wait` comes
    /// after its post (`delay` posts of its rank later, or in the
    /// closing `WaitAll`). Every blocked rank makes progress on its
    /// posted requests, so the earliest incomplete message always can.
    fn program(n: usize, msgs: &[Msg]) -> Vec<Vec<Op>> {
        let mut ranks = vec![TraceBuilder::new(); n];
        let mut waits: Vec<Vec<(usize, ReqHandle)>> = vec![Vec::new(); n];
        let mut post = |r: usize, mode: usize, ops: &mut Vec<TraceBuilder>, op: Op| {
            let t = &mut ops[r];
            waits[r].retain_mut(|(left, h)| {
                *left -= 1;
                if *left == 0 {
                    t.wait(*h);
                }
                *left > 0
            });
            let h = match (op, mode) {
                (Op::Send { dst, bytes }, 0) => {
                    t.send(dst, bytes);
                    return;
                }
                (Op::Send { dst, bytes }, _) => t.isend(dst, bytes),
                (Op::Recv { src }, 0) => {
                    t.recv(src);
                    return;
                }
                (Op::Recv { src }, _) => t.irecv(src),
                _ => unreachable!(),
            };
            match mode - 1 {
                0 => {
                    t.wait(h);
                }
                d => waits[r].push((d, h)),
            }
        };
        for &(src, hop, bytes, send_mode, recv_mode, compute) in msgs {
            let src = src % n;
            let dst = (src + 1 + hop % (n - 1)) % n;
            ranks[src].compute(compute);
            post(src, send_mode, &mut ranks, Op::Send { dst, bytes });
            post(dst, recv_mode, &mut ranks, Op::Recv { src });
        }
        ranks
            .into_iter()
            .map(|mut t| {
                t.waitall();
                t.build()
            })
            .collect()
    }

    /// What each rank of `traces` receives through `mvr_mpi`'s
    /// in-process cluster, as (source, bytes) in the order the program
    /// takes the messages.
    fn consumed_on_mpi(traces: &[Vec<Op>]) -> Vec<Vec<(usize, u64)>> {
        use mvr_mpi::{Source, Tag};
        let zeros = vec![0u8; 1 << 20];
        let rank = |r: usize| Rank(r as u32);
        mvr_mpi::testing::run_local(traces.len() as u32, |mut mpi| {
            let mut reqs = BTreeMap::new();
            let mut got = Vec::new();
            let mut take = |m: Option<RecvMsg>| {
                if let Some((src, _, body)) = m {
                    got.push((src.idx(), body.len() as u64));
                }
            };
            for (pc, op) in traces[mpi.rank().idx()].iter().enumerate() {
                match *op {
                    Op::Compute(_) | Op::CheckpointSite => {}
                    Op::Send { dst, bytes } => mpi.send(rank(dst), 0, &zeros[..bytes as usize])?,
                    Op::Isend { dst, bytes } => {
                        reqs.insert(pc, mpi.isend(rank(dst), 0, &zeros[..bytes as usize])?);
                    }
                    Op::Recv { src } => take(Some(mpi.recv(Source::Rank(rank(src)), Tag::Any)?)),
                    Op::Irecv { src } => {
                        reqs.insert(pc, mpi.irecv(Source::Rank(rank(src)), Tag::Any)?);
                    }
                    Op::Wait { req } => take(mpi.wait(reqs.remove(&req).expect("posted"))?),
                    Op::WaitAll => {
                        let all = std::mem::take(&mut reqs).into_values().collect();
                        mpi.waitall(all)?.into_iter().for_each(&mut take);
                    }
                }
            }
            mpi.finalize()?;
            Ok(got)
        })
        .expect("the program runs on mvr-mpi")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..Default::default()
        })]

        /// P4, V1 and V2 all run `mvr-mpi`'s core: whatever the costs
        /// around it, every rank takes the same messages, in the same
        /// order, as the same program on `mvr_mpi` itself.
        #[test]
        fn the_simulator_receives_what_mvr_mpi_receives(
            n in 2usize..=4,
            msgs in proptest::collection::vec(
                (
                    0usize..4,
                    0usize..3,
                    proptest::prop_oneof![
                        0u64..2048,
                        mvr_mpi::RNDV_THRESHOLD as u64 - 8..mvr_mpi::RNDV_THRESHOLD as u64 + 40_000,
                    ],
                    0usize..4,
                    0usize..4,
                    0u64..300_000,
                ),
                1..14,
            ),
        ) {
            let traces = program(n, &msgs);
            let reference = consumed_on_mpi(&traces);
            for p in Protocol::all() {
                let mut sim = Sim::new(cfg(p, n), traces.clone());
                sim.start(&FaultPlan::default());
                sim.run();
                let got: Vec<_> = sim.ranks.iter().map(|r| r.proc.consumed.clone()).collect();
                proptest::prop_assert_eq!(&got, &reference, "{:?} on {} ranks: {:?}", p, n, msgs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "simulation wedged")]
    fn a_receive_nobody_sends_fails_the_run() {
        let mut a = TraceBuilder::new();
        a.send(1, 64);
        let mut b = TraceBuilder::new();
        b.recv(0);
        b.recv(0); // never sent
        simulate(cfg(Protocol::V2, 2), vec![a.build(), b.build()]);
    }

    /// Four ranks exchanging eager and rendezvous messages both ways
    /// round a ring, with checkpoint sites. Blocking receives fix each
    /// rank's consumption order.
    fn exchange_ring(iters: usize) -> Vec<Vec<Op>> {
        (0..4usize)
            .map(|r| {
                let (next, prev) = ((r + 1) % 4, (r + 3) % 4);
                let mut t = TraceBuilder::new();
                for i in 0..iters {
                    t.compute(2_000_000);
                    t.isend(next, 8 << 10);
                    t.isend(prev, if i % 3 == 0 { 200_000 } else { 1 << 10 });
                    t.recv(prev);
                    t.recv(next);
                    t.waitall();
                    t.checkpoint_site();
                }
                t.build()
            })
            .collect()
    }

    /// A quick-restarting cluster with small images, so that crashes,
    /// checkpoints and recoveries all fit in a short run.
    fn fast_recovery() -> ClusterConfig {
        let mut c = cfg(Protocol::V2, 4);
        c.restart_overhead = crate::time::msecs(2);
        c.process_state_bytes = 64 << 10;
        c
    }

    fn faulted_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            faults: vec![(20_000_000, 1), (45_000_000, 2), (60_000_000, 1)],
            continuous_checkpointing: true,
            seed,
        }
    }

    /// Each rank's consumed (source, bytes) sequence after running
    /// `plan` over `el_replicas` event-logger replicas, and the faults
    /// that landed.
    fn consumed_sequences(plan: &FaultPlan, el_replicas: usize) -> (Vec<Vec<(usize, u64)>>, u64) {
        let mut c = fast_recovery();
        c.el_replicas = el_replicas;
        let mut sim = Sim::new(c, exchange_ring(30));
        sim.start(plan);
        sim.run();
        let seqs = sim.ranks.iter().map(|r| r.proc.consumed.clone()).collect();
        (seqs, sim.faults)
    }

    #[test]
    fn recovery_replays_every_rank_s_deliveries_exactly_once() {
        let (reference, _) = consumed_sequences(&FaultPlan::default(), 1);
        assert!(reference.iter().all(|s| s.len() == 60));
        // Three replicas: a restarted rank merges every replica's copy.
        for (seed, replicas) in [(3, 1), (8, 1), (3, 3)] {
            let (faulted, faults) = consumed_sequences(&faulted_plan(seed), replicas);
            assert_eq!(faults, 3, "every planned crash lands (seed {seed})");
            assert_eq!(faulted, reference, "seed {seed}, {replicas} replicas");
        }
    }

    #[test]
    fn a_faulted_checkpointing_timeline_keeps_every_invariant() {
        // The live monitor sees every record as the engines write it, in
        // event order; the offline one replays the merged timeline.
        let hub = mvr_obs::RecorderHub::new(mvr_obs::RecorderConfig::enabled());
        let live = mvr_obs::InvariantMonitor::new();
        hub.set_sink(live.clone());
        let mut sim = Sim::new(fast_recovery(), exchange_ring(30));
        sim.attach_recorder(&hub);
        let rep = sim.run_with_plan(&faulted_plan(3));
        assert_eq!(rep.faults, 3);
        assert!(rep.checkpoints > 0);
        assert_eq!(live.violation(), None);
        let timeline = hub.timeline();
        assert_eq!(live.records_seen(), timeline.len() as u64);
        let offline = mvr_obs::InvariantMonitor::new();
        offline.observe_all(&timeline);
        assert_eq!(offline.violation(), None);
        for kind in ["CkptCommit", "CkptGc", "Restart2", "ReplayStep", "GateOpen"] {
            assert!(
                timeline
                    .iter()
                    .any(|r| format!("{:?}", r.event).starts_with(kind)),
                "{kind}"
            );
        }
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
