//! Mailbox message types of the runtime's node kinds.

use crate::node::NodeHandle;
use mvr_core::{CkptReply, CmReply, ElAddr, ElReply, Metrics, Payload, PeerMsg, Rank, SchedMsg};

/// Everything a communication daemon can receive — the analog of its
/// `select()` loop over one socket per peer and per service (§4.4).
//
// `Sched(SchedMsg::Status)` dwarfs the other variants (it carries four
// histogram summaries), but status messages are rare — one per rank per
// scheduler round — so the size skew costs nothing worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum DaemonMsg {
    /// From a peer daemon.
    Peer {
        /// Sending rank.
        from: Rank,
        /// The protocol message.
        msg: PeerMsg,
    },
    /// From the attached MPI process (the "UNIX socket"): `Init` under
    /// every protocol, the whole channel interface under the baselines.
    Proc(ProcRequest),
    /// From an event-logger replica. `from` identifies the shard
    /// replica so the daemon can fold per-replica acks into the quorum
    /// watermark its pessimism gate trusts.
    El {
        /// The answering replica.
        from: ElAddr,
        /// The reply.
        reply: ElReply,
    },
    /// From the checkpoint server.
    Ckpt(CkptReply),
    /// From the checkpoint scheduler.
    Sched(SchedMsg),
    /// From a Channel Memory (MPICH-V1 hosting only).
    Cm(CmReply),
}

/// Requests from the MPI process to its daemon, mirroring the channel
/// interface (`PIbsend`, `PIbrecv`, `PInprobe`, `PIiInit`, `PIiFinish`)
/// plus the cooperative-checkpoint handshake. A V2 process sends only
/// `Init` — its `InitOk` carries the node core the other calls are made
/// on directly; the V1/P4 baseline daemons serve all of them.
#[derive(Clone, Debug)]
pub enum ProcRequest {
    /// `PIiInit`: the process is up; answer with `InitOk`.
    Init,
    /// `PIbsend`: fire-and-forget (acceptance = mailbox delivery).
    Bsend {
        /// Destination rank.
        dst: Rank,
        /// MPI-layer bytes.
        bytes: Payload,
    },
    /// `PIbrecv`: answer with the next delivery (`Msg`).
    Brecv,
    /// `PInprobe`: answer with `Probe`.
    Nprobe,
    /// Checkpoint-site poll: answer with `CkptPending`.
    CkptPoll,
    /// Serialized MPI + application state for a pending checkpoint.
    CkptCommit {
        /// MPI-library state.
        mpi_state: Payload,
        /// Application state.
        app_state: Payload,
    },
    /// `PIiFinish`: the process completed; answer with `Done`.
    Finish,
}

/// Replies from the daemon to its MPI process. Under V2 only `InitOk`
/// and the wake-ups of a parked process (`Msg`, `Probe`, `Done`) travel.
#[derive(Clone, Debug)]
pub enum ProcReply {
    /// Answer to `Init`.
    InitOk {
        /// This node's rank.
        rank: Rank,
        /// World size.
        size: u32,
        /// MPI-library state restored from a checkpoint, if any.
        restored_mpi_state: Option<Payload>,
        /// Application state restored from a checkpoint, if any.
        restored_app_state: Option<Payload>,
        /// V2: the node core the process drives for every later call.
        /// `None` under the baselines, whose daemons own their engines.
        node: Option<NodeHandle>,
    },
    /// A delivery (answer to `Brecv`).
    Msg {
        /// Original sender.
        from: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// Answer to `Nprobe`.
    Probe(bool),
    /// Answer to `CkptPoll`.
    CkptPending(bool),
    /// Answer to `CkptCommit` (the image is durably stored).
    CkptCommitted,
    /// Answer to `Finish`.
    Done,
}

/// Messages to the dispatcher's fabric mailbox.
#[derive(Clone, Debug)]
pub enum DispatcherMsg {
    /// A rank's MPI process reached `finalize`.
    Finalized {
        /// The finishing rank.
        rank: Rank,
        /// The finishing incarnation's engine counters (replayed
        /// deliveries, duplicate discards, recoveries, …) so the
        /// dispatcher can aggregate them into the [`RunReport`].
        ///
        /// [`RunReport`]: crate::dispatcher::RunReport
        metrics: Metrics,
        /// The incarnation's latency histograms (gate wait, EL ack RTT,
        /// checkpoint upload, replay), merged into the run report.
        timings: mvr_obs::ProtocolTimings,
    },
}
