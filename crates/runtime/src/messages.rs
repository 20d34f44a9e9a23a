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

/// What the daemon posts to its MPI process: the node, once, then only
/// the wake-ups of a process parked on a call its core could not answer.
#[derive(Clone, Debug)]
pub enum ProcReply {
    /// Posted as soon as the daemon's core exists (§4.4 `PIiInit`).
    InitOk {
        /// World size.
        size: u32,
        /// The MPI-library and application state restored from a
        /// checkpoint, if any.
        restored: Option<(Payload, Payload)>,
        /// The node core the process drives for every later call.
        node: NodeHandle,
    },
    /// A delivery for a parked receive.
    Msg {
        /// Original sender.
        from: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// The verdict for a parked probe.
    Probe(bool),
    /// A parked `finalize` completed.
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
