//! Mailbox message types of the runtime's node kinds.

use mvr_core::{CkptReply, CmReply, ElAddr, ElReply, Metrics, PeerMsg, Rank, SchedMsg};

/// Everything a computing node can receive — the analog of its daemon's
/// `select()` loop over one socket per peer and per service (§4.4). The
/// node mailbox carries nothing else: the MPI process's calls run on the
/// node core directly, and their answers are left in the core.
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
