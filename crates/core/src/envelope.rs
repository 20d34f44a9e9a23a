//! Wire-level message vocabulary shared by every component of the system.
//!
//! Connections in an MPICH-V2 deployment are typed by who talks to whom
//! (Fig. 3): computing daemons exchange [`PeerMsg`]s with each other,
//! [`ElRequest`]/[`ElReply`] with their event logger, [`CkptRequest`]/
//! [`CkptReply`] with a checkpoint server, and [`SchedMsg`]s with the
//! checkpoint scheduler. The MPICH-V1 baseline adds the Channel-Memory
//! vocabulary ([`CmRequest`]/[`CmReply`]).

use crate::event::{EventBatch, ReceptionEvent};
use crate::ids::{MsgId, Rank};
use crate::payload::Payload;
use crate::snapshot::ImageBlob;
use serde::{Deserialize, Serialize};

/// An application message as it travels between two communication daemons.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataMsg {
    /// Unique identifier: (sender, sender clock at emission).
    pub id: MsgId,
    /// Destination rank.
    pub dst: Rank,
    /// Opaque MPI-layer bytes (the MPI library's header + user data).
    pub payload: Payload,
}

impl DataMsg {
    /// Bytes of user-visible payload carried.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Messages exchanged between two computing-node daemons.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// A (possibly re-sent) application message.
    Data(DataMsg),
    /// First phase of the recovery handshake (Appendix A, `on Restart`):
    /// the restarting process tells each peer the clock of the last message
    /// it (provably, per its restored state) received from that peer
    /// (`HR_p[q]`). The peer adopts it as `HS_q[p]` and re-sends newer
    /// saved messages.
    Restart1 {
        /// `HR_p[q]` of the restarting sender, from its restored state.
        last_received: u64,
    },
    /// Second phase (`on RECV(RESTART1)` reply): the live peer answers with
    /// its own `HR_q[p]` so the restarting process can suppress
    /// re-transmissions of messages the peer already consumed.
    Restart2 {
        /// `HR_q[p]` of the replying peer.
        last_received: u64,
    },
    /// Garbage-collection notification (§4.6.1): the emitting node completed
    /// a checkpoint; the receiving *sender* may drop every saved message
    /// destined to the emitter whose sender clock is `<= watermark`.
    CkptNotify {
        /// Highest sender clock (of the *receiving* daemon) that the
        /// checkpointed node had delivered before its checkpoint.
        watermark: u64,
    },
}

/// Address of one event-logger replica in a sharded, replicated EL
/// deployment: the shard (consistent-hash partition of receiver ranks)
/// and the replica index within it. The unsharded deployment is the
/// degenerate `{shard: 0, replica: 0}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ElAddr {
    /// Shard index (consistent-hash partition of receiver ranks).
    pub shard: u32,
    /// Replica index within the shard.
    pub replica: u32,
}

impl ElAddr {
    /// Flat service index used by registries that enumerate every
    /// replica of every shard (`flat = shard * replicas + replica`).
    pub fn flat(self, replicas: u32) -> u32 {
        self.shard * replicas.max(1) + self.replica
    }

    /// Inverse of [`flat`](Self::flat).
    pub fn from_flat(flat: u32, replicas: u32) -> Self {
        let r = replicas.max(1);
        ElAddr {
            shard: flat / r,
            replica: flat % r,
        }
    }
}

impl std::fmt::Display for ElAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "el-s{}r{}", self.shard, self.replica)
    }
}

/// Requests a computing daemon sends to its event logger.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElRequest {
    /// Append a batch of reception events (asynchronous; acked).
    Log(EventBatch),
    /// On restart: fetch every stored event with
    /// `receiver_clock > after_clock` (the `DownloadEL(H_p)` routine).
    Download {
        /// Rank whose events to fetch.
        rank: Rank,
        /// Clock of the restored checkpoint.
        after_clock: u64,
    },
    /// Drop events with `receiver_clock <= up_to` after a successful
    /// checkpoint (storage reclamation; optional in the paper).
    Truncate {
        /// Rank whose events to truncate.
        rank: Rank,
        /// Checkpoint clock.
        up_to: u64,
    },
}

/// Replies from an event logger.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElReply {
    /// Every event with `receiver_clock <= up_to` is durably stored.
    /// Opens the pessimism gate (§4.5: "the communication daemon does not
    /// send messages before the event logger has acknowledged the reception
    /// of the preceding reception events").
    Ack {
        /// Highest durably-stored receiver clock.
        up_to: u64,
    },
    /// A revived replica's watermark for the owner, announced unsolicited
    /// when it starts over the ledger it caught up on: an `Ack`, and the
    /// owner re-ships it whatever it shipped above `up_to` that a quorum
    /// has not acked yet — batches lost with the dead replica's mailbox,
    /// or sent while it was down, that no sibling had stored when the
    /// revival caught up.
    Revived {
        /// Highest durably-stored receiver clock.
        up_to: u64,
    },
    /// Answer to [`ElRequest::Download`], in receiver-clock order.
    Events(Vec<ReceptionEvent>),
}

/// Requests to a checkpoint server.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CkptRequest {
    /// Store a checkpoint image for `rank` taken at logical `clock`.
    Put {
        /// Checkpointing rank.
        rank: Rank,
        /// Logical clock of the image.
        clock: u64,
        /// The image as a zero-copy segment blob
        /// ([`crate::snapshot::NodeImage::encode_blob`]).
        image: ImageBlob,
    },
    /// Fetch the latest stored image for `rank` (on restart).
    GetLatest {
        /// Restarting rank.
        rank: Rank,
    },
}

/// Replies from a checkpoint server.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CkptReply {
    /// The image identified by (rank, clock) is durably stored.
    Stored {
        /// Acknowledged rank.
        rank: Rank,
        /// Acknowledged image clock.
        clock: u64,
    },
    /// Answer to [`CkptRequest::GetLatest`]. `None` means no image exists
    /// and the process must restart from the beginning (§4.3: "may restart
    /// from scratch, at worst").
    Image {
        /// The image clock, if any.
        clock: Option<u64>,
        /// The image blob (empty when `clock` is `None`).
        image: ImageBlob,
    },
}

/// Messages between the checkpoint scheduler and computing daemons.
//
// `Status` carries four histogram summaries behind a box: a computing
// node's mailbox message embeds a `SchedMsg`, and every queued message
// would otherwise be sized for this rare one (a replay burst queues
// thousands).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedMsg {
    /// Scheduler asks a daemon for its logging status (§4.6.2: "it asks the
    /// communication daemons to send their status (in terms of the amount
    /// of logged messages)").
    StatusRequest,
    /// Daemon's answer.
    Status {
        /// Responding rank.
        rank: Rank,
        /// Bytes currently held in the sender-based log.
        logged_bytes: u64,
        /// Cumulative bytes sent so far.
        sent_bytes: u64,
        /// Cumulative bytes received so far.
        recv_bytes: u64,
        /// Event batches shipped to the event logger (lazy batching).
        el_batches: u64,
        /// Reception events carried by those batches.
        el_events: u64,
        /// Event-logger acknowledgements received.
        el_acks: u64,
        /// Largest single batch shipped, in events.
        el_max_batch: u64,
        /// Latency-histogram summaries for the hot protocol intervals
        /// (gate wait, EL ack RTT, checkpoint upload, replay).
        timings: Box<mvr_obs::TimingSummary>,
    },
    /// Scheduler orders the daemon to checkpoint now.
    CheckpointOrder,
    /// Daemon reports a completed checkpoint at `clock`.
    CheckpointDone {
        /// Reporting rank.
        rank: Rank,
        /// Logical clock of the completed image.
        clock: u64,
    },
}

/// Channel-Memory messages (MPICH-V1 baseline, §3.2): every message to a
/// process transits through, and is stored on, the reliable Channel Memory
/// associated with that process; receptions are pulled from it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmRequest {
    /// A sender pushes a message for the CM's owner rank.
    Push(DataMsg),
    /// The owner asks for its next reception, `seq` being the index of the
    /// reception in its own history (so a re-executing process re-reads
    /// receptions from an earlier index).
    Pull {
        /// Index of the requested reception in the owner's history.
        seq: u64,
    },
    /// The owner probes whether its `seq`-th reception is already stored.
    Probe {
        /// Index probed.
        seq: u64,
    },
}

/// Channel-Memory replies.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmReply {
    /// The pushed message is stored (sender may proceed).
    PushAck,
    /// The `seq`-th reception of the owner.
    Msg {
        /// Echoed sequence index.
        seq: u64,
        /// The stored message.
        msg: DataMsg,
    },
    /// Answer to [`CmRequest::Probe`].
    ProbeAck {
        /// Echoed sequence index.
        seq: u64,
        /// Whether the reception is stored.
        pending: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_msg_roundtrip() {
        let m = PeerMsg::Data(DataMsg {
            id: MsgId::new(Rank(1), 7),
            dst: Rank(2),
            payload: Payload::from_vec(vec![1, 2, 3]),
        });
        let enc = bincode::serialize(&m).unwrap();
        assert_eq!(m, bincode::deserialize::<PeerMsg>(&enc).unwrap());

        let r = PeerMsg::Restart1 { last_received: 42 };
        let enc = bincode::serialize(&r).unwrap();
        assert_eq!(r, bincode::deserialize::<PeerMsg>(&enc).unwrap());
    }

    #[test]
    fn el_addr_flat_roundtrip() {
        for replicas in 1..4u32 {
            for shard in 0..3 {
                for replica in 0..replicas {
                    let a = ElAddr { shard, replica };
                    assert_eq!(ElAddr::from_flat(a.flat(replicas), replicas), a);
                }
            }
        }
        // R=0 is treated as R=1 (the unreplicated deployment).
        assert_eq!(
            ElAddr::from_flat(2, 0),
            ElAddr {
                shard: 2,
                replica: 0
            }
        );
    }

    #[test]
    fn el_request_roundtrip() {
        let req = ElRequest::Download {
            rank: Rank(3),
            after_clock: 10,
        };
        let enc = bincode::serialize(&req).unwrap();
        assert_eq!(req, bincode::deserialize::<ElRequest>(&enc).unwrap());
    }

    #[test]
    fn ckpt_image_roundtrip() {
        let req = CkptRequest::Put {
            rank: Rank(0),
            clock: 99,
            image: ImageBlob {
                meta: Payload::filled(7, 16),
                segments: vec![Payload::filled(1, 128), Payload::filled(2, 64)],
            },
        };
        let enc = bincode::serialize(&req).unwrap();
        assert_eq!(req, bincode::deserialize::<CkptRequest>(&enc).unwrap());
    }

    #[test]
    fn data_msg_len() {
        let m = DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: Payload::empty(),
        };
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
