//! The cross-process wire protocol: every envelope that crosses a
//! process boundary in the socket deployment, flattened into one serde
//! enum and carried as a bincode-encoded [`mvr_net`] frame payload.
//!
//! Inside one OS process the runtime still runs the unchanged in-process
//! fabric; [`super::gateway`] turns remote mailbox destinations into
//! `WireMsg`s and inbound frames back into local mailbox sends. The enum
//! therefore mirrors `DaemonMsg`/`ElPacket`/`CkptPacket`/`SchedMsg`
//! variant-for-variant, plus the small control plane the supervising
//! dispatcher speaks with its children (hello/address-map/shutdown and
//! result/failure reports).

use mvr_core::{
    CkptReply, CkptRequest, ElAddr, ElReply, ElRequest, Metrics, NodeId, Payload, PeerMsg, Rank,
    SchedMsg,
};
use mvr_eventlog::EventLogStore;
use mvr_obs::{FlightRecord, ProtocolTimings, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

/// One message between two OS processes of a socket deployment.
///
/// Control-plane variants (`Hello` … `Ready`, `Finalized` … `Telemetry`) flow between the
/// supervising dispatcher and its children; data-plane variants wrap the
/// unchanged protocol envelopes of the in-process runtime.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WireMsg {
    /// First message of every child, and re-sent on every reincarnation:
    /// "this endpoint now serves `node` at `addr`". The fresh ephemeral
    /// `addr` per incarnation is what sidesteps `TIME_WAIT` rebinding.
    Hello {
        /// The node this process hosts.
        node: NodeId,
        /// Its listening address (`host:port`).
        addr: String,
        /// Supervisor-assigned incarnation (0 on first launch).
        incarnation: u64,
    },
    /// Full routing table, broadcast by the supervisor after every
    /// `Hello` so reincarnated peers are re-routable by everyone.
    AddressMap(Vec<(NodeId, String)>),
    /// Orderly-teardown request from the supervisor.
    Shutdown,
    /// "This incarnation of `node` is doing its job": its flight-record
    /// stream is open and its node threads run. The supervisor's fault
    /// plan holds kills aimed at a node until its current incarnation
    /// has said so.
    Ready {
        /// The node reporting.
        node: NodeId,
        /// Its incarnation.
        incarnation: u64,
    },

    /// Daemon-to-daemon protocol message (`DaemonMsg::Peer`).
    Peer {
        /// Sending rank.
        from: Rank,
        /// The protocol message.
        msg: PeerMsg,
    },
    /// Daemon-to-event-logger request (`ElPacket`).
    ElReq {
        /// Requesting rank.
        from: Rank,
        /// The request.
        req: ElRequest,
    },
    /// Event-logger-to-daemon reply (`DaemonMsg::El`).
    ElRep {
        /// The answering replica.
        from: ElAddr,
        /// The reply.
        reply: ElReply,
    },
    /// Daemon-to-checkpoint-server request (`CkptPacket`).
    CkptReq {
        /// Requesting rank.
        from: Rank,
        /// The request.
        req: CkptRequest,
    },
    /// Checkpoint-server-to-daemon reply (`DaemonMsg::Ckpt`).
    CkptRep {
        /// The reply.
        reply: CkptReply,
    },
    /// Scheduler-to-daemon order/status-request (`DaemonMsg::Sched`).
    SchedToDaemon {
        /// The message.
        msg: SchedMsg,
    },
    /// Daemon-to-scheduler status/completion (`SchedMsg` at the
    /// scheduler mailbox).
    SchedToScheduler {
        /// The message.
        msg: SchedMsg,
    },

    /// A rank's end-of-run metrics report (`DispatcherMsg::Finalized`).
    Finalized {
        /// Reporting rank.
        rank: Rank,
        /// Engine metrics.
        metrics: Metrics,
        /// Protocol-interval histograms.
        timings: ProtocolTimings,
    },
    /// A rank's application result.
    RankResult {
        /// Finishing rank.
        rank: Rank,
        /// The application's return payload.
        result: Payload,
    },
    /// A rank's application error or a service thread's panic (a bug,
    /// not a crash — the supervisor distinguishes crashes by the
    /// fail-stop detector).
    Failed {
        /// Failing node.
        node: NodeId,
        /// Error detail.
        detail: String,
    },

    /// Reviving event-logger replica asking a same-shard sibling for its
    /// ledger.
    ElFetch {
        /// The shard being revived.
        shard: u32,
    },
    /// A sibling's ledger snapshot, absorbed before the revived replica
    /// opens for business.
    ElSnapshot {
        /// The full store.
        store: EventLogStore,
    },
    /// Revival report: the replica is caught up and serving.
    ElRevived {
        /// Shard of the revived replica.
        shard: u32,
        /// Replica slot within the shard.
        replica: u32,
        /// Events absorbed from the sibling snapshot.
        caught_up: u64,
    },

    /// Live telemetry batch from a child: staged flight records plus a
    /// cumulative health snapshot. Shipped off the protocol hot path on
    /// the child's supervision loop; the parent feeds the records into
    /// its cluster-wide invariant monitor and folds the snapshot into
    /// the aggregated health page.
    Telemetry {
        /// Node (display form) the batch came from.
        node: String,
        /// Incarnation of the shipping process.
        incarnation: u64,
        /// Flight records drained from the telemetry buffer since the
        /// last frame (bounded batch; empty for snapshot-only frames).
        records: Vec<FlightRecord>,
        /// Cumulative counters and histograms at ship time.
        snapshot: TelemetrySnapshot,
    },
}

impl WireMsg {
    /// Encode for the frame layer.
    pub fn encode(&self) -> Vec<u8> {
        bincode::serialize(self).expect("WireMsg serializes")
    }

    /// Decode a frame payload. Malformed input is an error, never a
    /// panic — the transport treats it as a corrupt stream.
    pub fn decode(bytes: &[u8]) -> Result<WireMsg, String> {
        bincode::deserialize(bytes).map_err(|e| format!("bad wire message: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::{EventBatch, ReceptionEvent};

    fn roundtrip(msg: &WireMsg) -> WireMsg {
        WireMsg::decode(&msg.encode()).expect("roundtrip")
    }

    #[test]
    fn control_plane_roundtrips() {
        match roundtrip(&WireMsg::Hello {
            node: NodeId::Computing(Rank(3)),
            addr: "127.0.0.1:4711".into(),
            incarnation: 2,
        }) {
            WireMsg::Hello {
                node,
                addr,
                incarnation,
            } => {
                assert_eq!(node, NodeId::Computing(Rank(3)));
                assert_eq!(addr, "127.0.0.1:4711");
                assert_eq!(incarnation, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&WireMsg::AddressMap(vec![
            (NodeId::Dispatcher, "127.0.0.1:1".into()),
            (NodeId::EventLogger(5), "127.0.0.1:2".into()),
        ])) {
            WireMsg::AddressMap(m) => {
                assert_eq!(m.len(), 2);
                assert_eq!(m[1].0, NodeId::EventLogger(5));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(roundtrip(&WireMsg::Shutdown), WireMsg::Shutdown));
    }

    #[test]
    fn data_plane_roundtrips() {
        let batch = EventBatch {
            owner: Rank(1),
            events: vec![ReceptionEvent {
                sender: Rank(0),
                sender_clock: 7,
                receiver_clock: 9,
                probes: 0,
            }],
        };
        match roundtrip(&WireMsg::ElReq {
            from: Rank(1),
            req: ElRequest::Log(batch.clone()),
        }) {
            WireMsg::ElReq {
                from,
                req: ElRequest::Log(b),
            } => {
                assert_eq!(from, Rank(1));
                assert_eq!(b.events[0].receiver_clock, 9);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&WireMsg::ElRep {
            from: ElAddr {
                shard: 1,
                replica: 2,
            },
            reply: ElReply::Ack { up_to: 9 },
        }) {
            WireMsg::ElRep { from, .. } => assert_eq!(from.replica, 2),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn result_and_revival_roundtrip() {
        match roundtrip(&WireMsg::RankResult {
            rank: Rank(2),
            result: Payload::from_vec(vec![1, 2, 3]),
        }) {
            WireMsg::RankResult { rank, result } => {
                assert_eq!(rank, Rank(2));
                assert_eq!(result.as_slice(), &[1, 2, 3]);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let mut store = EventLogStore::new();
        store.log(EventBatch {
            owner: Rank(0),
            events: vec![ReceptionEvent {
                sender: Rank(1),
                sender_clock: 1,
                receiver_clock: 1,
                probes: 0,
            }],
        });
        match roundtrip(&WireMsg::ElSnapshot { store }) {
            WireMsg::ElSnapshot { store } => assert_eq!(store.total_held(), 1),
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&WireMsg::ElRevived {
            shard: 1,
            replica: 0,
            caught_up: 42,
        }) {
            WireMsg::ElRevived { caught_up, .. } => assert_eq!(caught_up, 42),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn telemetry_roundtrips() {
        use mvr_obs::ProtoEvent;
        let mut snapshot = TelemetrySnapshot {
            records_total: 12,
            dropped_total: 3,
            ..Default::default()
        };
        snapshot.timings.gate_wait.record(4_000);
        snapshot.quorum_wait.record(150);
        let msg = WireMsg::Telemetry {
            node: "cn2".into(),
            incarnation: 1,
            records: vec![FlightRecord {
                rank: 2,
                clock: 7,
                ts_ns: 99,
                event: ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 4_000,
                },
            }],
            snapshot: snapshot.clone(),
        };
        match roundtrip(&msg) {
            WireMsg::Telemetry {
                node,
                incarnation,
                records,
                snapshot: snap,
            } => {
                assert_eq!(node, "cn2");
                assert_eq!(incarnation, 1);
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].clock, 7);
                assert_eq!(snap, snapshot);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(WireMsg::decode(&[]).is_err());
        assert!(WireMsg::decode(&[0xff; 64]).is_err());
        // A truncated valid message is also an error, not a panic.
        let bytes = WireMsg::Shutdown.encode();
        for cut in 0..bytes.len() {
            let _ = WireMsg::decode(&bytes[..cut]);
        }
    }
}
