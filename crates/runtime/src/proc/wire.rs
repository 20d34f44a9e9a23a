//! The cross-process wire protocol: every envelope that crosses a
//! process boundary in the socket deployment, flattened into one serde
//! enum and carried as one [`mvr_net`] frame payload.
//!
//! Inside one OS process the runtime still runs the unchanged in-process
//! fabric; [`super::gateway`] turns remote mailbox destinations into
//! `WireMsg`s and inbound frames back into local mailbox sends. The enum
//! therefore mirrors `DaemonMsg`/`ElPacket`/`CkptPacket`/`SchedMsg`
//! variant-for-variant, plus the small control plane the supervising
//! dispatcher speaks with its children (hello/address-map/shutdown and
//! result/failure reports).
//!
//! Every message is the vendored bincode's bytes, but two codecs write
//! them. The data plane — `Peer`, `ElReq` and `ElRep`, three of them per
//! V2 send — has a hand-written codec on the primitives of
//! [`mvr_core::codec`]: no serde value tree, one copy of a `Data` body
//! on the way out, none on the way in (the body is a view of the
//! delivered frame). The low-rate control plane goes through bincode.
//! [`WireMsg::decode_frame`] dispatches once, on the leading variant
//! index, so each message has exactly one codec; the conformance tests
//! below hold the hand codec to `bincode::serialize`, and its decoder is
//! strict — a frame that decodes re-encodes to the same bytes.

use mvr_core::codec::{Encoder, Head, Parse, Reader, T_VARIANT_NEWTYPE, T_VARIANT_TUPLE};
use mvr_core::{
    CkptReply, CkptRequest, DataMsg, ElAddr, ElReply, ElRequest, Metrics, MsgId, NodeId, Payload,
    PeerMsg, Rank, ReceptionEvent, SchedMsg,
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
    /// Encode for the frame layer: one exact-size buffer, the data plane
    /// by hand, the control plane through bincode.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_data_plane()
            .unwrap_or_else(|| bincode::serialize(self).expect("WireMsg serializes"))
    }

    /// Decode a frame payload. A `Data` body is a view of `frame`.
    /// Malformed input is an error, never a panic — the transport treats
    /// it as a corrupt stream.
    pub fn decode_frame(frame: &Payload) -> Result<WireMsg, String> {
        fn bad(e: impl std::fmt::Display) -> String {
            format!("bad wire message: {e}")
        }
        let index = frame.get(1).map_or(0, |&b| usize::from(b));
        if (PEER..=EL_REP).contains(&index) {
            return decode_data_plane(&mut Reader::new(frame)).map_err(bad);
        }
        let msg: WireMsg = bincode::deserialize(frame).map_err(bad)?;
        // bincode matches a variant by name: a data-plane name under a
        // control-plane index must not slip past the strict codec.
        match msg {
            WireMsg::Peer { .. } | WireMsg::ElReq { .. } | WireMsg::ElRep { .. } => {
                Err(bad("data-plane variant under a control-plane index"))
            }
            msg => Ok(msg),
        }
    }

    /// [`decode_frame`](Self::decode_frame) of a copy of `bytes`, for a
    /// caller that holds a slice rather than a delivered frame.
    pub fn decode(bytes: &[u8]) -> Result<WireMsg, String> {
        Self::decode_frame(&Payload::from(bytes))
    }

    /// The hand-written encoding of a data-plane message; `None` for the
    /// control plane.
    fn encode_data_plane(&self) -> Option<Vec<u8>> {
        let mut h = Head::default();
        match self {
            WireMsg::Peer { from, msg } => {
                h.struct_variant(PEER, WIRE_VARIANTS[PEER], 2);
                put_rank(&mut h, *from);
                match msg {
                    PeerMsg::Data(d) => {
                        h.variant(T_VARIANT_NEWTYPE, 0, PEER_MSGS[0]);
                        h.seq(3);
                        h.seq(2);
                        put_rank(&mut h, d.id.sender);
                        h.u64(d.id.sender_clock);
                        put_rank(&mut h, d.dst);
                        h.body_len(d.payload.len());
                        return Some(h.into_vec(&d.payload));
                    }
                    PeerMsg::Restart1 { last_received: n } => clock_variant(&mut h, 1, *n),
                    PeerMsg::Restart2 { last_received: n } => clock_variant(&mut h, 2, *n),
                    PeerMsg::CkptNotify { watermark: n } => clock_variant(&mut h, 3, *n),
                }
            }
            WireMsg::ElReq { from, req } => {
                h.struct_variant(EL_REQ, WIRE_VARIANTS[EL_REQ], 2);
                put_rank(&mut h, *from);
                let (idx, rank, clock) = match req {
                    ElRequest::Log(batch) => {
                        h.variant(T_VARIANT_NEWTYPE, 0, EL_REQUESTS[0]);
                        h.seq(2);
                        put_rank(&mut h, batch.owner);
                        return Some(with_events(h, &batch.events));
                    }
                    ElRequest::Download { rank, after_clock } => (1, rank, after_clock),
                    ElRequest::Truncate { rank, up_to } => (2, rank, up_to),
                };
                h.struct_variant(idx, EL_REQUESTS[idx], 2);
                put_rank(&mut h, *rank);
                h.u64(*clock);
            }
            WireMsg::ElRep { from, reply } => {
                h.struct_variant(EL_REP, WIRE_VARIANTS[EL_REP], 2);
                h.seq(2);
                h.u64(from.shard.into());
                h.u64(from.replica.into());
                let (idx, up_to) = match reply {
                    ElReply::Ack { up_to } => (0, up_to),
                    ElReply::Revived { up_to } => (1, up_to),
                    ElReply::Events(events) => {
                        h.variant(T_VARIANT_NEWTYPE, 2, EL_REPLIES[2]);
                        return Some(with_events(h, events));
                    }
                };
                h.struct_variant(idx, EL_REPLIES[idx], 1);
                h.u64(*up_to);
            }
            _ => return None,
        }
        Some(h.into_vec(&[]))
    }
}

// ---------------------------------------------------------------------
// The data-plane codec (format: `mvr_core::codec`).
// ---------------------------------------------------------------------

/// The first [`WireMsg`] variant names, by variant index, up to the last
/// data-plane one.
const WIRE_VARIANTS: [&str; 7] = [
    "Hello",
    "AddressMap",
    "Shutdown",
    "Ready",
    "Peer",
    "ElReq",
    "ElRep",
];
const PEER: usize = 4;
const EL_REQ: usize = 5;
const EL_REP: usize = 6;
const PEER_MSGS: [&str; 4] = ["Data", "Restart1", "Restart2", "CkptNotify"];
const EL_REQUESTS: [&str; 3] = ["Log", "Download", "Truncate"];
const EL_REPLIES: [&str; 3] = ["Ack", "Revived", "Events"];

/// The widest encoded [`ReceptionEvent`]: a four-field struct of two
/// `u32` and two `u64` integers.
const MAX_EVENT: usize = 2 + 2 * 6 + 2 * 11;
/// The narrowest one: every integer a one-byte varint.
const MIN_EVENT: usize = 2 + 4 * 2;

fn put_rank(e: &mut impl Encoder, r: Rank) {
    e.u64(r.0.into());
}

/// A `PeerMsg` struct variant whose one field is a clock.
fn clock_variant(h: &mut Head, idx: usize, clock: u64) {
    h.struct_variant(idx, PEER_MSGS[idx], 1);
    h.u64(clock);
}

/// `head`, then `events` as a sequence, in one `Vec`.
fn with_events(mut head: Head, events: &[ReceptionEvent]) -> Vec<u8> {
    head.seq(events.len());
    let mut out = Vec::with_capacity(head.as_slice().len() + events.len() * MAX_EVENT);
    out.put(head.as_slice());
    for ev in events {
        out.seq(4);
        put_rank(&mut out, ev.sender);
        out.u64(ev.sender_clock);
        out.u64(ev.receiver_clock);
        out.u64(ev.probes.into());
    }
    out
}

fn decode_data_plane(r: &mut Reader<'_>) -> Parse<WireMsg> {
    r.expect(T_VARIANT_TUPLE)?;
    let idx = r.name(&WIRE_VARIANTS)?;
    r.expect(2)?;
    let msg = match idx {
        PEER => WireMsg::Peer {
            from: read_rank(r)?,
            msg: read_peer_msg(r)?,
        },
        EL_REQ => WireMsg::ElReq {
            from: read_rank(r)?,
            req: read_el_request(r)?,
        },
        EL_REP => WireMsg::ElRep {
            from: {
                r.fields(2)?;
                ElAddr {
                    shard: r.u32()?,
                    replica: r.u32()?,
                }
            },
            reply: read_el_reply(r)?,
        },
        _ => return Err("not a data-plane variant"),
    };
    r.finish()?;
    Ok(msg)
}

fn read_rank(r: &mut Reader<'_>) -> Parse<Rank> {
    Ok(Rank(r.u32()?))
}

fn read_peer_msg(r: &mut Reader<'_>) -> Parse<PeerMsg> {
    let (tag, idx) = r.variant(&PEER_MSGS)?;
    if (tag, idx) == (T_VARIANT_NEWTYPE, 0) {
        r.fields(3)?;
        r.fields(2)?;
        let id = MsgId::new(read_rank(r)?, r.u64()?);
        return Ok(PeerMsg::Data(DataMsg {
            id,
            dst: read_rank(r)?,
            payload: r.body()?,
        }));
    }
    if tag != T_VARIANT_TUPLE || idx == 0 {
        return Err("bad peer message");
    }
    r.expect(1)?;
    let n = r.u64()?;
    Ok(match idx {
        1 => PeerMsg::Restart1 { last_received: n },
        2 => PeerMsg::Restart2 { last_received: n },
        _ => PeerMsg::CkptNotify { watermark: n },
    })
}

fn read_el_request(r: &mut Reader<'_>) -> Parse<ElRequest> {
    let (tag, idx) = r.variant(&EL_REQUESTS)?;
    if (tag, idx) == (T_VARIANT_NEWTYPE, 0) {
        r.fields(2)?;
        let owner = read_rank(r)?;
        return Ok(ElRequest::Log(mvr_core::EventBatch {
            owner,
            events: read_events(r)?,
        }));
    }
    if tag != T_VARIANT_TUPLE || idx == 0 {
        return Err("bad event-logger request");
    }
    r.expect(2)?;
    let (rank, clock) = (read_rank(r)?, r.u64()?);
    Ok(match idx {
        1 => ElRequest::Download {
            rank,
            after_clock: clock,
        },
        _ => ElRequest::Truncate { rank, up_to: clock },
    })
}

fn read_el_reply(r: &mut Reader<'_>) -> Parse<ElReply> {
    Ok(match r.variant(&EL_REPLIES)? {
        (T_VARIANT_NEWTYPE, 2) => ElReply::Events(read_events(r)?),
        (T_VARIANT_TUPLE, idx @ 0..=1) => {
            r.expect(1)?;
            let up_to = r.u64()?;
            if idx == 0 {
                ElReply::Ack { up_to }
            } else {
                ElReply::Revived { up_to }
            }
        }
        _ => return Err("bad event-logger reply"),
    })
}

fn read_events(r: &mut Reader<'_>) -> Parse<Vec<ReceptionEvent>> {
    let n = r.seq()?;
    // A count the frame cannot hold reserves no more than it could.
    let mut events = Vec::with_capacity(n.min((r.remaining() / MIN_EVENT) as u64) as usize);
    for _ in 0..n {
        r.fields(4)?;
        events.push(ReceptionEvent {
            sender: read_rank(r)?,
            sender_clock: r.u64()?,
            receiver_clock: r.u64()?,
            probes: r.u32()?,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::EventBatch;

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

    // ---- conformance of the hand-written data-plane codec ------------

    use mvr_core::codec::T_SEQ;
    use proptest::prelude::*;

    fn rank() -> impl Strategy<Value = Rank> {
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..300, 0..=u32::MAX].prop_map(Rank)
    }

    fn clock() -> impl Strategy<Value = u64> {
        prop_oneof![Just(u64::MAX), 0u64..300, 0..=u64::MAX]
    }

    fn events() -> impl Strategy<Value = Vec<ReceptionEvent>> {
        let event = || {
            (
                rank(),
                clock(),
                clock(),
                prop_oneof![Just(u32::MAX), 0u32..300],
            )
                .prop_map(|(sender, sender_clock, receiver_clock, probes)| {
                    ReceptionEvent {
                        sender,
                        sender_clock,
                        receiver_clock,
                        probes,
                    }
                })
        };
        prop_oneof![Just(0usize), 1usize..8, Just(200usize)]
            .prop_flat_map(move |n| proptest::collection::vec(event(), n))
    }

    fn body(big: bool) -> impl Strategy<Value = Payload> {
        let len = if big {
            prop_oneof![0usize..64, 64usize..4096, 128_000usize..200_001]
        } else {
            prop_oneof![0usize..64, 64usize..4096]
        };
        len.prop_flat_map(|len| (Just(len), 0u8..=255))
            .prop_map(|(len, seed)| {
                Payload::from_vec(
                    (0..len)
                        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
                        .collect(),
                )
            })
    }

    /// Every variant of `Peer`, `ElReq` and `ElRep`, with ranks and clocks
    /// up to `u32::MAX`/`u64::MAX`, event lists of 0–200 events and
    /// bodies up to 4 KiB, or up to 200 KB when `big`.
    fn data_plane(big: bool) -> impl Strategy<Value = WireMsg> {
        (
            (0u8..10, rank(), rank()),
            (rank(), clock()),
            events(),
            body(big),
        )
            .prop_map(|((kind, a, b), (c, n), events, payload)| match kind {
                0 => WireMsg::Peer {
                    from: a,
                    msg: PeerMsg::Data(DataMsg {
                        id: MsgId::new(b, n),
                        dst: c,
                        payload,
                    }),
                },
                1 => WireMsg::Peer {
                    from: a,
                    msg: PeerMsg::Restart1 { last_received: n },
                },
                2 => WireMsg::Peer {
                    from: a,
                    msg: PeerMsg::Restart2 { last_received: n },
                },
                3 => WireMsg::Peer {
                    from: a,
                    msg: PeerMsg::CkptNotify { watermark: n },
                },
                4 => WireMsg::ElReq {
                    from: a,
                    req: ElRequest::Log(EventBatch { owner: b, events }),
                },
                5 => WireMsg::ElReq {
                    from: a,
                    req: ElRequest::Download {
                        rank: b,
                        after_clock: n,
                    },
                },
                6 => WireMsg::ElReq {
                    from: a,
                    req: ElRequest::Truncate { rank: b, up_to: n },
                },
                kind => WireMsg::ElRep {
                    from: ElAddr {
                        shard: a.0,
                        replica: b.0,
                    },
                    reply: match kind {
                        7 => ElReply::Ack { up_to: n },
                        8 => ElReply::Revived { up_to: n },
                        _ => ElReply::Events(events),
                    },
                },
            })
    }

    fn data_body(msg: &WireMsg) -> Option<&Payload> {
        match msg {
            WireMsg::Peer {
                msg: PeerMsg::Data(d),
                ..
            } => Some(&d.payload),
            _ => None,
        }
    }

    /// A decode either fails or yields a message that re-encodes to
    /// exactly the bytes it came from.
    fn canonical_or_error(bytes: &Payload) {
        if let Ok(msg) = WireMsg::decode_frame(bytes) {
            assert_eq!(
                msg.encode(),
                bytes.as_slice(),
                "accepted non-canonical bytes as {msg:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn hand_encoder_writes_the_bincode_bytes(msg in data_plane(true)) {
            let reference = bincode::serialize(&msg).unwrap();
            let ours = msg.encode();
            prop_assert_eq!(&ours, &reference);
            // Decoding bincode's bytes gives the message back (its bincode
            // bytes are equal), a `Data` body a view into the frame.
            let frame = Payload::from_vec(reference);
            let back = WireMsg::decode_frame(&frame).unwrap();
            prop_assert_eq!(bincode::serialize(&back).unwrap(), frame.to_vec());
            if let Some(body) = data_body(&back) {
                let range = frame.as_ptr_range();
                let at = body.as_ptr_range();
                prop_assert!(range.start <= at.start && at.end <= range.end);
            }
        }

        #[test]
        fn prefixes_and_head_byte_replacements_never_decode_wrongly(msg in data_plane(false)) {
            let enc = Payload::from_vec(msg.encode());
            for n in 0..enc.len() {
                canonical_or_error(&enc.slice(..n));
            }
            // Every replacement of each head byte (the first 96 bytes of
            // an event list), and of the last byte: a body's other bytes
            // are opaque, so a flip there changes content, not structure.
            let head = enc.len() - data_body(&msg).map_or(0, |b| b.len());
            let mut at: Vec<usize> = (0..head.min(96)).collect();
            at.extend(enc.len().checked_sub(1));
            let mut bytes = enc.to_vec();
            for i in at {
                let orig = bytes[i];
                for b in (0..=255).filter(|&b| b != orig) {
                    bytes[i] = b;
                    canonical_or_error(&Payload::from(&bytes[..]));
                }
                bytes[i] = orig;
            }
        }
    }

    #[test]
    fn overlong_varints_and_out_of_range_u32_fields_are_rejected() {
        let ack = |shard: u64| {
            let mut v = Vec::new();
            v.struct_variant(EL_REP, "ElRep", 2);
            v.seq(2);
            v.u64(shard);
            v.u64(0);
            v.struct_variant(0, "Ack", 1);
            v.u64(5);
            v
        };
        assert!(WireMsg::decode(&ack(u32::MAX.into())).is_ok());
        assert!(WireMsg::decode(&ack(1 << 32)).is_err(), "ElAddr.shard");
        // `up_to: 5` written as two bytes: bincode reads it, the codec
        // does not write it.
        let mut long = ack(0);
        *long.last_mut().unwrap() = 0x85;
        long.push(0);
        assert!(bincode::deserialize::<WireMsg>(&long).is_ok());
        assert!(WireMsg::decode(&long).is_err());

        let restart = |from: u64| {
            let mut v = Vec::new();
            v.struct_variant(PEER, "Peer", 2);
            v.u64(from);
            v.struct_variant(1, "Restart1", 1);
            v.u64(0);
            v
        };
        assert!(WireMsg::decode(&restart(u32::MAX.into())).is_ok());
        assert!(WireMsg::decode(&restart(1 << 32)).is_err(), "Rank");

        let log = |probes: u64| {
            let mut v = Vec::new();
            v.struct_variant(EL_REQ, "ElReq", 2);
            v.u64(0);
            v.variant(T_VARIANT_NEWTYPE, 0, "Log");
            v.seq(2);
            v.u64(0);
            v.seq(1);
            v.byte(T_SEQ);
            v.byte(4);
            for n in [1, 2, 3, probes] {
                v.u64(n);
            }
            v
        };
        assert!(WireMsg::decode(&log(u32::MAX.into())).is_ok());
        assert!(WireMsg::decode(&log(1 << 32)).is_err(), "probes");
    }

    #[test]
    fn a_data_plane_name_under_a_control_plane_index_is_rejected() {
        let mut bytes = WireMsg::Peer {
            from: Rank(1),
            msg: PeerMsg::CkptNotify { watermark: 3 },
        }
        .encode();
        for index in [0, 1, 2, 3, 7, 12] {
            bytes[1] = index;
            assert!(WireMsg::decode(&bytes).is_err(), "index {index}");
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
