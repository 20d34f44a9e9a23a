//! The structured protocol event schema.
//!
//! One [`FlightRecord`] is written to a rank's stream per protocol
//! transition. The event vocabulary mirrors §4 of the paper:
//! the pessimism gate, event-logger traffic, uncoordinated checkpoints,
//! the RESTART handshake and ordered replay — plus the chaos layer's
//! interventions, which is what makes a post-mortem timeline readable.

use serde::{Deserialize, Serialize};

/// What happened to an application send at emission time — the
/// span-correlation field the lifecycle stitcher and the online gate
/// monitor key on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SendDisposition {
    /// Transmitted immediately (gate open, nothing queued).
    Wire,
    /// Queued behind the closed pessimism gate; a later `GateOpen`
    /// releases it.
    Gated,
    /// Send not transmitted when made: the peer's RESTART watermark
    /// already covers it, or the peer has not answered the recovering
    /// sender's RESTART1 yet (its answer's re-send round carries the
    /// message if the peer lacks it); only SAVED is appended.
    Suppressed,
}

/// A structured protocol event. Numeric fields are raw `u32`/`u64`
/// (ranks, clocks, byte counts) so the schema has no dependency on the
/// protocol crates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoEvent {
    /// Application send left the engine (clock-ticked, logged to SAVED).
    Send {
        /// Destination rank.
        to: u32,
        /// Sender logical clock stamped on the message — together with
        /// the recording rank, the lifecycle-span key.
        clock: u64,
        /// Payload bytes.
        bytes: u64,
        /// Whether the payload hit the wire, queued behind the gate, or
        /// was suppressed as an already-received re-execution.
        disposition: SendDisposition,
    },
    /// A send queued behind the closed pessimism gate (WAITLOGGED).
    GateDefer {
        /// Destination rank of the deferred send.
        to: u32,
        /// Sender clock of the deferred data message (span key).
        clock: u64,
        /// Number of sends now waiting behind the gate.
        queued: u64,
    },
    /// The gate opened (EL ack covered every owed event) and released
    /// the queued sends.
    GateOpen {
        /// Sends released by this opening.
        released: u64,
        /// Nanoseconds the oldest released send waited.
        waited_ns: u64,
    },
    /// A message was delivered to the application.
    Deliver {
        /// Source rank.
        from: u32,
        /// Sender clock of the delivered message.
        sender_clock: u64,
        /// Receiver clock assigned to the delivery.
        receiver_clock: u64,
        /// `true` when delivered during ordered replay.
        replay: bool,
    },
    /// A duplicate incoming message was dropped.
    DuplicateDropped {
        /// Source rank.
        from: u32,
        /// Sender clock of the duplicate.
        sender_clock: u64,
    },
    /// A batch of reception events shipped to the event logger.
    ElShip {
        /// Events carried by the batch.
        events: u64,
        /// Lowest receiver clock covered by the batch (span stitching
        /// attributes each delivered receiver clock to its batch).
        from_clock: u64,
        /// Highest receiver clock covered by the batch.
        up_to: u64,
    },
    /// An event-logger acknowledgement arrived.
    ElAck {
        /// Highest receiver clock the ack covers.
        up_to: u64,
        /// Shipped batches retired by this (possibly coalesced) ack.
        batches_retired: u64,
        /// Round-trip nanoseconds of the oldest retired batch
        /// (0 when the ack retired nothing).
        rtt_ns: u64,
    },
    /// Checkpoint armed: image serialized, upload begun.
    CkptBegin {
        /// Sequence number of the checkpoint.
        seq: u64,
        /// Sender-log bytes held at the snapshot instant (the dominant
        /// protocol-side component of the image).
        bytes: u64,
    },
    /// Checkpoint acknowledged by the checkpoint server.
    CkptCommit {
        /// Sequence number of the checkpoint.
        seq: u64,
        /// Nanoseconds between arm and commit (upload duration).
        store_ns: u64,
    },
    /// Sender-log garbage collection driven by a peer's CkptNotify.
    CkptGc {
        /// Peer whose watermark advanced.
        peer: u32,
        /// Bytes freed from the sender log.
        bytes_freed: u64,
    },
    /// RESTART phase 1: a restarting rank announced itself.
    Restart1 {
        /// The restarting rank.
        rank: u32,
    },
    /// RESTART phase 2: watermark exchanged with a peer.
    Restart2 {
        /// Peer rank the watermark was exchanged with.
        peer: u32,
        /// The exchanged high-watermark clock.
        watermark: u64,
    },
    /// Recovery began: checkpoint image restored, EL download issued.
    RecoveryBegin {
        /// Receiver clock restored from the checkpoint image.
        restored_clock: u64,
    },
    /// One ordered replay step consumed a logged reception event.
    ReplayStep {
        /// Source rank of the replayed message.
        from: u32,
        /// Sender clock of the replayed message (span key).
        sender_clock: u64,
        /// Receiver clock of the replayed delivery.
        receiver_clock: u64,
    },
    /// Ordered replay finished; the engine switched to normal mode.
    ReplayDone {
        /// Deliveries performed during the replay.
        replayed: u64,
        /// Nanoseconds spent replaying.
        replay_ns: u64,
    },
    /// The chaos layer killed a node.
    ChaosKill {
        /// Victim rank (computing ranks only; services use
        /// [`ProtoEvent::ServiceKill`]).
        victim: u32,
        /// `true` when the victim was already restarting (a re-kill).
        rekill: bool,
    },
    /// The chaos layer killed a service node.
    ServiceKill {
        /// Human-readable service name ("cs", "el0", ...).
        service: String,
    },
    /// A daemon incarnation exited cleanly (app finished).
    Finish {
        /// Final receiver clock.
        clock: u64,
    },
    /// The dispatcher detected a daemon death and scheduled a respawn.
    RespawnScheduled {
        /// Rank being respawned.
        rank: u32,
        /// Restart count for this rank so far.
        attempt: u64,
    },
    /// An invariant violation or payload divergence detected by a
    /// harness; recorded immediately before a dump.
    Divergence {
        /// What diverged, in prose.
        detail: String,
    },
    /// One event-logger replica acknowledged a shipped batch. Only
    /// emitted when the EL is replicated (`el_replicas > 1`); the
    /// quorum-level [`ProtoEvent::ElAck`] still marks the gate-visible
    /// watermark advance.
    ElReplicaAck {
        /// Shard the replica belongs to.
        shard: u32,
        /// Replica index within the shard.
        replica: u32,
        /// Highest receiver clock this replica has durably stored.
        up_to: u64,
    },
    /// The dispatcher revived a dead event-logger replica and it caught
    /// up from a surviving peer's ledger snapshot.
    ElReplicaRevive {
        /// Shard the replica belongs to.
        shard: u32,
        /// Replica index within the shard.
        replica: u32,
        /// Events absorbed from the peer snapshot during catch-up.
        caught_up: u64,
    },
    /// A transport-level peer link was declared dead — the socket
    /// fail-stop detector's verdict (EOF, read-timeout, dial failure),
    /// which the supervisor maps onto rank-lost / replica-dead handling.
    TransportDown {
        /// Wire name of the peer node (`cn3`, `el0`, `cs0`, ...).
        peer: String,
        /// Diagnostic cause string ("eof", "read-timeout", ...).
        cause: String,
    },
}

impl ProtoEvent {
    /// Coarse protocol phase this event belongs to — used by triage to
    /// name the phase of the first divergence.
    pub fn phase(&self) -> &'static str {
        match self {
            ProtoEvent::Send { .. } => "send",
            ProtoEvent::GateDefer { .. } | ProtoEvent::GateOpen { .. } => "gate",
            ProtoEvent::Deliver { .. } | ProtoEvent::DuplicateDropped { .. } => "deliver",
            ProtoEvent::ElShip { .. }
            | ProtoEvent::ElAck { .. }
            | ProtoEvent::ElReplicaAck { .. }
            | ProtoEvent::ElReplicaRevive { .. } => "event-log",
            ProtoEvent::CkptBegin { .. }
            | ProtoEvent::CkptCommit { .. }
            | ProtoEvent::CkptGc { .. } => "checkpoint",
            ProtoEvent::Restart1 { .. }
            | ProtoEvent::Restart2 { .. }
            | ProtoEvent::RecoveryBegin { .. } => "recovery",
            ProtoEvent::ReplayStep { .. } | ProtoEvent::ReplayDone { .. } => "replay",
            ProtoEvent::ChaosKill { .. } | ProtoEvent::ServiceKill { .. } => "chaos",
            ProtoEvent::Finish { .. } | ProtoEvent::RespawnScheduled { .. } => "lifecycle",
            ProtoEvent::Divergence { .. } => "divergence",
            ProtoEvent::TransportDown { .. } => "transport",
        }
    }

    /// Short kebab-case name of the event kind (Chrome-trace label).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoEvent::Send { .. } => "send",
            ProtoEvent::GateDefer { .. } => "gate-defer",
            ProtoEvent::GateOpen { .. } => "gate-open",
            ProtoEvent::Deliver { .. } => "deliver",
            ProtoEvent::DuplicateDropped { .. } => "dup-dropped",
            ProtoEvent::ElShip { .. } => "el-ship",
            ProtoEvent::ElAck { .. } => "el-ack",
            ProtoEvent::CkptBegin { .. } => "ckpt-begin",
            ProtoEvent::CkptCommit { .. } => "ckpt-commit",
            ProtoEvent::CkptGc { .. } => "ckpt-gc",
            ProtoEvent::Restart1 { .. } => "restart1",
            ProtoEvent::Restart2 { .. } => "restart2",
            ProtoEvent::RecoveryBegin { .. } => "recovery-begin",
            ProtoEvent::ReplayStep { .. } => "replay-step",
            ProtoEvent::ReplayDone { .. } => "replay-done",
            ProtoEvent::ChaosKill { .. } => "chaos-kill",
            ProtoEvent::ServiceKill { .. } => "service-kill",
            ProtoEvent::Finish { .. } => "finish",
            ProtoEvent::RespawnScheduled { .. } => "respawn",
            ProtoEvent::Divergence { .. } => "divergence",
            ProtoEvent::ElReplicaAck { .. } => "el-replica-ack",
            ProtoEvent::ElReplicaRevive { .. } => "el-replica-revive",
            ProtoEvent::TransportDown { .. } => "transport-down",
        }
    }

    /// Stable ordinal of the event kind (declaration order). Used as the
    /// final tie-break when merging timelines, so two records carrying
    /// the same timestamp, rank and logical clock still order
    /// deterministically — a prerequisite for byte-stable dumps of
    /// seeded (and virtual-time) runs.
    pub fn kind_index(&self) -> u8 {
        match self {
            ProtoEvent::Send { .. } => 0,
            ProtoEvent::GateDefer { .. } => 1,
            ProtoEvent::GateOpen { .. } => 2,
            ProtoEvent::Deliver { .. } => 3,
            ProtoEvent::DuplicateDropped { .. } => 4,
            ProtoEvent::ElShip { .. } => 5,
            ProtoEvent::ElAck { .. } => 6,
            ProtoEvent::CkptBegin { .. } => 7,
            ProtoEvent::CkptCommit { .. } => 8,
            ProtoEvent::CkptGc { .. } => 9,
            ProtoEvent::Restart1 { .. } => 10,
            ProtoEvent::Restart2 { .. } => 11,
            ProtoEvent::RecoveryBegin { .. } => 12,
            ProtoEvent::ReplayStep { .. } => 13,
            ProtoEvent::ReplayDone { .. } => 14,
            ProtoEvent::ChaosKill { .. } => 15,
            ProtoEvent::ServiceKill { .. } => 16,
            ProtoEvent::Finish { .. } => 17,
            ProtoEvent::RespawnScheduled { .. } => 18,
            ProtoEvent::Divergence { .. } => 19,
            ProtoEvent::ElReplicaAck { .. } => 20,
            ProtoEvent::ElReplicaRevive { .. } => 21,
            ProtoEvent::TransportDown { .. } => 22,
        }
    }

    /// `true` for events that mark a fault or detected anomaly — the
    /// candidates for "first divergence" in triage.
    pub fn is_anomaly(&self) -> bool {
        matches!(
            self,
            ProtoEvent::ChaosKill { .. }
                | ProtoEvent::ServiceKill { .. }
                | ProtoEvent::Divergence { .. }
        )
    }
}

/// One entry in a flight recorder: who, when (logical and physical),
/// and what.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Rank the record belongs to (`u32::MAX` for the dispatcher /
    /// harness pseudo-rank).
    pub rank: u32,
    /// The rank's logical clock at the time of the event (receiver
    /// clock for engine events; 0 where no clock applies).
    pub clock: u64,
    /// Monotonic nanoseconds since the deployment's recorder epoch.
    pub ts_ns: u64,
    /// The structured event.
    pub event: ProtoEvent,
}

/// Pseudo-rank used for records emitted by the dispatcher, the chaos
/// driver and harnesses rather than a computing rank.
pub const DISPATCHER_RANK: u32 = u32::MAX;

/// Generated test vocabulary, kept beside the schema so that adding a
/// variant or a field is an edit to this file alone: every test that
/// needs "one of each kind" walks [`next_kind`](arbitrary::next_kind)
/// instead of keeping its own list.
#[cfg(test)]
pub(crate) mod arbitrary {
    use super::*;
    use proptest::TestRng;

    /// Text that stresses a JSON string: quotes, backslashes, control
    /// characters, non-ASCII.
    pub fn text(rng: &mut TestRng) -> String {
        const PALETTE: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1b}', '\u{7f}', 'é',
            '日', '\u{2028}', '😀',
        ];
        (0..rng.below(9))
            .map(|_| PALETTE[rng.below(PALETTE.len() as u64) as usize])
            .collect()
    }

    /// An event of the kind declared after `prev`'s — the first kind
    /// for `None`, `None` after the last — with fields drawn from
    /// `rng`. The `match` has no wildcard arm, so a new variant does not
    /// compile until it is linked into the chain here.
    pub fn next_kind(prev: Option<&ProtoEvent>, rng: &mut TestRng) -> Option<ProtoEvent> {
        use ProtoEvent::*;
        let mut n = || rng.next_u64();
        Some(match prev {
            None => Send {
                to: n() as u32,
                clock: n(),
                bytes: n(),
                disposition: [
                    SendDisposition::Wire,
                    SendDisposition::Gated,
                    SendDisposition::Suppressed,
                ][(n() % 3) as usize],
            },
            Some(Send { .. }) => GateDefer {
                to: n() as u32,
                clock: n(),
                queued: n(),
            },
            Some(GateDefer { .. }) => GateOpen {
                released: n(),
                waited_ns: n(),
            },
            Some(GateOpen { .. }) => Deliver {
                from: n() as u32,
                sender_clock: n(),
                receiver_clock: n(),
                replay: n() % 2 == 0,
            },
            Some(Deliver { .. }) => DuplicateDropped {
                from: n() as u32,
                sender_clock: n(),
            },
            Some(DuplicateDropped { .. }) => ElShip {
                events: n(),
                from_clock: n(),
                up_to: n(),
            },
            Some(ElShip { .. }) => ElAck {
                up_to: n(),
                batches_retired: n(),
                rtt_ns: n(),
            },
            Some(ElAck { .. }) => CkptBegin {
                seq: n(),
                bytes: n(),
            },
            Some(CkptBegin { .. }) => CkptCommit {
                seq: n(),
                store_ns: n(),
            },
            Some(CkptCommit { .. }) => CkptGc {
                peer: n() as u32,
                bytes_freed: n(),
            },
            Some(CkptGc { .. }) => Restart1 { rank: n() as u32 },
            Some(Restart1 { .. }) => Restart2 {
                peer: n() as u32,
                watermark: n(),
            },
            Some(Restart2 { .. }) => RecoveryBegin {
                restored_clock: n(),
            },
            Some(RecoveryBegin { .. }) => ReplayStep {
                from: n() as u32,
                sender_clock: n(),
                receiver_clock: n(),
            },
            Some(ReplayStep { .. }) => ReplayDone {
                replayed: n(),
                replay_ns: n(),
            },
            Some(ReplayDone { .. }) => ChaosKill {
                victim: n() as u32,
                rekill: n() % 2 == 0,
            },
            Some(ChaosKill { .. }) => ServiceKill { service: text(rng) },
            Some(ServiceKill { .. }) => Finish { clock: n() },
            Some(Finish { .. }) => RespawnScheduled {
                rank: n() as u32,
                attempt: n(),
            },
            Some(RespawnScheduled { .. }) => Divergence { detail: text(rng) },
            Some(Divergence { .. }) => ElReplicaAck {
                shard: n() as u32,
                replica: n() as u32,
                up_to: n(),
            },
            Some(ElReplicaAck { .. }) => ElReplicaRevive {
                shard: n() as u32,
                replica: n() as u32,
                caught_up: n(),
            },
            Some(ElReplicaRevive { .. }) => TransportDown {
                peer: text(rng),
                cause: text(rng),
            },
            Some(TransportDown { .. }) => return None,
        })
    }

    /// One record of every event kind, in declaration order.
    pub fn one_of_each_kind(rng: &mut TestRng) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = Vec::new();
        while let Some(event) = next_kind(out.last().map(|r| &r.event), rng) {
            out.push(FlightRecord {
                rank: rng.next_u64() as u32,
                clock: rng.next_u64(),
                ts_ns: rng.next_u64(),
                event,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip_all_kinds() {
        let mut rng = proptest::TestRng::deterministic();
        let records = arbitrary::one_of_each_kind(&mut rng);
        for (i, rec) in records.iter().enumerate() {
            let enc = bincode::serialize(rec).unwrap();
            let dec: FlightRecord = bincode::deserialize(&enc).unwrap();
            assert_eq!(*rec, dec);
            assert!(!rec.event.kind().is_empty());
            assert!(!rec.event.phase().is_empty());
            // The chain walks the vocabulary in declaration order, so
            // `kind_index` is injective and gap-free over it.
            assert_eq!(rec.event.kind_index() as usize, i, "{:?}", rec.event);
        }
        let kinds: std::collections::BTreeSet<_> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.len(), records.len(), "kind() names are distinct");
    }
}
