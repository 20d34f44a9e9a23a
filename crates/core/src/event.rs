//! Reception events — the causality information logged on the reliable
//! Event Logger.
//!
//! §4.5: "The dependency information is composed of four fields associated
//! to every received message: (sender's identity; sender's logical clock at
//! emission; receiver's logical clock at delivery; number of probes since
//! last delivery)."

use crate::ids::{MsgId, Rank};
use serde::{Deserialize, Serialize};

/// The 4-field dependency record of one message delivery.
///
/// The pair `(sender, sender_clock)` identifies *which* message was
/// delivered; `receiver_clock` fixes *when* in the receiver's history it was
/// delivered (and therefore the total replay order); `probes` records how
/// many unsuccessful `PInprobe` calls the receiver made since its previous
/// delivery, so the exact same control flow can be replayed (§4.5: "the
/// number of probes made since the last reception influences the next
/// reception").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReceptionEvent {
    /// Identity of the sending process.
    pub sender: Rank,
    /// The sender's logical clock at emission.
    pub sender_clock: u64,
    /// The receiver's logical clock at delivery (unique, strictly
    /// increasing across the receiver's events).
    pub receiver_clock: u64,
    /// Number of unsuccessful probes since the last delivery.
    pub probes: u32,
}

impl ReceptionEvent {
    /// The identifier of the delivered message.
    #[inline]
    pub fn msg_id(&self) -> MsgId {
        MsgId::new(self.sender, self.sender_clock)
    }

    /// Approximate size of the record on the wire. The paper quotes "a small
    /// message (in the order of 20 bytes) to the Event Logger"; our encoding
    /// matches that magnitude and the simulator uses this constant.
    pub const WIRE_BYTES: usize = 20;
}

/// How many reception events a batch holds before the engine ships it.
///
/// Lazy batching is safe under the pessimism invariant (§4.1): the
/// WAITLOGGED gate closes at *delivery*, so no payload can leave while any
/// delivered reception's event is unacknowledged — regardless of when the
/// event batch is actually transmitted. A reception with no subsequent
/// send has no externally visible effect, so deferring its event costs
/// nothing; what batching buys is one EL round-trip amortized over many
/// deliveries instead of one per delivery. Besides this bound, a batch
/// ships when a data send queues behind the gate, and at a checkpoint,
/// a replay completion or a host-driven idle flush. A bound of 1 ships
/// every event as soon as it is produced, the eager behavior of the
/// paper's prototype.
pub const DEFAULT_BATCH_MAX_EVENTS: usize = 32;

/// A batch of events, as shipped from a daemon to its event logger.
/// Events in a batch are ordered by `receiver_clock`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventBatch {
    /// The rank whose receptions these are.
    pub owner: Rank,
    /// Events in receiver-clock order.
    pub events: Vec<ReceptionEvent>,
}

impl EventBatch {
    /// True if `events` is sorted strictly by receiver clock — the invariant
    /// every producer must uphold and the event logger asserts.
    pub fn is_ordered(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| w[0].receiver_clock < w[1].receiver_clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: u32, sc: u64, rc: u64, p: u32) -> ReceptionEvent {
        ReceptionEvent {
            sender: Rank(s),
            sender_clock: sc,
            receiver_clock: rc,
            probes: p,
        }
    }

    #[test]
    fn msg_id_extraction() {
        let e = ev(3, 17, 40, 2);
        assert_eq!(e.msg_id(), MsgId::new(Rank(3), 17));
    }

    #[test]
    fn wire_size_is_about_twenty_bytes() {
        let e = ev(3, 17, 40, 2);
        let enc = bincode::serialize(&e).unwrap();
        // 4 (rank) + 8 + 8 + 4 = 24 bytes with bincode's fixed-int encoding;
        // the paper says "in the order of 20 bytes".
        assert!(
            enc.len() <= 24,
            "encoded event unexpectedly large: {}",
            enc.len()
        );
        const { assert!(ReceptionEvent::WIRE_BYTES >= 16 && ReceptionEvent::WIRE_BYTES <= 24) };
    }

    #[test]
    fn batch_ordering_invariant() {
        let good = EventBatch {
            owner: Rank(0),
            events: vec![ev(1, 1, 1, 0), ev(2, 1, 2, 0)],
        };
        assert!(good.is_ordered());
        let bad = EventBatch {
            owner: Rank(0),
            events: vec![ev(1, 1, 2, 0), ev(2, 1, 2, 0)],
        };
        assert!(!bad.is_ordered());
        let empty = EventBatch {
            owner: Rank(0),
            events: vec![],
        };
        assert!(empty.is_ordered());
    }

    #[test]
    fn serde_roundtrip() {
        let b = EventBatch {
            owner: Rank(4),
            events: vec![ev(1, 9, 10, 3)],
        };
        let enc = bincode::serialize(&b).unwrap();
        let dec: EventBatch = bincode::deserialize(&enc).unwrap();
        assert_eq!(b, dec);
    }
}
