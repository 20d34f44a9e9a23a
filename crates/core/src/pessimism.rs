//! The WAITLOGGED gate — what makes the protocol *pessimistic*.
//!
//! §4.1: "the process p is not allowed to send a message (and thus to have
//! an effect on the system) before being ensured that the message is
//! correctly logged". Concretely (§4.5): "the communication daemon does not
//! send messages before the event logger has acknowledged the reception of
//! the preceding reception events."
//!
//! [`PessimismGate`] tracks the highest reception clock scheduled for
//! logging and the highest clock acknowledged by the event logger. Outgoing
//! transmissions queue behind the gate whenever `acked < scheduled`.

use serde::{Deserialize, Serialize};

/// Tracks outstanding (logged-but-unacked) reception events.
///
/// Clock values are the receiver clocks of logged events, which are
/// strictly increasing, so a single pair of watermarks suffices.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PessimismGate {
    /// Highest receiver clock handed to the EL client for logging.
    scheduled: u64,
    /// Highest receiver clock acknowledged durable by the EL.
    acked: u64,
}

impl PessimismGate {
    /// A gate with nothing outstanding (open).
    pub fn new() -> Self {
        Self::default()
    }

    /// An event at `receiver_clock` was scheduled for logging (`LOG()`).
    pub fn on_scheduled(&mut self, receiver_clock: u64) {
        debug_assert!(
            receiver_clock > self.scheduled,
            "reception clocks must be scheduled in increasing order \
             ({} after {})",
            receiver_clock,
            self.scheduled
        );
        self.scheduled = receiver_clock;
    }

    /// The EL acknowledged durability of all events up to `up_to`.
    /// Returns `true` if the gate transitioned from closed to open.
    pub fn on_ack(&mut self, up_to: u64) -> bool {
        let was_closed = !self.is_open();
        if up_to > self.acked {
            self.acked = up_to;
        }
        was_closed && self.is_open()
    }

    /// `WAITLOGGED()` has returned: every scheduled log is durable.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.acked >= self.scheduled
    }

    /// Number of clock steps still awaiting acknowledgement (diagnostic).
    pub fn outstanding(&self) -> u64 {
        self.scheduled.saturating_sub(self.acked)
    }

    /// Highest acked clock.
    pub fn acked_clock(&self) -> u64 {
        self.acked
    }

    /// Reset after a rollback: the restored state has no outstanding logs
    /// (everything it knew of was either durable — it will be replayed — or
    /// forgotten with the crash).
    pub fn reset(&mut self) {
        self.scheduled = 0;
        self.acked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_open() {
        assert!(PessimismGate::new().is_open());
    }

    #[test]
    fn closes_on_schedule_opens_on_ack() {
        let mut g = PessimismGate::new();
        g.on_scheduled(3);
        assert!(!g.is_open());
        assert_eq!(g.outstanding(), 3);
        assert!(!g.on_ack(2)); // partial ack: still closed
        assert!(!g.is_open());
        assert!(g.on_ack(3)); // transition closed -> open reported
        assert!(g.is_open());
        assert!(!g.on_ack(3)); // idempotent, no transition
    }

    #[test]
    fn multiple_scheduled_before_ack() {
        let mut g = PessimismGate::new();
        g.on_scheduled(1);
        g.on_scheduled(2);
        g.on_scheduled(5);
        assert!(!g.on_ack(4));
        assert!(g.on_ack(5));
    }

    #[test]
    fn stale_acks_ignored() {
        let mut g = PessimismGate::new();
        g.on_scheduled(10);
        g.on_ack(10);
        g.on_ack(4); // stale
        assert_eq!(g.acked_clock(), 10);
        assert!(g.is_open());
    }

    // The check is a `debug_assert!`: there is nothing to test without it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn schedule_must_increase() {
        let mut g = PessimismGate::new();
        g.on_scheduled(5);
        g.on_scheduled(5);
    }

    #[test]
    fn reset_reopens() {
        let mut g = PessimismGate::new();
        g.on_scheduled(9);
        g.reset();
        assert!(g.is_open());
        assert_eq!(g.outstanding(), 0);
    }
}
