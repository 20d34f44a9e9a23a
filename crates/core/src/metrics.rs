//! Instrumentation counters exposed by the protocol engines.
//!
//! These feed the checkpoint scheduler's status reports (§4.6.2), the
//! benchmark harness, and the test suite's invariant checks (e.g. "no
//! payload leaves while the gate is closed" is validated by comparing
//! `gate_deferred_sends` against observed wire traffic).

use serde::{Deserialize, Serialize};

/// Monotonic counters describing one engine's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Application messages emitted (clock-ticked sends).
    pub msgs_sent: u64,
    /// Payload bytes emitted.
    pub bytes_sent: u64,
    /// Messages delivered to the application.
    pub msgs_delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Reception events scheduled for logging on the EL.
    pub events_logged: u64,
    /// Transmissions that had to queue behind the pessimism gate.
    pub gate_deferred_sends: u64,
    /// Total nanoseconds deferred transmissions spent queued behind the
    /// gate (summed per released send; the distribution lives in the
    /// engine's `ProtocolTimings`).
    pub gate_wait_ns: u64,
    /// Incoming messages dropped as duplicates.
    pub duplicates_dropped: u64,
    /// Old messages re-sent from the sender log during a peer's recovery.
    pub retransmissions: u64,
    /// Messages not transmitted when sent: the peer provably received
    /// them (`h <= HS` during re-execution), or it had not answered this
    /// incarnation's `RESTART1` yet (its answer re-sends what it lacks).
    pub transmissions_suppressed: u64,
    /// Deliveries performed in replay mode.
    pub replayed_deliveries: u64,
    /// Unsuccessful probes answered (normal mode).
    pub failed_probes: u64,
    /// Bytes reclaimed from the sender log by garbage collection.
    pub gc_bytes_freed: u64,
    /// Checkpoints completed.
    pub checkpoints_taken: u64,
    /// Event batches shipped to the event logger.
    pub el_batches_sent: u64,
    /// Events carried by those batches (equals `events_logged` once every
    /// pending event has been flushed).
    pub el_events_batched: u64,
    /// Acknowledgements received from the event logger. The EL
    /// coalesces high-watermark acks, so this can be *smaller* than
    /// `el_batches_sent`; use `el_batches_acked` for ship/ack balance.
    pub el_acks_received: u64,
    /// Shipped batches retired by an EL ack covering their highest
    /// receiver clock. At quiescence (all batches acked, none lost to a
    /// crash) this equals `el_batches_sent`.
    pub el_batches_acked: u64,
    /// Total nanoseconds of ship→ack round-trip, summed per retired
    /// batch (the distribution lives in the engine's `ProtocolTimings`).
    pub el_ack_rtt_ns: u64,
    /// Largest single batch shipped to the event logger.
    pub el_max_batch_events: u64,
    /// Recoveries begun by this incarnation (`begin_recovery` calls:
    /// ROLLBACK + DownloadEL entry points).
    pub recoveries: u64,
    /// Replays driven to completion (the `ReplayComplete` transitions,
    /// including trivially-empty replays of from-scratch restarts).
    pub replays_completed: u64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let m = Metrics::new();
        assert_eq!(m.msgs_sent, 0);
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = Metrics::new();
        m.msgs_sent = 7;
        m.gc_bytes_freed = 1024;
        let enc = bincode::serialize(&m).unwrap();
        assert_eq!(m, bincode::deserialize::<Metrics>(&enc).unwrap());
    }
}
