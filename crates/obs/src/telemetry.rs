//! The child-side half of the live telemetry plane: a bounded,
//! drop-counted staging buffer that a multi-process child attaches as a
//! [`RecordSink`] next to its durable
//! [`JsonlStreamSink`](crate::JsonlStreamSink).
//!
//! The recorder fires sinks inline on the recording thread, so the
//! buffer does the absolute minimum there: one short mutex hold to
//! push the record (or bump the drop counter when full — the protocol
//! hot path is never blocked on telemetry, mirroring the ring buffer's
//! own overwrite discipline) and to fold any measured interval into the
//! running [`ProtocolTimings`] ([`ProtocolTimings::observe`]). A shipper
//! loop elsewhere in the child periodically
//! [`drain`](TelemetrySink::drain)s the buffer and sends the batch to
//! the supervising parent, together with a
//! [`TelemetrySnapshot`] of the histograms and progress counters.
//! Drops are *reported*, never hidden: the snapshot carries the
//! cumulative drop count so the parent can surface a truncated live
//! stream exactly like a wrapped ring.

use crate::event::{FlightRecord, ProtoEvent};
use crate::hist::LogHistogram;
use crate::monitor::RecordSink;
use crate::timings::ProtocolTimings;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Cumulative health snapshot shipped alongside each telemetry batch.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Records offered to the sink since process start (shipped plus
    /// dropped).
    pub records_total: u64,
    /// Records dropped because the staging buffer was full when they
    /// arrived. Non-zero means the parent's live stream has holes (the
    /// durable JSONL stream does not).
    pub dropped_total: u64,
    /// Protocol-interval histograms folded from the event stream
    /// (gate-wait, EL ack RTT, checkpoint store, replay).
    pub timings: ProtocolTimings,
    /// First-replica-ack → quorum-ack wait: how long quorum assembly
    /// trailed the fastest replica. Empty when the EL is unreplicated.
    pub quorum_wait: LogHistogram,
    /// Unique events held, for event-logger children shipping their
    /// ledger counter (zero on rank children — their progress lives in
    /// `records_total` and `timings`).
    pub el_events: u64,
}

struct Inner {
    buf: VecDeque<FlightRecord>,
    records_total: u64,
    dropped_total: u64,
    timings: ProtocolTimings,
    quorum_wait: LogHistogram,
    /// Timestamp of the first `ElReplicaAck` since the last quorum-level
    /// `ElAck` — the open edge of the current quorum-assembly window.
    quorum_open: Option<u64>,
}

/// Bounded staging buffer between a child's recorder and its telemetry
/// shipper. See the module docs for the discipline.
pub struct TelemetrySink {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl TelemetrySink {
    /// A sink staging at most `capacity` records between drains.
    pub fn new(capacity: usize) -> Self {
        TelemetrySink {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                buf: VecDeque::new(),
                records_total: 0,
                dropped_total: 0,
                timings: ProtocolTimings::new(),
                quorum_wait: LogHistogram::new(),
                quorum_open: None,
            }),
        }
    }

    /// Take up to `max` staged records, oldest first.
    pub fn drain(&self, max: usize) -> Vec<FlightRecord> {
        let mut inner = self.inner.lock();
        let n = inner.buf.len().min(max);
        inner.buf.drain(..n).collect()
    }

    /// Records currently staged.
    pub fn pending(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Current cumulative snapshot (histograms and counters).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock();
        TelemetrySnapshot {
            records_total: inner.records_total,
            dropped_total: inner.dropped_total,
            timings: inner.timings.clone(),
            quorum_wait: inner.quorum_wait.clone(),
            el_events: 0,
        }
    }
}

impl RecordSink for TelemetrySink {
    fn observe(&self, rec: &FlightRecord) {
        let mut inner = self.inner.lock();
        inner.records_total += 1;
        inner.timings.observe(&rec.event);
        match &rec.event {
            ProtoEvent::ElAck { .. } => {
                if let Some(open) = inner.quorum_open.take() {
                    inner.quorum_wait.record(rec.ts_ns.saturating_sub(open));
                }
            }
            ProtoEvent::ElReplicaAck { .. } if inner.quorum_open.is_none() => {
                inner.quorum_open = Some(rec.ts_ns);
            }
            _ => {}
        }
        if inner.buf.len() >= self.capacity {
            inner.dropped_total += 1;
        } else {
            inner.buf.push_back(rec.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SendDisposition;

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    #[test]
    fn drains_in_order_and_counts_drops_when_full() {
        let sink = TelemetrySink::new(2);
        for i in 0..5u64 {
            sink.observe(&rec(
                0,
                i,
                i * 10,
                ProtoEvent::Send {
                    to: 1,
                    clock: i,
                    bytes: 8,
                    disposition: SendDisposition::Wire,
                },
            ));
        }
        assert_eq!(sink.pending(), 2);
        let snap = sink.snapshot();
        assert_eq!(snap.records_total, 5);
        assert_eq!(snap.dropped_total, 3);
        let batch = sink.drain(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].clock, 0);
        assert_eq!(batch[1].clock, 1);
        assert_eq!(sink.pending(), 0);
        // Newly staged records flow again after the drain.
        sink.observe(&rec(0, 9, 90, ProtoEvent::Finish { clock: 9 }));
        assert_eq!(sink.drain(10).len(), 1);
    }

    #[test]
    fn folds_interval_histograms_and_quorum_wait() {
        let sink = TelemetrySink::new(64);
        sink.observe(&rec(
            0,
            1,
            100,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: 4000,
            },
        ));
        sink.observe(&rec(
            0,
            1,
            200,
            ProtoEvent::ElReplicaAck {
                shard: 0,
                replica: 0,
                up_to: 1,
            },
        ));
        sink.observe(&rec(
            0,
            1,
            260,
            ProtoEvent::ElReplicaAck {
                shard: 0,
                replica: 1,
                up_to: 1,
            },
        ));
        sink.observe(&rec(
            0,
            1,
            300,
            ProtoEvent::ElAck {
                up_to: 1,
                batches_retired: 1,
                rtt_ns: 150,
            },
        ));
        sink.observe(&rec(
            0,
            2,
            400,
            ProtoEvent::CkptCommit {
                seq: 1,
                store_ns: 900,
            },
        ));
        sink.observe(&rec(
            0,
            3,
            500,
            ProtoEvent::ReplayDone {
                replayed: 2,
                replay_ns: 7_000,
            },
        ));
        let snap = sink.snapshot();
        let s = snap.timings.summary();
        assert_eq!(s.gate_wait.count, 1);
        assert_eq!(s.gate_wait.sum, 4000);
        assert_eq!(s.el_ack_rtt.count, 1);
        assert_eq!(s.ckpt_store.count, 1);
        assert_eq!(s.replay.count, 1);
        // Quorum window opened at the FIRST replica ack (ts 200) and
        // closed at the quorum ack (ts 300).
        assert_eq!(snap.quorum_wait.count(), 1);
        assert_eq!(snap.quorum_wait.sum(), 100);
    }

    #[test]
    fn snapshot_roundtrips_through_bincode() {
        let sink = TelemetrySink::new(8);
        sink.observe(&rec(
            2,
            1,
            50,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: 77,
            },
        ));
        let snap = sink.snapshot();
        let enc = bincode::serialize(&snap).unwrap();
        let dec: TelemetrySnapshot = bincode::deserialize(&enc).unwrap();
        assert_eq!(snap, dec);
    }
}
