//! The online invariant monitor: a streaming checker of the protocol's
//! core safety properties, fed live records from every rank's flight
//! recorder (via [`RecordSink`]) or replayed over a dumped timeline.
//!
//! Three invariant families are checked, per rank and per incarnation:
//!
//! 1. **Pessimism gate** (§4.1): no payload leaves on the wire — and no
//!    `GateOpen` fires — while reception events of already-performed
//!    deliveries are still unacknowledged by the event logger.
//! 2. **Watermark monotonicity**: sender clocks (`HS`) and receiver
//!    clocks strictly increase within an incarnation, and per-sender
//!    `HR` watermarks never regress on a fresh delivery.
//! 3. **Exactly-once delivery**: no `(sender, sender_clock)` pair is
//!    handed to the application twice within one incarnation.
//!
//! The monitor halts at the *first* violation (the AADEBUG'03 argument:
//! the first deviating process localizes the fault; everything after it
//! is noise) and keeps a structured [`Violation`] report.

use crate::event::{FlightRecord, ProtoEvent, SendDisposition, DISPATCHER_RANK};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Consumers of live flight records. [`Recorder`](crate::Recorder)
/// invokes the sink inline on the recording thread's slow path, so an
/// implementation must be cheap and must never call back into a
/// recorder.
pub trait RecordSink: Send + Sync {
    /// Observe one record as it is written.
    fn observe(&self, rec: &FlightRecord);
}

/// A first-violation report: which invariant broke, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rank whose record violated the invariant.
    pub rank: u32,
    /// Logical clock of the violating record.
    pub clock: u64,
    /// Timestamp of the violating record.
    pub ts_ns: u64,
    /// Short stable name of the invariant ("pessimism-gate", ...).
    pub invariant: &'static str,
    /// Human-readable account of the violation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant `{}` violated at rank {} clock {} t={}ns: {}",
            self.invariant, self.rank, self.clock, self.ts_ns, self.detail
        )
    }
}

/// Per-rank, per-incarnation streaming state.
#[derive(Default)]
struct RankState {
    /// Incarnation counter (bumped on `Restart1`/`RecoveryBegin`).
    incarnation: u64,
    /// Receiver clocks of performed deliveries whose reception events
    /// the event logger has not yet acknowledged.
    unacked: BTreeSet<u64>,
    /// `(sender, sender_clock)` pairs delivered this incarnation.
    delivered: HashSet<(u32, u64)>,
    /// Highest send clock stamped this incarnation.
    last_send_clock: Option<u64>,
    /// Highest receiver clock assigned this incarnation.
    last_recv_clock: Option<u64>,
    /// Per-sender `HR` watermark rebuilt this incarnation.
    hr: HashMap<u32, u64>,
    /// Per-replica durable watermark from `ElReplicaAck` records, keyed
    /// `(shard, replica)`. EL ledgers outlive rank incarnations *and*
    /// replica revivals (a revived replica absorbs its live peers before
    /// re-acking), so these never regress — not cleared by `restart`.
    replica_acked: HashMap<(u32, u32), u64>,
}

impl RankState {
    /// Reset for a fresh incarnation starting at `restored_clock`.
    fn restart(&mut self, restored_clock: Option<u64>) {
        self.incarnation += 1;
        self.unacked.clear();
        self.delivered.clear();
        self.last_send_clock = None;
        self.last_recv_clock = restored_clock;
        self.hr.clear();
    }
}

#[derive(Default)]
struct MonitorState {
    ranks: BTreeMap<u32, RankState>,
    violation: Option<Violation>,
    records_seen: u64,
}

/// The streaming invariant checker. Thread-safe: wrap it in an `Arc`
/// and hand it to [`RecorderHub::set_sink`](crate::RecorderHub::set_sink)
/// for live checking, or feed it a dumped timeline with
/// [`observe_all`](InvariantMonitor::observe_all) offline.
#[derive(Default)]
pub struct InvariantMonitor {
    state: Mutex<MonitorState>,
}

impl std::fmt::Debug for InvariantMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("InvariantMonitor")
            .field("records_seen", &st.records_seen)
            .field("violation", &st.violation)
            .finish()
    }
}

impl InvariantMonitor {
    /// A fresh monitor with no observed history.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Replay a full (merged, timestamp-ordered) timeline through the
    /// checker. Per-rank streams keep their relative order in a merged
    /// timeline, which is all the per-rank state machines need.
    pub fn observe_all(&self, records: &[FlightRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// The first violation seen, if any.
    pub fn violation(&self) -> Option<Violation> {
        self.state.lock().violation.clone()
    }

    /// Records checked so far (violating record included; records after
    /// the first violation are not counted — the monitor has halted).
    pub fn records_seen(&self) -> u64 {
        self.state.lock().records_seen
    }

    fn check(&self, rec: &FlightRecord) {
        let mut st = self.state.lock();
        if st.violation.is_some() {
            return; // halted: first violation only
        }
        st.records_seen += 1;
        if rec.rank == DISPATCHER_RANK {
            return; // dispatcher/chaos bookkeeping, not protocol state
        }
        let rs = st.ranks.entry(rec.rank).or_default();
        if let Some((invariant, detail)) = Self::step(rs, &rec.event) {
            st.violation = Some(Violation {
                rank: rec.rank,
                clock: rec.clock,
                ts_ns: rec.ts_ns,
                invariant,
                detail,
            });
        }
    }

    /// Advance one rank's state machine; `Some` names the violated
    /// invariant.
    fn step(rs: &mut RankState, event: &ProtoEvent) -> Option<(&'static str, String)> {
        match event {
            ProtoEvent::Send {
                clock, disposition, ..
            } => {
                if *disposition == SendDisposition::Wire {
                    if let Some(&owed) = rs.unacked.iter().next() {
                        let n = rs.unacked.len();
                        return Some((
                            "pessimism-gate",
                            format!(
                                "payload transmitted while {n} reception event(s) \
                                 unacked (oldest receiver clock {owed})"
                            ),
                        ));
                    }
                }
                if let Some(last) = rs.last_send_clock {
                    if *clock <= last {
                        return Some((
                            "hs-monotonic",
                            format!("send clock {clock} not above previous {last}"),
                        ));
                    }
                }
                rs.last_send_clock = Some(*clock);
            }
            ProtoEvent::GateOpen { .. } => {
                if let Some(&owed) = rs.unacked.iter().next() {
                    let n = rs.unacked.len();
                    return Some((
                        "pessimism-gate",
                        format!(
                            "gate opened while {n} reception event(s) unacked \
                             (oldest receiver clock {owed})"
                        ),
                    ));
                }
            }
            ProtoEvent::Deliver {
                from,
                sender_clock,
                receiver_clock,
                ..
            } => {
                if !rs.delivered.insert((*from, *sender_clock)) {
                    return Some((
                        "exactly-once",
                        format!("({from}, {sender_clock}) delivered twice in one incarnation"),
                    ));
                }
                let hr = rs.hr.entry(*from).or_insert(0);
                if *sender_clock <= *hr && *hr > 0 {
                    return Some((
                        "hr-monotonic",
                        format!(
                            "fresh delivery from {from} at sender clock {sender_clock} \
                             at or below HR watermark {hr}"
                        ),
                    ));
                }
                *hr = *sender_clock;
                if let Some(last) = rs.last_recv_clock {
                    if *receiver_clock <= last {
                        return Some((
                            "receiver-clock-monotonic",
                            format!("receiver clock {receiver_clock} not above previous {last}"),
                        ));
                    }
                }
                rs.last_recv_clock = Some(*receiver_clock);
                rs.unacked.insert(*receiver_clock);
            }
            ProtoEvent::ReplayStep {
                from,
                sender_clock,
                receiver_clock,
            } => {
                // Replayed deliveries consume events already durable at
                // the EL — they owe no ack — but exactly-once and clock
                // monotonicity hold for them too.
                if !rs.delivered.insert((*from, *sender_clock)) {
                    return Some((
                        "exactly-once",
                        format!("({from}, {sender_clock}) replayed twice in one incarnation"),
                    ));
                }
                let hr = rs.hr.entry(*from).or_insert(0);
                *hr = (*hr).max(*sender_clock);
                if let Some(last) = rs.last_recv_clock {
                    if *receiver_clock <= last {
                        return Some((
                            "receiver-clock-monotonic",
                            format!(
                                "replayed receiver clock {receiver_clock} not above \
                                 previous {last}"
                            ),
                        ));
                    }
                }
                rs.last_recv_clock = Some(*receiver_clock);
            }
            ProtoEvent::ElAck { up_to, .. } => {
                // Coalesced high-watermark ack: everything at or below
                // `up_to` is durable at the EL (the quorum of replicas,
                // when logging is replicated).
                let still_owed = rs.unacked.split_off(&(up_to.saturating_add(1)));
                rs.unacked = still_owed;
            }
            ProtoEvent::ElReplicaAck {
                shard,
                replica,
                up_to,
            } => {
                // Per-replica durable watermarks only grow: the ledger
                // survives rank restarts, and revival absorbs every live
                // peer before the replica speaks again. A regression
                // means a replica came back with holes below its ack.
                let slot = rs.replica_acked.entry((*shard, *replica)).or_insert(0);
                if *up_to < *slot {
                    return Some((
                        "replica-ack-monotonic",
                        format!(
                            "replica ({shard}, {replica}) acked {up_to} below                              its previous watermark {slot}"
                        ),
                    ));
                }
                *slot = *up_to;
            }
            ProtoEvent::Restart1 { .. } => {
                rs.restart(None);
            }
            ProtoEvent::RecoveryBegin { restored_clock } => {
                // The engine records `RecoveryBegin` then `Restart1` at
                // every incarnation start; either order leaves a clean
                // slate. A restored clock on an untouched slate seeds
                // the receiver-clock floor.
                if rs.last_recv_clock.is_some() || !rs.unacked.is_empty() {
                    rs.restart(Some(*restored_clock));
                } else {
                    rs.last_recv_clock = Some(*restored_clock);
                }
            }
            _ => {}
        }
        None
    }
}

impl RecordSink for InvariantMonitor {
    fn observe(&self, rec: &FlightRecord) {
        self.check(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    fn deliver(from: u32, sc: u64, rc: u64) -> ProtoEvent {
        ProtoEvent::Deliver {
            from,
            sender_clock: sc,
            receiver_clock: rc,
            replay: false,
        }
    }

    fn wire_send(to: u32, clock: u64) -> ProtoEvent {
        ProtoEvent::Send {
            to,
            clock,
            bytes: 8,
            disposition: SendDisposition::Wire,
        }
    }

    fn ack(up_to: u64) -> ProtoEvent {
        ProtoEvent::ElAck {
            up_to,
            batches_retired: 1,
            rtt_ns: 10,
        }
    }

    #[test]
    fn clean_stream_passes() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 1, 1)),
            rec(
                1,
                1,
                20,
                ProtoEvent::ElShip {
                    events: 1,
                    from_clock: 1,
                    up_to: 1,
                },
            ),
            rec(1, 1, 30, ack(1)),
            rec(
                1,
                1,
                35,
                ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 5,
                },
            ),
            rec(1, 2, 40, wire_send(0, 2)),
        ]);
        assert_eq!(m.violation(), None);
        assert_eq!(m.records_seen(), 5);
    }

    #[test]
    fn wire_send_with_unacked_delivery_is_gate_violation() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 1, 1)),
            rec(1, 2, 20, wire_send(0, 2)),
        ]);
        let v = m.violation().expect("gate violation");
        assert_eq!(v.invariant, "pessimism-gate");
        assert_eq!(v.rank, 1);
    }

    #[test]
    fn gated_and_suppressed_sends_do_not_trip_the_gate() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 1, 1)),
            rec(
                1,
                2,
                20,
                ProtoEvent::Send {
                    to: 0,
                    clock: 2,
                    bytes: 8,
                    disposition: SendDisposition::Gated,
                },
            ),
            rec(
                1,
                3,
                30,
                ProtoEvent::Send {
                    to: 0,
                    clock: 3,
                    bytes: 8,
                    disposition: SendDisposition::Suppressed,
                },
            ),
        ]);
        assert_eq!(m.violation(), None);
    }

    #[test]
    fn double_delivery_is_exactly_once_violation() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 7, 1)),
            rec(1, 1, 15, ack(1)),
            rec(1, 2, 20, deliver(0, 7, 2)),
        ]);
        let v = m.violation().expect("exactly-once violation");
        // HR watermark trips first — the duplicate key necessarily sits
        // at or below HR — either name localizes the same fault.
        assert!(v.invariant == "exactly-once" || v.invariant == "hr-monotonic");
    }

    #[test]
    fn receiver_clock_regression_detected() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 5, 10, deliver(0, 1, 5)),
            rec(1, 5, 15, ack(5)),
            rec(1, 3, 20, deliver(2, 1, 3)),
        ]);
        let v = m.violation().expect("clock regression");
        assert_eq!(v.invariant, "receiver-clock-monotonic");
    }

    #[test]
    fn restart_resets_incarnation_state() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 4, 1)),
            // Crash before the ack; new incarnation replays the same key.
            rec(1, 0, 50, ProtoEvent::Restart1 { rank: 1 }),
            rec(1, 0, 55, ProtoEvent::RecoveryBegin { restored_clock: 0 }),
            rec(
                1,
                1,
                60,
                ProtoEvent::ReplayStep {
                    from: 0,
                    sender_clock: 4,
                    receiver_clock: 1,
                },
            ),
            // Replay owes no ack: a wire send right after is legal.
            rec(1, 2, 70, wire_send(0, 2)),
        ]);
        assert_eq!(m.violation(), None);
    }

    #[test]
    fn monitor_halts_at_first_violation() {
        let m = InvariantMonitor::new();
        m.observe_all(&[
            rec(1, 1, 10, deliver(0, 1, 1)),
            rec(1, 2, 20, wire_send(0, 2)),  // violation #1
            rec(1, 3, 30, deliver(0, 1, 1)), // would be violation #2
        ]);
        let v = m.violation().expect("violation");
        assert_eq!(v.invariant, "pessimism-gate");
        assert_eq!(v.ts_ns, 20);
        assert_eq!(m.records_seen(), 2);
    }

    #[test]
    fn replica_ack_watermark_regression_is_flagged() {
        let m = InvariantMonitor::new();
        let ack = |replica, up_to| ProtoEvent::ElReplicaAck {
            shard: 0,
            replica,
            up_to,
        };
        // Per-replica watermarks grow independently; equal re-acks are
        // fine (coalesced announcements), regression is not.
        m.observe_all(&[
            rec(1, 5, 10, ack(0, 5)),
            rec(1, 9, 20, ack(1, 9)),
            rec(1, 9, 30, ack(0, 5)),
            rec(1, 12, 40, ack(0, 12)),
        ]);
        assert_eq!(m.violation(), None);
        m.observe_all(&[rec(1, 3, 50, ack(0, 3))]);
        let v = m.violation().expect("regression must be flagged");
        assert_eq!(v.invariant, "replica-ack-monotonic");
        assert_eq!(v.ts_ns, 50);
    }

    #[test]
    fn replica_watermarks_survive_rank_restart() {
        // The ledger outlives the incarnation: a restart must not let a
        // stale-looking (but legitimate) re-ack trip the rule, nor reset
        // the floor under a real regression.
        let m = InvariantMonitor::new();
        let ack = |up_to| ProtoEvent::ElReplicaAck {
            shard: 0,
            replica: 0,
            up_to,
        };
        m.observe_all(&[
            rec(2, 8, 10, ack(8)),
            rec(2, 0, 20, ProtoEvent::Restart1 { rank: 2 }),
            rec(2, 0, 30, ProtoEvent::RecoveryBegin { restored_clock: 4 }),
            rec(2, 8, 40, ack(8)),
        ]);
        assert_eq!(m.violation(), None, "re-acking the same watermark is fine");
        m.observe_all(&[rec(2, 2, 50, ack(2))]);
        assert!(m.violation().is_some(), "floor survives the restart");
    }

    #[test]
    fn dispatcher_records_are_ignored() {
        let m = InvariantMonitor::new();
        m.observe_all(&[rec(
            DISPATCHER_RANK,
            0,
            5,
            ProtoEvent::ChaosKill {
                victim: 1,
                rekill: false,
            },
        )]);
        assert_eq!(m.violation(), None);
    }
}
