//! The re-execution plan: forcing logged receptions back in their original
//! order (Fig. 2 of the paper, phases A–C).
//!
//! After a rollback, the daemon downloads its reception events from the
//! event logger (phase A) and asks the peers to re-send old messages
//! (phase B). [`ReplayPlan`] then decides, for every incoming message and
//! every application probe/receive, what the original execution did
//! (phase C): logged receptions are delivered in logged order, duplicates
//! are discarded, unlogged ("future") arrivals are parked until the replay
//! completes, and unsuccessful probe counts are reproduced exactly.

use crate::event::ReceptionEvent;
use crate::ids::MsgId;
use crate::payload::Payload;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// How an incoming message relates to the replay plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Offer {
    /// The message is one of the logged receptions still to be replayed;
    /// it has been stored and will be delivered at its logged position.
    Stored,
    /// The message is not part of the logged history: it was in transit or
    /// re-sent beyond the crash point. It must be parked and delivered
    /// after the replay completes, as a fresh nondeterministic reception.
    Future,
}

/// Outcome of an application probe during replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// Answer the probe `false` (the original probe failed).
    ReplayNo,
    /// Answer the probe `true` (the original probe succeeded and the
    /// message to deliver is available).
    ReplayYes,
    /// The original probe succeeded but the re-sent message has not arrived
    /// yet: hold the answer until it does.
    Defer,
}

/// Errors surfaced by the replay machinery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The re-executed process delivered at a clock different from the
    /// logged one — the piecewise-determinism assumption was violated by
    /// the application (a nondeterministic step that was not a reception).
    ClockDivergence {
        /// Clock the logged event expects.
        expected: u64,
        /// Clock the re-execution produced.
        actual: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ClockDivergence { expected, actual } => write!(
                f,
                "replay divergence: logged reception at clock {expected} but \
                 re-execution reached clock {actual}; the application violates \
                 piecewise determinism"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The ordered list of events to replay plus arrival bookkeeping.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplayPlan {
    /// Logged events not yet replayed, in receiver-clock order.
    events: VecDeque<ReceptionEvent>,
    /// Re-sent payloads that arrived before their logged position.
    pending: HashMap<MsgId, Payload>,
    /// Arrivals beyond the logged history, in arrival order, delivered
    /// fresh once the replay is complete.
    future: VecDeque<(MsgId, Payload)>,
    /// Every id ever offered, so duplicate re-sends (two peers answering
    /// two RESTART rounds) don't park two copies in `future`.
    offered: std::collections::HashSet<MsgId>,
    /// Failed probes already answered for the head event.
    probes_answered: u32,
}

impl ReplayPlan {
    /// Build a plan from the downloaded events. Events are sorted by
    /// receiver clock; duplicates (same receiver clock) are dropped.
    pub fn new(mut events: Vec<ReceptionEvent>) -> Self {
        events.sort_by_key(|e| e.receiver_clock);
        events.dedup_by_key(|e| e.receiver_clock);
        // Sized once from the download: every logged reception is offered
        // (and may wait in `pending`) exactly once, so the tables never
        // grow through a doubling chain whose freed steps stay stranded in
        // the daemon thread's allocator arena.
        let n = events.len();
        ReplayPlan {
            events: events.into(),
            pending: HashMap::with_capacity(n),
            future: VecDeque::new(),
            offered: std::collections::HashSet::with_capacity(n),
            probes_answered: 0,
        }
    }

    /// An empty plan (fresh start with no logged history).
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when every logged event has been replayed.
    pub fn is_done(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events still to replay.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// The event that must be delivered next, if any.
    pub fn head(&self) -> Option<&ReceptionEvent> {
        self.events.front()
    }

    /// Classify and store an incoming message. The caller must have already
    /// discarded `HR`-duplicates (messages at or below the delivery
    /// watermark).
    pub fn offer(&mut self, id: MsgId, payload: Payload) -> Offer {
        if self.events.iter().any(|e| e.msg_id() == id) {
            // Re-offering an id overwrites the identical pending copy.
            self.offered.insert(id);
            self.pending.insert(id, payload);
            Offer::Stored
        } else {
            if self.offered.insert(id) {
                self.future.push_back((id, payload));
            }
            Offer::Future
        }
    }

    /// Answer an application probe during replay (§4.5 probe counting).
    pub fn probe(&mut self) -> ProbeVerdict {
        let Some(head) = self.events.front() else {
            // Plan exhausted: the caller should have left replay mode.
            return ProbeVerdict::Defer;
        };
        if self.probes_answered < head.probes {
            self.probes_answered += 1;
            ProbeVerdict::ReplayNo
        } else if self.pending.contains_key(&head.msg_id()) {
            ProbeVerdict::ReplayYes
        } else {
            ProbeVerdict::Defer
        }
    }

    /// Attempt to deliver the head event. `current_clock` is the process
    /// clock *before* the delivery tick; the logged event must sit at
    /// exactly `current_clock + 1` or the re-execution has diverged.
    ///
    /// On success returns the event and its payload, and the caller must
    /// advance its clock to `event.receiver_clock`.
    pub fn try_deliver(
        &mut self,
        current_clock: u64,
    ) -> Result<Option<(ReceptionEvent, Payload)>, ReplayError> {
        let Some(head) = self.events.front() else {
            return Ok(None);
        };
        let Some(payload) = self.pending.get(&head.msg_id()) else {
            return Ok(None);
        };
        let expected = head.receiver_clock;
        if expected != current_clock + 1 {
            return Err(ReplayError::ClockDivergence {
                expected,
                actual: current_clock + 1,
            });
        }
        let payload = payload.clone();
        let head = self.events.pop_front().expect("head checked above");
        self.pending.remove(&head.msg_id());
        self.probes_answered = 0;
        Ok(Some((head, payload)))
    }

    /// Drain the parked post-history arrivals (to feed the normal receive
    /// buffer once replay completes). Pending-but-undelivered entries would
    /// indicate a bug (a stored message whose event was never replayed), so
    /// this asserts the plan is done and pending is empty.
    pub fn into_future_arrivals(self) -> Vec<(MsgId, Payload)> {
        debug_assert!(self.events.is_empty(), "draining an unfinished replay plan");
        debug_assert!(self.pending.is_empty(), "stored payloads never delivered");
        self.future.into()
    }

    /// Peek at how many future arrivals are parked.
    pub fn future_len(&self) -> usize {
        self.future.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Rank;

    fn ev(s: u32, sc: u64, rc: u64, probes: u32) -> ReceptionEvent {
        ReceptionEvent {
            sender: Rank(s),
            sender_clock: sc,
            receiver_clock: rc,
            probes,
        }
    }

    fn pl(n: u8) -> Payload {
        Payload::from_vec(vec![n])
    }

    #[test]
    fn orders_and_dedups_downloaded_events() {
        let plan = ReplayPlan::new(vec![ev(1, 5, 9, 0), ev(2, 1, 3, 0), ev(2, 1, 3, 0)]);
        assert_eq!(plan.remaining(), 2);
        assert_eq!(plan.head().unwrap().receiver_clock, 3);
    }

    #[test]
    fn delivers_in_logged_order_regardless_of_arrival() {
        let mut plan = ReplayPlan::new(vec![ev(1, 1, 3, 0), ev(2, 1, 4, 0)]);
        // Second message arrives first.
        assert_eq!(plan.offer(MsgId::new(Rank(2), 1), pl(2)), Offer::Stored);
        assert!(
            plan.try_deliver(2).unwrap().is_none(),
            "head not yet available"
        );
        assert_eq!(plan.offer(MsgId::new(Rank(1), 1), pl(1)), Offer::Stored);
        let (e, p) = plan.try_deliver(2).unwrap().unwrap();
        assert_eq!(e.receiver_clock, 3);
        assert_eq!(p, pl(1));
        let (e, p) = plan.try_deliver(3).unwrap().unwrap();
        assert_eq!(e.receiver_clock, 4);
        assert_eq!(p, pl(2));
        assert!(plan.is_done());
    }

    #[test]
    fn unlogged_arrivals_are_future() {
        let mut plan = ReplayPlan::new(vec![ev(1, 1, 3, 0)]);
        assert_eq!(plan.offer(MsgId::new(Rank(2), 9), pl(9)), Offer::Future);
        assert_eq!(plan.offer(MsgId::new(Rank(1), 1), pl(1)), Offer::Stored);
        plan.try_deliver(2).unwrap().unwrap();
        let fut = plan.into_future_arrivals();
        assert_eq!(fut, vec![(MsgId::new(Rank(2), 9), pl(9))]);
    }

    #[test]
    fn probe_counts_replay_exactly() {
        // Original run: two failed probes, then reception.
        let mut plan = ReplayPlan::new(vec![ev(1, 1, 4, 2)]);
        assert_eq!(plan.probe(), ProbeVerdict::ReplayNo);
        assert_eq!(plan.probe(), ProbeVerdict::ReplayNo);
        // Budget exhausted but message not here: hold the answer.
        assert_eq!(plan.probe(), ProbeVerdict::Defer);
        plan.offer(MsgId::new(Rank(1), 1), pl(1));
        assert_eq!(plan.probe(), ProbeVerdict::ReplayYes);
        plan.try_deliver(3).unwrap().unwrap();
        assert!(plan.is_done());
    }

    #[test]
    fn clock_divergence_detected() {
        let mut plan = ReplayPlan::new(vec![ev(1, 1, 10, 0)]);
        plan.offer(MsgId::new(Rank(1), 1), pl(1));
        let err = plan.try_deliver(5).unwrap_err();
        assert_eq!(
            err,
            ReplayError::ClockDivergence {
                expected: 10,
                actual: 6
            }
        );
    }

    #[test]
    fn duplicate_future_offers_parked_once() {
        let mut plan = ReplayPlan::new(vec![]);
        let id = MsgId::new(Rank(2), 9);
        assert_eq!(plan.offer(id, pl(9)), Offer::Future);
        assert_eq!(plan.offer(id, pl(9)), Offer::Future);
        assert_eq!(plan.future_len(), 1);
    }

    #[test]
    fn empty_plan_is_done() {
        let plan = ReplayPlan::empty();
        assert!(plan.is_done());
        assert_eq!(plan.remaining(), 0);
    }
}
