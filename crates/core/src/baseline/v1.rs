//! The MPICH-V1 baseline (§3.2): pessimistic message logging on reliable
//! **Channel Memories**.
//!
//! "Every communication sent to a process is stored and ordered on its
//! associated Channel Memory. To receive a message, a process sends a
//! request to its associated Channel Memory. After a crash, a re-executing
//! process retrieves all lost receptions in the correct order by requesting
//! them to its Channel Memory."
//!
//! Two state machines live here: the computing-node side ([`V1Engine`]) and
//! the reliable repository ([`ChannelMemory`]). The architectural costs the
//! paper measures fall out directly: every payload crosses the network
//! twice (sender → CM, CM → receiver), and the number of reliable nodes
//! scales with the computing nodes (the paper used N/4 Channel Memories).

use crate::envelope::{CmReply, CmRequest, DataMsg};
use crate::ids::{MsgId, Rank};
use crate::metrics::Metrics;
use crate::payload::Payload;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

// ---------------------------------------------------------------------
// Channel Memory (reliable side)
// ---------------------------------------------------------------------

/// The reliable repository associated with one computing process. Stores
/// every message destined to its owner in arrival order; serves pulls by
/// reception index, deferring them until the message exists.
#[derive(Debug, Serialize, Deserialize)]
pub struct ChannelMemory {
    owner: Rank,
    /// Stored receptions in order; index = reception sequence number.
    stored: Vec<DataMsg>,
    /// Push dedup (a re-executing sender re-pushes the same ids).
    seen: HashSet<MsgId>,
    /// A deferred pull, if the owner asked for a not-yet-arrived seq.
    waiting_pull: Option<u64>,
}

impl ChannelMemory {
    /// New empty repository for `owner`.
    pub fn new(owner: Rank) -> Self {
        ChannelMemory {
            owner,
            stored: Vec::new(),
            seen: HashSet::new(),
            waiting_pull: None,
        }
    }

    /// Number of stored receptions.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Total payload bytes stored (the reliable-storage cost of V1, which
    /// is proportional to the payload sizes — the V2 paper's motivation).
    pub fn bytes_stored(&self) -> u64 {
        self.stored.iter().map(|m| m.payload.len() as u64).sum()
    }

    /// Handle a request; replies may be produced immediately and/or when a
    /// deferred pull becomes satisfiable.
    pub fn handle(&mut self, req: CmRequest) -> Vec<CmReply> {
        let mut out = Vec::new();
        match req {
            CmRequest::Push(msg) => {
                debug_assert_eq!(msg.dst, self.owner, "pushed to the wrong CM");
                if self.seen.insert(msg.id) {
                    self.stored.push(msg);
                }
                out.push(CmReply::PushAck);
                if let Some(seq) = self.waiting_pull {
                    if (seq as usize) < self.stored.len() {
                        self.waiting_pull = None;
                        out.push(CmReply::Msg {
                            seq,
                            msg: self.stored[seq as usize].clone(),
                        });
                    }
                }
            }
            CmRequest::Pull { seq } => {
                if (seq as usize) < self.stored.len() {
                    out.push(CmReply::Msg {
                        seq,
                        msg: self.stored[seq as usize].clone(),
                    });
                } else {
                    // A newer pull supersedes a stale one left behind by a
                    // crashed incarnation of the owner.
                    self.waiting_pull = Some(seq);
                }
            }
            CmRequest::Probe { seq } => {
                out.push(CmReply::ProbeAck {
                    seq,
                    pending: (seq as usize) < self.stored.len(),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Computing-node side
// ---------------------------------------------------------------------

/// Commands emitted by the V1 computing-node engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum V1Output {
    /// Send a request to the Channel Memory associated with `owner`
    /// (pushes target the *destination's* CM; pulls/probes target our own).
    ToCm {
        /// Which rank's CM.
        owner: Rank,
        /// The request.
        req: CmRequest,
    },
    /// Hand a message to the blocked MPI process.
    Deliver {
        /// Original sender.
        from: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// Answer a probe.
    ProbeAnswer(bool),
}

/// The MPICH-V1 computing-node engine. Fault tolerance state is just the
/// pair (send clock, reception index): after a rollback, re-execution pulls
/// the same reception indices and the CM replays them in the stored order —
/// "a process re-execution is independent of the other processes".
#[derive(Debug)]
pub struct V1Engine {
    rank: Rank,
    send_clock: u64,
    /// Next reception index to pull.
    recv_seq: u64,
    app_waiting_recv: bool,
    /// Outstanding probe (the sequence it asked about), for dropping
    /// stale probe answers that cross a restart.
    pending_probe: Option<u64>,
    metrics: Metrics,
    outputs: VecDeque<V1Output>,
}

impl V1Engine {
    /// Fresh engine.
    pub fn new(rank: Rank) -> Self {
        V1Engine {
            rank,
            send_clock: 0,
            recv_seq: 0,
            app_waiting_recv: false,
            pending_probe: None,
            metrics: Metrics::new(),
            outputs: VecDeque::new(),
        }
    }

    /// Channel-level blocking send: push to the destination's CM.
    pub fn app_send(&mut self, dst: Rank, payload: Payload) {
        self.send_clock += 1;
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += payload.len() as u64;
        let msg = DataMsg {
            id: MsgId::new(self.rank, self.send_clock),
            dst,
            payload,
        };
        self.outputs.push_back(V1Output::ToCm {
            owner: dst,
            req: CmRequest::Push(msg),
        });
    }

    /// Channel-level blocking receive: pull the next reception index from
    /// our own CM.
    pub fn app_recv(&mut self) {
        debug_assert!(!self.app_waiting_recv);
        self.app_waiting_recv = true;
        let seq = self.recv_seq;
        self.outputs.push_back(V1Output::ToCm {
            owner: self.rank,
            req: CmRequest::Pull { seq },
        });
    }

    /// Probe our CM for the next reception.
    pub fn app_probe(&mut self) {
        let seq = self.recv_seq;
        self.pending_probe = Some(seq);
        self.outputs.push_back(V1Output::ToCm {
            owner: self.rank,
            req: CmRequest::Probe { seq },
        });
    }

    /// A reply arrived from a CM. Replies that do not match the current
    /// state are stale leftovers of a previous incarnation crossing a
    /// restart, and are dropped.
    pub fn on_cm_reply(&mut self, reply: CmReply) {
        match reply {
            CmReply::PushAck => {}
            CmReply::Msg { seq, msg } => {
                if seq != self.recv_seq || !self.app_waiting_recv {
                    return; // stale (pre-restart pull answered late)
                }
                self.recv_seq += 1;
                self.app_waiting_recv = false;
                self.metrics.msgs_delivered += 1;
                self.metrics.bytes_delivered += msg.payload.len() as u64;
                self.outputs.push_back(V1Output::Deliver {
                    from: msg.id.sender,
                    payload: msg.payload,
                });
            }
            CmReply::ProbeAck { seq, pending } => {
                if self.pending_probe != Some(seq) {
                    return; // stale
                }
                self.pending_probe = None;
                if !pending {
                    self.metrics.failed_probes += 1;
                }
                self.outputs.push_back(V1Output::ProbeAnswer(pending));
            }
        }
    }

    /// Take the oldest accumulated command, if any (the host pumps after
    /// every input, like [`V2Engine::pop_output`](crate::V2Engine::pop_output)).
    pub fn pop_output(&mut self) -> Option<V1Output> {
        self.outputs.pop_front()
    }

    /// Commands accumulated and not yet taken by the host.
    pub fn outputs_pending(&self) -> usize {
        self.outputs.len()
    }

    /// Counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(n: u8) -> Payload {
        Payload::from_vec(vec![n])
    }

    /// Shuttle one engine's CM requests into the CMs and replies back.
    fn pump(engine: &mut V1Engine, cms: &mut [ChannelMemory]) -> Vec<(Rank, Payload)> {
        let mut delivered = Vec::new();
        while let Some(o) = engine.pop_output() {
            match o {
                V1Output::ToCm { owner, req } => {
                    for r in cms[owner.idx()].handle(req) {
                        // Replies to the requester only when it is the
                        // owner or a PushAck.
                        engine.on_cm_reply(r);
                    }
                }
                V1Output::Deliver { from, payload } => delivered.push((from, payload)),
                V1Output::ProbeAnswer(_) => {}
            }
        }
        delivered
    }

    #[test]
    fn message_transits_through_receiver_cm() {
        let mut cms = vec![ChannelMemory::new(Rank(0)), ChannelMemory::new(Rank(1))];
        let mut a = V1Engine::new(Rank(0));
        let mut b = V1Engine::new(Rank(1));
        a.app_send(Rank(1), pl(7));
        pump(&mut a, &mut cms);
        assert_eq!(cms[1].len(), 1, "payload stored on receiver's CM");
        assert_eq!(cms[1].bytes_stored(), 1);
        b.app_recv();
        let d = pump(&mut b, &mut cms);
        assert_eq!(d, vec![(Rank(0), pl(7))]);
    }

    #[test]
    fn reexecution_replays_from_cm_in_order() {
        let mut cms = vec![ChannelMemory::new(Rank(0)), ChannelMemory::new(Rank(1))];
        let mut a = V1Engine::new(Rank(0));
        let mut b = V1Engine::new(Rank(1));
        for i in 0..3 {
            a.app_send(Rank(1), pl(i));
        }
        pump(&mut a, &mut cms);
        let mut d = Vec::new();
        for _ in 0..3 {
            b.app_recv();
            d.extend(pump(&mut b, &mut cms));
        }
        assert_eq!(d.len(), 3);

        // b crashes and restarts from scratch (no checkpoint).
        let mut b2 = V1Engine::new(Rank(1));
        for _ in 0..3 {
            b2.app_recv();
            pump(&mut b2, &mut cms);
        }
        // Re-execution sees the exact same sequence.
        assert_eq!(b2.recv_seq, 3);
    }

    #[test]
    fn duplicate_pushes_deduplicated() {
        let mut cm = ChannelMemory::new(Rank(1));
        let m = DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: pl(0),
        };
        cm.handle(CmRequest::Push(m.clone()));
        cm.handle(CmRequest::Push(m));
        assert_eq!(cm.len(), 1);
    }

    #[test]
    fn pull_defers_until_push() {
        let mut cm = ChannelMemory::new(Rank(1));
        assert!(cm.handle(CmRequest::Pull { seq: 0 }).is_empty());
        let replies = cm.handle(CmRequest::Push(DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: pl(3),
        }));
        assert!(replies
            .iter()
            .any(|r| matches!(r, CmReply::Msg { seq: 0, .. })));
    }

    #[test]
    fn probe_answers_from_store() {
        let mut cm = ChannelMemory::new(Rank(1));
        let r = cm.handle(CmRequest::Probe { seq: 0 });
        assert_eq!(
            r,
            vec![CmReply::ProbeAck {
                seq: 0,
                pending: false
            }]
        );
        cm.handle(CmRequest::Push(DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: pl(3),
        }));
        let r = cm.handle(CmRequest::Probe { seq: 0 });
        assert_eq!(
            r,
            vec![CmReply::ProbeAck {
                seq: 0,
                pending: true
            }]
        );
    }
}
