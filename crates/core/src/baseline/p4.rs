//! The MPICH-P4-like baseline engine: direct transmission, no fault
//! tolerance. Used as the performance reference (it pays none of the
//! logging costs) and to validate that the V2 engine degenerates to the
//! same observable behaviour in fault-free runs.

use crate::envelope::{DataMsg, PeerMsg};
use crate::ids::{MsgId, Rank};
use crate::metrics::Metrics;
use crate::payload::Payload;
use std::collections::VecDeque;

/// Commands emitted by the P4 engine (a strict subset of the V2 outputs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P4Output {
    /// Ship a message to a peer daemon.
    Transmit {
        /// Destination.
        to: Rank,
        /// The message (always `PeerMsg::Data`).
        msg: PeerMsg,
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

/// Minimal direct-transmission engine.
#[derive(Debug)]
pub struct P4Engine {
    rank: Rank,
    /// Per-process send counter, reused as the message id clock so wire
    /// formats stay shared with V2.
    send_clock: u64,
    recv_buffer: VecDeque<(Rank, Payload)>,
    app_waiting_recv: bool,
    metrics: Metrics,
    outputs: VecDeque<P4Output>,
}

impl P4Engine {
    /// Fresh engine for `rank`.
    pub fn new(rank: Rank) -> Self {
        P4Engine {
            rank,
            send_clock: 0,
            recv_buffer: VecDeque::new(),
            app_waiting_recv: false,
            metrics: Metrics::new(),
            outputs: VecDeque::new(),
        }
    }

    /// Channel-level blocking send.
    pub fn app_send(&mut self, dst: Rank, payload: Payload) {
        self.send_clock += 1;
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += payload.len() as u64;
        let msg = PeerMsg::Data(DataMsg {
            id: MsgId::new(self.rank, self.send_clock),
            dst,
            payload,
        });
        self.outputs.push_back(P4Output::Transmit { to: dst, msg });
    }

    /// Channel-level blocking receive request.
    pub fn app_recv(&mut self) {
        self.app_waiting_recv = true;
        self.try_deliver();
    }

    /// Probe for a pending message.
    pub fn app_probe(&mut self) {
        let pending = !self.recv_buffer.is_empty();
        if !pending {
            self.metrics.failed_probes += 1;
        }
        self.outputs.push_back(P4Output::ProbeAnswer(pending));
    }

    /// A peer message arrived. P4 has no recovery traffic; anything but
    /// data is tolerated and ignored.
    pub fn on_peer(&mut self, from: Rank, msg: PeerMsg) {
        if let PeerMsg::Data(d) = msg {
            debug_assert_eq!(d.dst, self.rank);
            self.recv_buffer.push_back((from, d.payload));
            self.try_deliver();
        }
    }

    fn try_deliver(&mut self) {
        if !self.app_waiting_recv {
            return;
        }
        if let Some((from, payload)) = self.recv_buffer.pop_front() {
            self.app_waiting_recv = false;
            self.metrics.msgs_delivered += 1;
            self.metrics.bytes_delivered += payload.len() as u64;
            self.outputs.push_back(P4Output::Deliver { from, payload });
        }
    }

    /// Take the oldest accumulated command, if any (the host pumps after
    /// every input, like [`V2Engine::pop_output`](crate::V2Engine::pop_output)).
    pub fn pop_output(&mut self) -> Option<P4Output> {
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

    fn outputs(e: &mut P4Engine) -> Vec<P4Output> {
        std::iter::from_fn(|| e.pop_output()).collect()
    }

    #[test]
    fn direct_send_and_receive() {
        let mut a = P4Engine::new(Rank(0));
        let mut b = P4Engine::new(Rank(1));
        a.app_send(Rank(1), pl(7));
        let Some(P4Output::Transmit { to, msg }) = a.pop_output() else {
            panic!()
        };
        assert_eq!(to, Rank(1));
        b.app_recv();
        b.on_peer(Rank(0), msg);
        let outs = outputs(&mut b);
        assert!(matches!(&outs[..], [P4Output::Deliver { from, .. }] if *from == Rank(0)));
    }

    #[test]
    fn exactly_one_wire_message_per_send() {
        // The Fig. 6 claim: "P4 only sends two [TCP messages per
        // ping-pong round-trip]" — one per direction.
        let mut a = P4Engine::new(Rank(0));
        for _ in 0..10 {
            a.app_send(Rank(1), pl(0));
        }
        assert_eq!(a.outputs_pending(), 10);
        let outs = outputs(&mut a);
        assert!(outs.iter().all(|o| matches!(o, P4Output::Transmit { .. })));
        assert_eq!(a.outputs_pending(), 0);
    }

    #[test]
    fn probe_reports_buffer_state() {
        let mut b = P4Engine::new(Rank(1));
        b.app_probe();
        assert_eq!(outputs(&mut b), vec![P4Output::ProbeAnswer(false)]);
        b.on_peer(
            Rank(0),
            PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(0), 1),
                dst: Rank(1),
                payload: pl(0),
            }),
        );
        b.app_probe();
        assert_eq!(outputs(&mut b), vec![P4Output::ProbeAnswer(true)]);
    }
}
