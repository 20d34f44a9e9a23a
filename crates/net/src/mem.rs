//! In-memory [`Transport`] backend.
//!
//! [`MemNet`] is a process-local hub that connects any number of
//! [`MemTransport`] endpoints with the same frame/event semantics the
//! socket backend provides — FIFO frames, `PeerUp` on attach,
//! `PeerDown` broadcast on [`MemNet::kill`]. It exists so the gateway
//! layer and the fail-stop plumbing can be tested transport-generically
//! (and deterministically) without opening sockets. `send` runs the
//! destination's [`FrameSink`] on the caller's thread: when it returns
//! the frame is wherever that sink puts it.

use crate::transport::{
    event_sink, DownCause, FrameSink, Transport, TransportError, TransportEvent,
};
use crossbeam_channel::{unbounded, Receiver, Sender};
use mvr_core::ids::NodeId;
use mvr_core::Payload;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

struct Endpoint {
    events: Sender<TransportEvent>,
    sink: FrameSink,
    incarnation: u64,
}

#[derive(Default)]
struct Hub {
    endpoints: HashMap<NodeId, Endpoint>,
    next_incarnation: u64,
}

/// Process-local hub wiring [`MemTransport`] endpoints together.
#[derive(Clone, Default)]
pub struct MemNet {
    hub: Arc<Mutex<Hub>>,
}

impl MemNet {
    /// A fresh, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a new endpoint for `node`. Existing endpoints observe
    /// `PeerUp` for it (and it observes `PeerUp` for each of them), so
    /// liveness bookkeeping matches the socket handshake. Re-attaching
    /// a node that already died yields a fresh, higher incarnation.
    pub fn attach(&self, node: NodeId) -> MemTransport {
        let (tx, rx) = unbounded();
        let mut hub = self.hub.lock();
        hub.next_incarnation += 1;
        let incarnation = hub.next_incarnation;
        for (&peer, ep) in hub.endpoints.iter() {
            let _ = ep.events.send(TransportEvent::PeerUp {
                peer: node,
                incarnation,
            });
            let _ = tx.send(TransportEvent::PeerUp {
                peer,
                incarnation: ep.incarnation,
            });
        }
        hub.endpoints.insert(
            node,
            Endpoint {
                sink: event_sink(tx.clone()),
                events: tx,
                incarnation,
            },
        );
        MemTransport {
            hub: self.hub.clone(),
            node,
            events: Mutex::new(rx),
        }
    }

    /// Fail-stop `node`: detach its endpoint and broadcast `PeerDown`
    /// to every surviving endpoint. Its own transport handle stops
    /// receiving and can no longer send.
    pub fn kill(&self, node: NodeId) {
        let mut hub = self.hub.lock();
        if let Some(dead) = hub.endpoints.remove(&node) {
            for ep in hub.endpoints.values() {
                let _ = ep.events.send(TransportEvent::PeerDown {
                    peer: node,
                    incarnation: dead.incarnation,
                    cause: DownCause::Eof,
                });
            }
        }
    }
}

/// One endpoint on a [`MemNet`] hub.
pub struct MemTransport {
    hub: Arc<Mutex<Hub>>,
    node: NodeId,
    events: Mutex<Receiver<TransportEvent>>,
}

impl Transport for MemTransport {
    fn local_node(&self) -> NodeId {
        self.node
    }

    fn local_addr(&self) -> Option<String> {
        None
    }

    fn set_route(&self, _peer: NodeId, _addr: String) {}

    fn send(&self, peer: NodeId, payload: Vec<u8>) -> Result<(), TransportError> {
        let sink = {
            let hub = self.hub.lock();
            if !hub.endpoints.contains_key(&self.node) {
                return Err(TransportError::Closed);
            }
            let ep = hub.endpoints.get(&peer);
            ep.ok_or(TransportError::PeerDown(peer))?.sink.clone()
        };
        // Outside the hub lock: a sink may itself send.
        sink(self.node, Payload::from_vec(payload));
        Ok(())
    }

    fn set_frame_sink(&self, sink: FrameSink) {
        if let Some(ep) = self.hub.lock().endpoints.get_mut(&self.node) {
            ep.sink = sink;
        }
    }

    fn poll_event(&self, timeout: Duration) -> Option<TransportEvent> {
        self.events.lock().recv_timeout(timeout).ok()
    }

    fn shutdown(&self) {
        let mut hub = self.hub.lock();
        if let Some(dead) = hub.endpoints.remove(&self.node) {
            for ep in hub.endpoints.values() {
                let _ = ep.events.send(TransportEvent::PeerDown {
                    peer: self.node,
                    incarnation: dead.incarnation,
                    cause: DownCause::Closed,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::ids::{NodeId, Rank};

    fn cn(r: u32) -> NodeId {
        NodeId::Computing(Rank(r))
    }

    fn drain_until<F: Fn(&TransportEvent) -> bool>(t: &MemTransport, pred: F) -> TransportEvent {
        for _ in 0..64 {
            if let Some(ev) = t.poll_event(Duration::from_millis(100)) {
                if pred(&ev) {
                    return ev;
                }
            }
        }
        panic!("expected event not observed");
    }

    #[test]
    fn frames_flow_fifo_between_endpoints() {
        let net = MemNet::new();
        let a = net.attach(cn(0));
        let b = net.attach(cn(1));
        for i in 0..10u8 {
            a.send(cn(1), vec![i]).unwrap();
        }
        let mut seen = Vec::new();
        while seen.len() < 10 {
            if let TransportEvent::Frame { from, payload } =
                b.poll_event(Duration::from_millis(200)).expect("frame")
            {
                assert_eq!(from, cn(0));
                seen.push(payload[0]);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
    }

    /// `send` runs the destination's sink itself: the frame is there
    /// when it returns, and only liveness is left on the event queue.
    #[test]
    fn frame_sink_has_the_frame_when_send_returns() {
        let net = MemNet::new();
        let a = net.attach(cn(0));
        let b = net.attach(cn(1));
        let (tx, rx) = std::sync::mpsc::channel();
        b.set_frame_sink(Arc::new(move |from, payload: Payload| {
            let _ = tx.send((from, payload.to_vec()));
        }));
        a.send(cn(1), vec![9]).unwrap();
        assert_eq!(rx.try_recv(), Ok((cn(0), vec![9])));
        let mut left = std::iter::from_fn(|| b.poll_event(Duration::ZERO));
        assert!(left.all(|e| matches!(e, TransportEvent::PeerUp { .. })));
    }

    #[test]
    fn kill_broadcasts_peer_down_and_fences_sender() {
        let net = MemNet::new();
        let a = net.attach(cn(0));
        let b = net.attach(cn(1));
        drain_until(
            &b,
            |e| matches!(e, TransportEvent::PeerUp { peer, .. } if *peer == cn(0)),
        );
        net.kill(cn(0));
        match drain_until(&b, |e| matches!(e, TransportEvent::PeerDown { .. })) {
            TransportEvent::PeerDown { peer, cause, .. } => {
                assert_eq!(peer, cn(0));
                assert_eq!(cause, DownCause::Eof);
            }
            _ => unreachable!(),
        }
        assert_eq!(a.send(cn(1), vec![1]), Err(TransportError::Closed));
        assert_eq!(b.send(cn(0), vec![1]), Err(TransportError::PeerDown(cn(0))));
    }

    #[test]
    fn reattach_gets_higher_incarnation() {
        let net = MemNet::new();
        let b = net.attach(cn(1));
        let _a1 = net.attach(cn(0));
        let first = match drain_until(
            &b,
            |e| matches!(e, TransportEvent::PeerUp { peer, .. } if *peer == cn(0)),
        ) {
            TransportEvent::PeerUp { incarnation, .. } => incarnation,
            _ => unreachable!(),
        };
        net.kill(cn(0));
        drain_until(
            &b,
            |e| matches!(e, TransportEvent::PeerDown { peer, .. } if *peer == cn(0)),
        );
        let _a2 = net.attach(cn(0));
        let second = match drain_until(
            &b,
            |e| matches!(e, TransportEvent::PeerUp { peer, .. } if *peer == cn(0)),
        ) {
            TransportEvent::PeerUp { incarnation, .. } => incarnation,
            _ => unreachable!(),
        };
        assert!(second > first);
    }
}
