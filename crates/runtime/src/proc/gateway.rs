//! The fabric↔transport glue of the multi-process deployment: which
//! envelope is which [`WireMsg`], and which node lives where.
//!
//! Each OS process runs the **unchanged** in-process runtime (daemon,
//! MPI process, service threads) over a private [`Fabric`]; the gateway
//! splices that fabric onto a [`Transport`] endpoint, and adds no thread
//! of its own to either direction:
//!
//! - **outbound** — every node that lives in *another* process is
//!   registered on the local fabric as a sink ([`Fabric::register_sink`]):
//!   the thread that sends to it maps its envelope to a [`WireMsg`],
//!   encodes it once and hands it to [`Transport::send`], which writes
//!   the socket;
//! - **inbound** — the gateway is the endpoint's frame sink: the
//!   connection's reader thread decodes each frame (a `Data` body stays a
//!   view of the delivered frame, uncopied) and pushes data-plane
//!   messages straight into the local real mailboxes via
//!   [`Fabric::send_from_reliable`], and control-plane traffic (hello,
//!   address maps, results, revival chatter) onto the [`Control`]
//!   channel. [`Gateway::poll`] adds the transport's fail-stop verdicts
//!   ([`PeerDown`]) to that stream for the role-specific glue to consume.
//!
//! Because the protocol threads only ever talk to mailboxes, recovery,
//! the EL quorum failover and the invariant monitor run identically over
//! sockets and over the in-process fabric — the gateway has no protocol
//! knowledge beyond the envelope-to-wire mapping.
//!
//! [`PeerDown`]: TransportEvent::PeerDown

use super::wire::WireMsg;
use crate::deploy::Topology;
use crate::messages::{DaemonMsg, DispatcherMsg};
use mvr_ckpt::CkptPacket;
use mvr_core::{NodeId, Rank, SchedMsg};
use mvr_eventlog::ElPacket;
use mvr_net::{DownCause, Fabric, FrameSink, Transport, TransportEvent};
use std::cell::RefCell;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Which node kind this process hosts — decides which nodes are remote
/// and the inbound routing table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatewayRole {
    /// A computing node (daemon + MPI process) of rank `0`'s field.
    Rank(Rank),
    /// An event-logger replica, by flat index.
    EventLogger(u32),
    /// The checkpoint server.
    CheckpointServer,
    /// The supervising dispatcher (hosts the checkpoint scheduler).
    Supervisor,
}

/// Everything the role glue (child main loop or supervisor) consumes
/// from the gateway: control-plane wire messages and detector verdicts.
// `WireMsg` dominates the size, but this is the low-rate control plane
// (hellos, verdicts, results) — boxing would cost an allocation per
// message and box-patterns at every match for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Control {
    /// A control-plane message from `from`'s endpoint.
    Msg {
        /// Sending endpoint.
        from: NodeId,
        /// The message.
        msg: WireMsg,
    },
    /// The fail-stop detector declared `peer` down.
    PeerDown {
        /// The peer endpoint.
        peer: NodeId,
        /// The incarnation the verdict is about; a supervisor that has
        /// already launched a newer one treats the verdict as stale.
        incarnation: u64,
        /// Why (EOF, read timeout, I/O error, …).
        cause: DownCause,
    },
}

/// Map a fabric destination to the transport endpoint hosting it.
///
/// The checkpoint scheduler lives inside the supervising dispatcher.
pub fn host_of(dest: NodeId) -> NodeId {
    match dest {
        NodeId::CheckpointScheduler | NodeId::Dispatcher => NodeId::Dispatcher,
        other => other,
    }
}

/// One fabric spliced onto one transport endpoint.
pub struct Gateway {
    transport: Arc<dyn Transport>,
    control_rx: Receiver<Control>,
    /// A detector event taken off the transport and held back while
    /// the control messages queued before it are handed out.
    verdict: RefCell<Option<Control>>,
}

impl Gateway {
    /// Register the role's remote nodes on `fabric`, make the gateway
    /// `transport`'s frame sink, and return it.
    ///
    /// Local real mailboxes (the daemon's, a replica's, the scheduler's)
    /// must be registered by the caller before it announces the
    /// endpoint's address: inbound injection drops frames for
    /// destinations that are not registered, and only a loss to a *dead*
    /// node is one the protocol repairs.
    pub fn start(
        transport: Arc<dyn Transport>,
        fabric: &Fabric,
        role: GatewayRole,
        topo: Topology,
    ) -> Gateway {
        match role {
            GatewayRole::Rank(me) => {
                // Every other supervised node is remote …
                for node in topo.nodes().filter(|n| *n != NodeId::Computing(me)) {
                    match node {
                        NodeId::Computing(_) => {
                            remote::<DaemonMsg>(fabric, &transport, node, |m| match m {
                                DaemonMsg::Peer { from, msg } => Some(WireMsg::Peer { from, msg }),
                                // Service replies never originate here.
                                _ => None,
                            })
                        }
                        NodeId::EventLogger(_) => {
                            remote::<ElPacket>(fabric, &transport, node, |p| {
                                Some(WireMsg::ElReq {
                                    from: p.from,
                                    req: p.req,
                                })
                            })
                        }
                        _ => remote::<CkptPacket>(fabric, &transport, node, |p| {
                            Some(WireMsg::CkptReq {
                                from: p.from,
                                req: p.req,
                            })
                        }),
                    }
                }
                // … and so are the two the supervisor's process hosts.
                remote::<SchedMsg>(fabric, &transport, NodeId::CheckpointScheduler, |m| {
                    Some(WireMsg::SchedToScheduler { msg: m })
                });
                remote::<DispatcherMsg>(fabric, &transport, NodeId::Dispatcher, |m| {
                    let DispatcherMsg::Finalized {
                        rank,
                        metrics,
                        timings,
                    } = m;
                    Some(WireMsg::Finalized {
                        rank,
                        metrics,
                        timings,
                    })
                });
            }
            GatewayRole::EventLogger(_) => {
                // Replicas answer daemons; every daemon is remote.
                for q in topo.ranks() {
                    remote::<DaemonMsg>(fabric, &transport, NodeId::Computing(q), |m| match m {
                        DaemonMsg::El { from, reply } => Some(WireMsg::ElRep { from, reply }),
                        _ => None,
                    });
                }
            }
            GatewayRole::CheckpointServer => {
                for q in topo.ranks() {
                    remote::<DaemonMsg>(fabric, &transport, NodeId::Computing(q), |m| match m {
                        DaemonMsg::Ckpt(reply) => Some(WireMsg::CkptRep { reply }),
                        _ => None,
                    });
                }
            }
            GatewayRole::Supervisor => {
                // The scheduler's orders/status-requests to every daemon.
                for q in topo.ranks() {
                    remote::<DaemonMsg>(fabric, &transport, NodeId::Computing(q), |m| match m {
                        DaemonMsg::Sched(msg) => Some(WireMsg::SchedToDaemon { msg }),
                        _ => None,
                    });
                }
            }
        }

        let (control_tx, control_rx) = std::sync::mpsc::channel();
        // Weak: the endpoint owns its sink.
        let endpoint = Arc::downgrade(&transport);
        transport.set_frame_sink(inbound(fabric.clone(), role, endpoint, control_tx));

        Gateway {
            transport,
            control_rx,
            verdict: RefCell::new(None),
        }
    }

    /// Wait up to `timeout` for the next control-plane message or
    /// detector verdict. Verdicts wait on the transport's own queue and
    /// are only looked for on entry, so they reach a caller that polls
    /// in a loop within one `timeout` of happening.
    pub fn poll(&self, timeout: Duration) -> Result<Control, RecvTimeoutError> {
        let mut verdict = self.verdict.borrow_mut();
        if verdict.is_none() {
            let mut events = std::iter::from_fn(|| self.transport.poll_event(Duration::ZERO));
            *verdict = events.find_map(|event| match event {
                TransportEvent::PeerDown {
                    peer,
                    incarnation,
                    cause,
                } => Some(Control::PeerDown {
                    peer,
                    incarnation,
                    cause,
                }),
                // A link coming up needs no action: the peer's hello and
                // address travel as control messages. Frames go to the
                // sink, not the queue.
                TransportEvent::PeerUp { .. } | TransportEvent::Frame { .. } => None,
            });
        }
        if verdict.is_none() {
            return self.control_rx.recv_timeout(timeout);
        }
        // A reader queues a peer's last messages before it reports the
        // link's death (a result, then the exit): whatever is queued
        // now goes first, as it would on one queue.
        match self.control_rx.try_recv() {
            Ok(queued) => Ok(queued),
            Err(_) => Ok(verdict.take().expect("a verdict is held")),
        }
    }

    /// Send a control-plane message to `node`'s endpoint directly.
    pub fn send_to(&self, node: NodeId, msg: &WireMsg) {
        let _ = self.transport.send(host_of(node), msg.encode());
    }

    /// The underlying transport endpoint.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Shut the transport down.
    pub fn stop(&self) {
        self.transport.shutdown();
    }
}

/// Register `node` — it lives in another process — on `fabric`: a send
/// to it maps the envelope to its wire form and sends that to the
/// endpoint hosting the node, on the sending thread. Envelopes the
/// closure maps to `None` are dropped (they cannot legitimately target a
/// remote node of this role).
fn remote<M: Send + 'static>(
    fabric: &Fabric,
    transport: &Arc<dyn Transport>,
    node: NodeId,
    map: impl Fn(M) -> Option<WireMsg> + Send + Sync + 'static,
) {
    let transport = transport.clone();
    let dest = host_of(node);
    fabric.register_sink(node, move |m| {
        if let Some(wire) = map(m) {
            // Send errors (peer down, endpoint closed) are in-flight
            // loss; the protocol's retransmission and recovery paths own
            // that case.
            let _ = transport.send(dest, wire.encode());
        }
    });
}

/// The gateway's frame sink: decode each frame on the thread that took
/// it off the link — a `Data` body stays a view of the frame — and
/// [`route`] it.
fn inbound(
    fabric: Fabric,
    role: GatewayRole,
    endpoint: Weak<dyn Transport>,
    control_tx: Sender<Control>,
) -> FrameSink {
    Arc::new(move |from, frame| {
        let forward = match WireMsg::decode_frame(&frame) {
            Ok(msg) => route(&fabric, role, &endpoint, from, msg),
            // Undecodable payload on an authenticated frame: surface as a
            // corrupt-peer detector event. The frame came over a live
            // link, so the verdict is about whatever incarnation is
            // current — u64::MAX keeps it from being dropped as stale.
            Err(e) => Some(Control::PeerDown {
                peer: from,
                incarnation: u64::MAX,
                cause: DownCause::Corrupt(e),
            }),
        };
        if let Some(control) = forward {
            // Nobody listening: the glue dropped the gateway.
            let _ = control_tx.send(control);
        }
    })
}

/// Inject one inbound message: data plane into the fabric, control
/// plane up to the glue. Returns the control event to forward, if any.
fn route(
    fabric: &Fabric,
    role: GatewayRole,
    transport: &Weak<dyn Transport>,
    from: NodeId,
    msg: WireMsg,
) -> Option<Control> {
    match (role, msg) {
        // Address maps are applied here so data can flow immediately;
        // the glue still sees them (children gate startup on the first).
        (_, WireMsg::AddressMap(entries)) => {
            if let Some(transport) = transport.upgrade() {
                let me = transport.local_node();
                for (node, addr) in &entries {
                    if *node != me {
                        transport.set_route(*node, addr.clone());
                    }
                }
            }
            Some(Control::Msg {
                from,
                msg: WireMsg::AddressMap(entries),
            })
        }

        (GatewayRole::Rank(me), WireMsg::Peer { from, msg }) => {
            let _ = fabric.send_from_reliable(NodeId::Computing(me), DaemonMsg::Peer { from, msg });
            None
        }
        (GatewayRole::Rank(me), WireMsg::ElRep { from, reply }) => {
            let _ = fabric.send_from_reliable(NodeId::Computing(me), DaemonMsg::El { from, reply });
            None
        }
        (GatewayRole::Rank(me), WireMsg::CkptRep { reply }) => {
            let _ = fabric.send_from_reliable(NodeId::Computing(me), DaemonMsg::Ckpt(reply));
            None
        }
        (GatewayRole::Rank(me), WireMsg::SchedToDaemon { msg }) => {
            let _ = fabric.send_from_reliable(NodeId::Computing(me), DaemonMsg::Sched(msg));
            None
        }

        (GatewayRole::EventLogger(flat), WireMsg::ElReq { from, req }) => {
            let _ = fabric.send_from_reliable(NodeId::EventLogger(flat), ElPacket { from, req });
            None
        }

        (GatewayRole::CheckpointServer, WireMsg::CkptReq { from, req }) => {
            let _ =
                fabric.send_from_reliable(NodeId::CheckpointServer(0), CkptPacket { from, req });
            None
        }

        (GatewayRole::Supervisor, WireMsg::SchedToScheduler { msg }) => {
            // Ignored when checkpointing is off (no scheduler mailbox).
            let _ = fabric.send_from_reliable(NodeId::CheckpointScheduler, msg);
            None
        }

        // Everything else — hello, shutdown, results, revival chatter,
        // violations — is the glue's business.
        (_, msg) => Some(Control::Msg { from, msg }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::PeerMsg;
    use mvr_net::MemNet;

    /// Two "processes" (separate fabrics) spliced over the in-memory
    /// transport: a peer message crosses sink → wire → injection on the
    /// sending thread, so it is in the mailbox when `send` returns.
    #[test]
    fn peer_message_is_in_the_remote_mailbox_when_send_returns() {
        let net = MemNet::new();
        let topo = Topology::new(2, 1, 1).expect("valid");

        let fab0 = Fabric::new();
        let fab1 = Fabric::new();
        let t0: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Computing(Rank(0))));
        let t1: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Computing(Rank(1))));
        let _gw0 = Gateway::start(t0, &fab0, GatewayRole::Rank(Rank(0)), topo);
        let _gw1 = Gateway::start(t1, &fab1, GatewayRole::Rank(Rank(1)), topo);

        // Rank 1's real daemon mailbox, on its own fabric.
        let (mb1, _id1) = fab1.register::<DaemonMsg>(NodeId::Computing(Rank(1)));

        // Rank 0's daemon sends to "Computing(1)" — a sink on fabric 0.
        let (_mb0, id0) = fab0.register::<DaemonMsg>(NodeId::Computing(Rank(0)));
        id0.send(
            NodeId::Computing(Rank(1)),
            DaemonMsg::Peer {
                from: Rank(0),
                msg: PeerMsg::Restart1 { last_received: 42 },
            },
        )
        .expect("remote node registered");

        let got = mb1
            .try_recv()
            .expect("mailbox alive")
            .expect("no thread in between: already here");
        match got {
            DaemonMsg::Peer {
                from,
                msg: PeerMsg::Restart1 { last_received },
            } => {
                assert_eq!(from, Rank(0));
                assert_eq!(last_received, 42);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    /// A peer's last message and the verdict on its death reach the glue
    /// in the order they happened, although they wait on two queues.
    #[test]
    fn a_peers_last_message_precedes_its_death_verdict() {
        let net = MemNet::new();
        let topo = Topology::new(1, 1, 1).expect("valid");
        let (sup_fab, rank_fab) = (Fabric::new(), Fabric::new());
        let ts: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Dispatcher));
        let tr: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Computing(Rank(0))));
        let gw_sup = Gateway::start(ts, &sup_fab, GatewayRole::Supervisor, topo);
        let gw_rank = Gateway::start(tr, &rank_fab, GatewayRole::Rank(Rank(0)), topo);
        let failed = WireMsg::Failed {
            node: NodeId::Computing(Rank(0)),
            detail: "boom".into(),
        };
        gw_rank.send_to(NodeId::Dispatcher, &failed);
        net.kill(NodeId::Computing(Rank(0)));
        let seen: Vec<_> = std::iter::from_fn(|| gw_sup.poll(Duration::ZERO).ok())
            .map(|c| match c {
                Control::Msg { .. } => "failed",
                Control::PeerDown { .. } => "down",
            })
            .collect();
        assert_eq!(seen, ["failed", "down"]);
    }

    /// Over real sockets, a `Data` body reaches the MPI layer as a view of
    /// the frame the connection's reader delivered: after the one copy
    /// out of the read buffer, no layer copies it again.
    #[test]
    fn a_data_body_received_over_tcp_is_a_view_of_the_delivered_frame() {
        use mvr_core::{DataMsg, FrameArena, MsgId, Payload};
        use mvr_mpi::wire::{encode_eager, Context, MpiFrame};
        use mvr_net::{TcpConfig, TcpTransport};
        let (r0, r1) = (NodeId::Computing(Rank(0)), NodeId::Computing(Rank(1)));
        let bind = |node| TcpTransport::bind(node, "127.0.0.1:0", 1, TcpConfig::default());
        let a = bind(r0).expect("loopback");
        let b: Arc<dyn Transport> = Arc::new(bind(r1).expect("loopback"));
        a.set_route(r1, b.local_addr().expect("bound"));

        // Rank 1's gateway sink, behind a tap that keeps each frame.
        let fabric = Fabric::new();
        let (mailbox, _id) = fabric.register::<DaemonMsg>(r1);
        let (control_tx, _control_rx) = std::sync::mpsc::channel();
        let gateway = inbound(
            fabric,
            GatewayRole::Rank(Rank(1)),
            Arc::downgrade(&b),
            control_tx,
        );
        let (tap_tx, tap_rx) = std::sync::mpsc::channel();
        b.set_frame_sink(Arc::new(move |from, frame: Payload| {
            gateway(from, frame.clone());
            let _ = tap_tx.send(frame);
        }));

        let wire = WireMsg::Peer {
            from: Rank(0),
            msg: PeerMsg::Data(DataMsg {
                id: MsgId::new(Rank(0), 1),
                dst: Rank(1),
                payload: encode_eager(Context::PointToPoint, 7, &[5; 100], &mut FrameArena::new()),
            }),
        };
        a.send(r1, wire.encode()).expect("routed");
        let frame = tap_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered");
        let Ok(Some(DaemonMsg::Peer {
            msg: PeerMsg::Data(data),
            ..
        })) = mailbox.try_recv()
        else {
            panic!("the data message is in the mailbox when the sink returns");
        };
        let MpiFrame::Eager { body, .. } = MpiFrame::decode(&data.payload).expect("eager") else {
            panic!("an eager frame");
        };
        assert_eq!(&body[..], &[5; 100][..]);
        let within = |inner: &[u8]| {
            let (outer, inner) = (frame.as_ptr_range(), inner.as_ptr_range());
            outer.start <= inner.start && inner.end <= outer.end
        };
        assert!(
            within(&data.payload),
            "the MPI frame is a view of the wire frame"
        );
        assert!(within(&body), "so is the body");
        a.shutdown();
        b.shutdown();
    }

    /// The supervisor side routes scheduler chatter both ways and
    /// surfaces results on the control channel.
    #[test]
    fn supervisor_routing_and_control() {
        let net = MemNet::new();
        let topo = Topology::new(1, 1, 1).expect("valid");

        let sup_fab = Fabric::new();
        let rank_fab = Fabric::new();
        let ts: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Dispatcher));
        let tr: Arc<dyn Transport> = Arc::new(net.attach(NodeId::Computing(Rank(0))));
        let gw_sup = Gateway::start(ts, &sup_fab, GatewayRole::Supervisor, topo);
        let _gw_rank = Gateway::start(tr, &rank_fab, GatewayRole::Rank(Rank(0)), topo);

        // Scheduler (on the supervisor fabric) orders rank 0 to
        // checkpoint; the rank's daemon mailbox sees it.
        let (daemon_mb, _id) = rank_fab.register::<DaemonMsg>(NodeId::Computing(Rank(0)));
        sup_fab
            .send_from_reliable(
                NodeId::Computing(Rank(0)),
                DaemonMsg::Sched(mvr_core::SchedMsg::CheckpointOrder),
            )
            .expect("remote node registered");
        match daemon_mb.try_recv() {
            Ok(Some(DaemonMsg::Sched(mvr_core::SchedMsg::CheckpointOrder))) => {}
            other => panic!("wrong message: {other:?}"),
        }

        // The rank's gateway forwards a result; the supervisor glue
        // reads it off the control channel.
        let wire = WireMsg::RankResult {
            rank: Rank(0),
            result: mvr_core::Payload::from_vec(vec![9]),
        };
        _gw_rank.send_to(NodeId::Dispatcher, &wire);
        match gw_sup.poll(Duration::ZERO) {
            Ok(Control::Msg {
                msg: WireMsg::RankResult { rank, result },
                ..
            }) => {
                assert_eq!(rank, Rank(0));
                assert_eq!(result.as_slice(), &[9]);
            }
            other => panic!("no result on control channel: {other:?}"),
        }
    }
}
