//! Process-boundary transport abstraction.
//!
//! The in-process [`Fabric`](crate::Fabric) gives the protocol reliable
//! FIFO channels plus disconnection-as-fault-detector. When ranks become
//! real OS processes, something has to provide those same semantics over
//! sockets. [`Transport`] is that seam: a byte-frame mesh between
//! [`NodeId`]s with an event stream that reports peer liveness
//! transitions — [`TransportEvent::PeerDown`] is the fail-stop detector
//! the supervising dispatcher maps onto the exact `RankLost` /
//! replica-dead handling it already runs for in-process kills.
//!
//! Two backends implement the trait: [`MemTransport`](crate::MemTransport)
//! (an in-memory hub, used by transport-generic tests) and
//! [`TcpTransport`](crate::TcpTransport) (length-prefixed frames over
//! real sockets, written by the sending thread itself; a per-peer actor
//! only dials — capped exponential backoff + jitter — and pings; the
//! readers are the read-silence/EOF fail-stop detector).
//!
//! Neither backend puts a thread of its own between a frame and its
//! consumer: `send` carries the frame to the wire (or, in memory, all
//! the way into the peer's [`FrameSink`]) on the caller's thread, and
//! the receiving side runs the sink on the connection's reader.

use crossbeam_channel::Sender;
use mvr_core::ids::NodeId;
use mvr_core::Payload;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Where an endpoint puts each verified inbound application frame: it
/// is called with the sending node and the payload — an exact-size
/// shared buffer of its own, which a decoder may slice instead of
/// copying — on the thread that took the frame off the link (the
/// connection's reader; for the in-memory backend, the sender). It must
/// not block on that link's peer. Until [`Transport::set_frame_sink`]
/// replaces it, the sink of an endpoint queues [`TransportEvent::Frame`]
/// for [`Transport::poll_event`].
pub type FrameSink = Arc<dyn Fn(NodeId, Payload) + Send + Sync>;

/// The sink every endpoint starts with: frames join `events` (as a copy:
/// the queue carries `Vec`s).
pub(crate) fn event_sink(events: Sender<TransportEvent>) -> FrameSink {
    Arc::new(move |from, payload: Payload| {
        let payload = payload.to_vec();
        let _ = events.send(TransportEvent::Frame { from, payload });
    })
}

/// Why a peer link was declared down. The cause is diagnostic only —
/// every variant triggers the same fail-stop reaction upstream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DownCause {
    /// The peer closed the connection cleanly (EOF).
    Eof,
    /// The connection died with an I/O error (reset, broken pipe, …).
    Io(String),
    /// No bytes (not even heartbeat pings) arrived within the failure
    /// window.
    ReadTimeout,
    /// Could not (re)establish a connection before the dial deadline.
    DialFailed(String),
    /// The transport itself is shutting down.
    Closed,
    /// The frame stream was corrupt (bad magic/version/checksum) — the
    /// link cannot be trusted and is treated as dead.
    Corrupt(String),
}

impl fmt::Display for DownCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DownCause::Eof => write!(f, "eof"),
            DownCause::Io(e) => write!(f, "io: {e}"),
            DownCause::ReadTimeout => write!(f, "read-timeout"),
            DownCause::DialFailed(e) => write!(f, "dial-failed: {e}"),
            DownCause::Closed => write!(f, "closed"),
            DownCause::Corrupt(e) => write!(f, "corrupt-stream: {e}"),
        }
    }
}

/// Liveness and data events surfaced by a transport.
#[derive(Clone, Debug)]
pub enum TransportEvent {
    /// A complete, checksum-verified application frame arrived.
    Frame {
        /// Sending node.
        from: NodeId,
        /// Frame payload (opaque to the transport), copied out of the
        /// delivered `Payload`: only tests and the benchmark's per-layer
        /// loops read frames off the event queue.
        payload: Vec<u8>,
    },
    /// A peer completed its handshake and is reachable.
    PeerUp {
        /// The peer.
        peer: NodeId,
        /// Monotonic incarnation number announced in the peer's hello;
        /// a higher incarnation for a known peer means it restarted.
        incarnation: u64,
    },
    /// A peer's link failed — the fail-stop detection signal.
    PeerDown {
        /// The peer.
        peer: NodeId,
        /// The incarnation this verdict is about — the last one this
        /// endpoint observed for the peer. A supervisor that has
        /// already launched a newer incarnation must discard verdicts
        /// naming an older one: they describe a death it already
        /// handled, not a fresh failure.
        incarnation: u64,
        /// Diagnostic cause.
        cause: DownCause,
    },
}

/// Errors from [`Transport::send`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// No route is known for the destination node.
    NoRoute(NodeId),
    /// The destination's link is currently down (fail-stop detected or
    /// never established); the frame was dropped.
    PeerDown(NodeId),
    /// The transport has been shut down.
    Closed,
    /// The payload exceeds the transport's frame bound.
    Oversized {
        /// Attempted payload length.
        len: usize,
        /// Transport's maximum payload.
        max: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoRoute(n) => write!(f, "no route to {n}"),
            TransportError::PeerDown(n) => write!(f, "peer {n} is down"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Oversized { len, max } => {
                write!(f, "payload {len} bytes exceeds frame bound {max}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A byte-frame mesh between nodes with peer-liveness events.
///
/// Semantics every backend must provide:
///
/// * **FIFO per peer**: frames queued to one destination arrive in send
///   order (or not at all, if the link fails — fail-stop, no holes).
/// * **Atomicity**: a frame is delivered whole and checksum-clean or
///   never surfaced.
/// * **Detection**: loss of a peer eventually surfaces as
///   [`TransportEvent::PeerDown`]; a restarted peer re-announces with a
///   higher incarnation and surfaces as `PeerDown` (old) then
///   [`TransportEvent::PeerUp`] (new).
pub trait Transport: Send + Sync {
    /// The node this transport endpoint speaks for.
    fn local_node(&self) -> NodeId;

    /// The address peers should dial to reach this endpoint (e.g.
    /// `127.0.0.1:41712`), if the backend has one.
    fn local_addr(&self) -> Option<String>;

    /// Install or replace the dial route for `peer`. For backends
    /// without addressing this is a no-op.
    fn set_route(&self, peer: NodeId, addr: String);

    /// Send `payload` to `peer`, FIFO with every other frame for that
    /// peer. The caller's thread writes an established link itself;
    /// while the link is down the frame waits for it. `Ok` means the
    /// frame was accepted — delivery remains asynchronous and fail-stop:
    /// a frame lost with its link surfaces as `PeerDown`, not here.
    fn send(&self, peer: NodeId, payload: Vec<u8>) -> Result<(), TransportError>;

    /// Wait up to `timeout` for every frame accepted by [`send`] to be
    /// handed to the OS (or dropped by a fail-stop verdict). Returns
    /// `true` once no frame waits for a link, `false` on timeout.
    /// The explicit teardown primitive: a process about to `exit`
    /// flushes instead of sleeping an arbitrary grace period. Backends
    /// that deliver synchronously return `true` immediately.
    ///
    /// [`send`]: Transport::send
    fn flush(&self, _timeout: Duration) -> bool {
        true
    }

    /// Replace this endpoint's [`FrameSink`]. Frames already queued for
    /// [`poll_event`](Transport::poll_event) stay there; liveness
    /// events always do.
    fn set_frame_sink(&self, sink: FrameSink);

    /// Wait up to `timeout` for the next transport event.
    fn poll_event(&self, timeout: Duration) -> Option<TransportEvent>;

    /// Tear down all links and background actors. Idempotent.
    fn shutdown(&self);
}
