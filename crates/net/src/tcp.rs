//! TCP socket [`Transport`] backend with fail-stop detection.
//!
//! Topology: every endpoint binds one listener; for each destination it
//! actually talks to, a **per-peer connection actor** (one thread) owns
//! a dialed outbound stream and drains a FIFO frame queue into it —
//! preserving per-destination ordering across reconnects. Transient
//! dial/write errors are retried with capped exponential backoff plus
//! deterministic jitter (the same idiom the dispatcher uses for rank
//! respawn); only after `dial_deadline` of continuous failure does the
//! link degrade to a fail-stop verdict.
//!
//! Detection is reader-driven. Each accepted connection starts with a
//! hello frame naming the dialer and its incarnation, after which the
//! dialer keeps the stream warm with heartbeat pings. The acceptor maps
//!
//! * EOF / connection reset        → [`DownCause::Eof`] / [`DownCause::Io`]
//! * silence beyond `fail_after`   → [`DownCause::ReadTimeout`]
//! * any frame-codec violation     → [`DownCause::Corrupt`]
//!
//! onto [`TransportEvent::PeerDown`] once a peer's last live link is
//! gone — the exact signal the supervising dispatcher converts into
//! `RankLost` / replica-dead handling. A restarted peer re-dials with a
//! higher incarnation; the acceptor then synthesizes `PeerDown` (old)
//! followed by `PeerUp` (new), so reincarnation is never mistaken for
//! continuity.

use crate::frame::{
    encode_frame, FrameDecoder, FLAG_HELLO, FLAG_PING, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use crate::transport::{DownCause, Transport, TransportError, TransportEvent};
use crossbeam_channel::{unbounded, Receiver, Sender};
use mvr_core::ids::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Largest accepted frame payload.
    pub max_frame: usize,
    /// Idle interval after which a connection actor emits a keep-alive
    /// ping (must be well under `fail_after`).
    pub heartbeat: Duration,
    /// Reader-side silence window: no bytes for this long ⇒ the link is
    /// declared dead ([`DownCause::ReadTimeout`]).
    pub fail_after: Duration,
    /// First reconnect backoff step.
    pub dial_base: Duration,
    /// Backoff cap.
    pub dial_cap: Duration,
    /// Continuous dial failure beyond this ⇒ fail-stop
    /// ([`DownCause::DialFailed`]); queued frames are dropped (the
    /// protocol's retransmission layer owns redelivery).
    pub dial_deadline: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_frame: MAX_FRAME_PAYLOAD,
            heartbeat: Duration::from_millis(50),
            fail_after: Duration::from_millis(500),
            dial_base: Duration::from_millis(2),
            dial_cap: Duration::from_millis(200),
            dial_deadline: Duration::from_secs(2),
            jitter_seed: 0x6d76_7232,
        }
    }
}

/// Commands consumed by a per-peer connection actor, in FIFO order with
/// the frames themselves.
enum Cmd {
    /// A frame, and the route generation it was addressed to: a frame
    /// queued for a route that has since moved belongs to the peer's
    /// dead incarnation and must never reach its successor.
    Frame(Vec<u8>, u64),
    /// The route changed (peer reincarnated elsewhere): wake up, drop
    /// the current stream and redial.
    Reroute,
}

struct PeerState {
    links: usize,
    incarnation: u64,
}

struct Shared {
    node: NodeId,
    incarnation: u64,
    cfg: TcpConfig,
    events: Sender<TransportEvent>,
    /// Address of each peer and its generation, bumped whenever the
    /// address changes (the peer reincarnated elsewhere).
    routes: Mutex<HashMap<NodeId, (String, u64)>>,
    peers: Mutex<HashMap<NodeId, PeerState>>,
    closed: AtomicBool,
    /// Application frames accepted by `send` but not yet written to a
    /// socket (or dropped by fail-stop) — what `flush` waits on.
    inflight: AtomicU64,
}

impl Shared {
    /// Record one live link to `peer` (announced at `incarnation`),
    /// emitting `PeerUp` on the 0→1 transition and a synthetic
    /// down/up pair when a known peer reappears reincarnated.
    fn link_up(&self, peer: NodeId, incarnation: u64) {
        let mut peers = self.peers.lock();
        let st = peers.entry(peer).or_insert(PeerState {
            links: 0,
            incarnation: 0,
        });
        if st.links > 0 && incarnation > st.incarnation {
            let old = st.incarnation;
            st.incarnation = incarnation;
            // The synthetic down names the *old* incarnation — it is a
            // verdict about the predecessor, and a supervisor that
            // already respawned the peer must not mistake it for a
            // death of the replacement.
            let _ = self.events.send(TransportEvent::PeerDown {
                peer,
                incarnation: old,
                cause: DownCause::Eof,
            });
            let _ = self
                .events
                .send(TransportEvent::PeerUp { peer, incarnation });
        } else {
            st.incarnation = st.incarnation.max(incarnation);
            if st.links == 0 {
                let inc = st.incarnation;
                let _ = self.events.send(TransportEvent::PeerUp {
                    peer,
                    incarnation: inc,
                });
            }
        }
        st.links += 1;
    }

    /// Drop one live link; the last one going away fires `PeerDown`.
    fn link_down(&self, peer: NodeId, cause: DownCause) {
        let mut peers = self.peers.lock();
        if let Some(st) = peers.get_mut(&peer) {
            st.links = st.links.saturating_sub(1);
            if st.links == 0 {
                let incarnation = st.incarnation;
                let _ = self.events.send(TransportEvent::PeerDown {
                    peer,
                    incarnation,
                    cause,
                });
            }
        }
    }

    /// The last incarnation observed for `peer` (0 before any hello).
    fn known_incarnation(&self, peer: NodeId) -> u64 {
        self.peers.lock().get(&peer).map_or(0, |s| s.incarnation)
    }

    fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn route(&self, peer: NodeId) -> Option<(String, u64)> {
        self.routes.lock().get(&peer).cloned()
    }

    fn generation(&self, peer: NodeId) -> Option<u64> {
        self.routes.lock().get(&peer).map(|route| route.1)
    }
}

/// Socket-backed [`Transport`] endpoint.
pub struct TcpTransport {
    shared: Arc<Shared>,
    listener_addr: String,
    writers: Mutex<HashMap<NodeId, Sender<Cmd>>>,
    events: Mutex<Receiver<TransportEvent>>,
}

fn hello_payload(node: NodeId, incarnation: u64) -> Vec<u8> {
    bincode::serialize(&(node, incarnation)).expect("hello encodes")
}

fn decode_hello(payload: &[u8]) -> Option<(NodeId, u64)> {
    bincode::deserialize(payload).ok()
}

/// xorshift64* step — deterministic jitter without pulling in `rand`.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl TcpTransport {
    /// Bind a listener at `bind_addr` (use port 0 for an ephemeral
    /// port — the respawn-safe choice, since a fresh port can never
    /// collide with the old socket lingering in TIME_WAIT) and start
    /// the accept loop. `incarnation` is announced in every hello this
    /// endpoint dials with; restarted processes must pass a strictly
    /// larger value.
    pub fn bind(
        node: NodeId,
        bind_addr: &str,
        incarnation: u64,
        cfg: TcpConfig,
    ) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind(bind_addr)?;
        listener.set_nonblocking(true)?;
        let listener_addr = listener.local_addr()?.to_string();
        let (ev_tx, ev_rx) = unbounded();
        let shared = Arc::new(Shared {
            node,
            incarnation,
            cfg,
            events: ev_tx,
            routes: Mutex::new(HashMap::new()),
            peers: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        thread::Builder::new()
            .name(format!("tcp-accept-{node}"))
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept loop");
        Ok(TcpTransport {
            shared,
            listener_addr,
            writers: Mutex::new(HashMap::new()),
            events: Mutex::new(ev_rx),
        })
    }

    /// The peer currently known incarnation, if any (diagnostics).
    pub fn incarnation_of(&self, peer: NodeId) -> Option<u64> {
        self.shared.peers.lock().get(&peer).map(|s| s.incarnation)
    }
}

impl Transport for TcpTransport {
    fn local_node(&self) -> NodeId {
        self.shared.node
    }

    fn local_addr(&self) -> Option<String> {
        Some(self.listener_addr.clone())
    }

    fn set_route(&self, peer: NodeId, addr: String) {
        let moved = {
            let mut routes = self.shared.routes.lock();
            match routes.get_mut(&peer) {
                // Re-announcing a known address is not a reincarnation.
                Some((known, _)) if *known == addr => false,
                Some((known, generation)) => {
                    *known = addr;
                    *generation += 1;
                    true
                }
                None => {
                    routes.insert(peer, (addr, 0));
                    false
                }
            }
        };
        if moved {
            // Existing actor must abandon its stream and redial.
            if let Some(tx) = self.writers.lock().get(&peer) {
                let _ = tx.send(Cmd::Reroute);
            }
        }
    }

    fn send(&self, peer: NodeId, payload: Vec<u8>) -> Result<(), TransportError> {
        if self.shared.closed() {
            return Err(TransportError::Closed);
        }
        if payload.len() > self.shared.cfg.max_frame {
            return Err(TransportError::Oversized {
                len: payload.len(),
                max: self.shared.cfg.max_frame,
            });
        }
        let Some(generation) = self.shared.generation(peer) else {
            return Err(TransportError::NoRoute(peer));
        };
        let frame = encode_frame(0, &payload);
        let mut writers = self.writers.lock();
        let tx = match writers.entry(peer) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let (tx, rx) = unbounded();
                let shared = self.shared.clone();
                thread::Builder::new()
                    .name(format!("tcp-out-{}-{peer}", self.shared.node))
                    .spawn(move || writer_actor(peer, rx, shared))
                    .expect("spawn writer actor");
                e.insert(tx)
            }
        };
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        tx.send(Cmd::Frame(frame, generation)).map_err(|_| {
            self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
            TransportError::Closed
        })
    }

    fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.inflight.load(Ordering::Acquire) == 0 {
                return true;
            }
            if Instant::now() >= deadline || self.shared.closed() {
                return self.shared.inflight.load(Ordering::Acquire) == 0;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn poll_event(&self, timeout: Duration) -> Option<TransportEvent> {
        self.events.lock().recv_timeout(timeout).ok()
    }

    fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        // Dropping the queues wakes every writer actor.
        self.writers.lock().clear();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.closed() {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = shared.clone();
                let name = format!("tcp-in-{}", shared.node);
                let _ = thread::Builder::new()
                    .name(name)
                    .spawn(move || reader_conn(stream, conn_shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serve one accepted connection: handshake, then decode data frames
/// until the dialer dies (EOF / error / silence) — the fail-stop
/// detection point.
fn reader_conn(stream: TcpStream, shared: Arc<Shared>) {
    let cfg = shared.cfg.clone();
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Short read timeout so the loop can check both the silence window
    // and transport shutdown frequently.
    let tick = cfg
        .heartbeat
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(5));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let mut stream = stream;
    let mut decoder = FrameDecoder::with_max_payload(cfg.max_frame);
    let mut peer: Option<NodeId> = None;
    let mut buf = vec![0u8; 64 * 1024];
    let mut last_byte = Instant::now();
    let down = |peer: &Option<NodeId>, cause: DownCause, shared: &Shared| {
        if let Some(p) = peer {
            shared.link_down(*p, cause);
        }
    };
    loop {
        if shared.closed() {
            down(&peer, DownCause::Closed, &shared);
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                down(&peer, DownCause::Eof, &shared);
                return;
            }
            Ok(n) => {
                last_byte = Instant::now();
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if frame.flags & FLAG_HELLO != 0 {
                                match decode_hello(&frame.payload) {
                                    Some((node, incarnation)) if peer.is_none() => {
                                        peer = Some(node);
                                        shared.link_up(node, incarnation);
                                    }
                                    _ => {
                                        down(
                                            &peer,
                                            DownCause::Corrupt("bad hello".into()),
                                            &shared,
                                        );
                                        return;
                                    }
                                }
                            } else if frame.flags & FLAG_PING != 0 {
                                // Keep-alive: its bytes already fed the
                                // silence timer.
                            } else if let Some(from) = peer {
                                let _ = shared.events.send(TransportEvent::Frame {
                                    from,
                                    payload: frame.payload,
                                });
                            } else {
                                // Data before hello: protocol violation.
                                down(
                                    &peer,
                                    DownCause::Corrupt("frame before hello".into()),
                                    &shared,
                                );
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            down(&peer, DownCause::Corrupt(e.to_string()), &shared);
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_byte.elapsed() > cfg.fail_after {
                    down(&peer, DownCause::ReadTimeout, &shared);
                    return;
                }
            }
            Err(e) => {
                down(&peer, DownCause::Io(e.to_string()), &shared);
                return;
            }
        }
    }
}

/// Per-peer connection actor: owns the outbound stream to `peer`,
/// drains the FIFO command queue into it, reconnects on transient
/// failure with capped exponential backoff + jitter, and degrades to a
/// fail-stop verdict only after `dial_deadline` of continuous failure.
fn writer_actor(peer: NodeId, rx: Receiver<Cmd>, shared: Arc<Shared>) {
    let cfg = shared.cfg.clone();
    let mut jitter = cfg.jitter_seed ^ hash_node(peer) | 1;
    let mut conn: Option<TcpStream> = None;
    let mut out_link_up = false;
    let mut fail_since: Option<Instant> = None;
    let mut attempt: u32 = 0;
    let mut announced_dial_fail = false;
    // Generation of the route `conn` was (or is being) dialed at.
    let mut generation = 0;
    // A frame addressed past `generation`, held while we catch up.
    let mut held: Option<Cmd> = None;
    loop {
        if shared.closed() {
            if out_link_up {
                shared.link_down(peer, DownCause::Closed);
            }
            return;
        }
        if conn.is_none() {
            // (Re)dial — backoff with jitter, reusing the dispatcher's
            // doubling idiom.
            let Some((addr, latest)) = shared.route(peer) else {
                return;
            };
            if latest != generation {
                // First dial of a new address: it owes nothing to the
                // old one's failures.
                generation = latest;
                fail_since = None;
                attempt = 0;
                announced_dial_fail = false;
            }
            match dial(&addr, &shared) {
                Ok(stream) => {
                    conn = Some(stream);
                    fail_since = None;
                    attempt = 0;
                    announced_dial_fail = false;
                    shared.link_up(peer, 0);
                    out_link_up = true;
                }
                Err(_) => {
                    let since = *fail_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > cfg.dial_deadline {
                        if out_link_up {
                            shared.link_down(peer, DownCause::DialFailed(addr.clone()));
                            out_link_up = false;
                        } else if !announced_dial_fail {
                            // Never-reached peer: surface the verdict
                            // once so the supervisor can act on it.
                            let _ = shared.events.send(TransportEvent::PeerDown {
                                peer,
                                incarnation: shared.known_incarnation(peer),
                                cause: DownCause::DialFailed(addr.clone()),
                            });
                            announced_dial_fail = true;
                        }
                        // Fail-stop: stale frames must not reach a
                        // future reincarnation.
                        while let Ok(cmd) = rx.try_recv() {
                            match cmd {
                                Cmd::Reroute => break,
                                Cmd::Frame(..) => {
                                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                                }
                            }
                        }
                    }
                    let exp = cfg.dial_base.saturating_mul(1u32 << attempt.min(7));
                    let capped = exp.min(cfg.dial_cap);
                    let j = Duration::from_micros(
                        xorshift(&mut jitter) % (capped.as_micros().max(1) as u64 / 2 + 1),
                    );
                    attempt = attempt.saturating_add(1);
                    // A reroute ends the wait: the new address deserves
                    // an immediate dial, not the old one's backoff.
                    let until = Instant::now() + capped + j;
                    let rerouted = || shared.generation(peer) != Some(generation);
                    while Instant::now() < until && !shared.closed() && !rerouted() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
            }
        }
        let cmd = match held.take() {
            Some(cmd) => Ok(cmd),
            None => rx.recv_timeout(cfg.heartbeat),
        };
        let moved = match &cmd {
            Ok(Cmd::Frame(_, addressed)) => *addressed > generation,
            Ok(Cmd::Reroute) => shared.generation(peer) != Some(generation),
            Err(_) => false,
        };
        if moved {
            // The peer reincarnated elsewhere: abandon the stream — the
            // redial above picks the new route up. A frame already
            // addressed to it waits for that.
            if let Ok(cmd @ Cmd::Frame(..)) = cmd {
                held = Some(cmd);
            }
            conn = None;
            if out_link_up {
                shared.link_down(peer, DownCause::Closed);
                out_link_up = false;
            }
            continue;
        }
        match cmd {
            Ok(Cmd::Frame(_, addressed)) if addressed < generation => {
                // Queued for the dead incarnation's address: fail-stop
                // links do not deliver a predecessor's traffic.
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            }
            Ok(Cmd::Frame(frame, _)) => {
                let result = conn.as_mut().expect("connected").write_all(&frame);
                // Written or lost, the frame left the queue either way.
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                if result.is_err() {
                    // Transient write failure: drop the stream and let
                    // the redial path decide transient vs. fail-stop.
                    // The frame is lost — fail-stop links do not hide
                    // holes behind silent retransmission.
                    conn = None;
                    if out_link_up {
                        shared.link_down(peer, DownCause::Io("write failed".into()));
                        out_link_up = false;
                    }
                }
            }
            // A reroute the redial path already caught up with.
            Ok(Cmd::Reroute) => {}
            Err(RecvTimeoutError::Timeout) => {
                // Idle: keep the peer's silence detector fed.
                if let Some(stream) = conn.as_mut() {
                    if stream.write_all(&encode_frame(FLAG_PING, &[])).is_err() {
                        conn = None;
                        if out_link_up {
                            shared.link_down(peer, DownCause::Io("ping failed".into()));
                            out_link_up = false;
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                if out_link_up {
                    shared.link_down(peer, DownCause::Closed);
                }
                return;
            }
        }
    }
}

/// Dial `addr` and perform the hello handshake (announce ourselves).
fn dial(addr: &str, shared: &Shared) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let hello = encode_frame(FLAG_HELLO, &hello_payload(shared.node, shared.incarnation));
    stream.write_all(&hello)?;
    Ok(stream)
}

fn hash_node(node: NodeId) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

// Silence an unused-constant lint if header length is only used in docs.
const _: usize = FRAME_HEADER_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::ids::{NodeId, Rank};

    fn cn(r: u32) -> NodeId {
        NodeId::Computing(Rank(r))
    }

    fn quick_cfg() -> TcpConfig {
        TcpConfig {
            heartbeat: Duration::from_millis(20),
            fail_after: Duration::from_millis(250),
            dial_base: Duration::from_millis(1),
            dial_cap: Duration::from_millis(20),
            dial_deadline: Duration::from_millis(600),
            ..TcpConfig::default()
        }
    }

    fn wait_for<F: Fn(&TransportEvent) -> bool>(
        t: &TcpTransport,
        deadline: Duration,
        pred: F,
    ) -> Option<TransportEvent> {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if let Some(ev) = t.poll_event(Duration::from_millis(50)) {
                if pred(&ev) {
                    return Some(ev);
                }
            }
        }
        None
    }

    #[test]
    fn frames_roundtrip_between_two_endpoints() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b.local_addr().unwrap());
        b.set_route(cn(0), a.local_addr().unwrap());
        for i in 0..20u8 {
            a.send(cn(1), vec![i, i]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 20 {
            match wait_for(&b, Duration::from_secs(5), |e| {
                matches!(e, TransportEvent::Frame { .. })
            }) {
                Some(TransportEvent::Frame { from, payload }) => {
                    assert_eq!(from, cn(0));
                    got.push(payload[0]);
                }
                _ => panic!("frame missing after {got:?}"),
            }
        }
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        // Reverse direction too.
        b.send(cn(0), b"pong".to_vec()).unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), |e| matches!(
            e,
            TransportEvent::Frame { payload, .. } if payload == b"pong"
        ))
        .is_some());
    }

    #[test]
    fn flush_drains_outbound_queues() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b.local_addr().unwrap());
        for i in 0..50u8 {
            a.send(cn(1), vec![i; 512]).unwrap();
        }
        assert!(
            a.flush(Duration::from_secs(5)),
            "queued frames must drain to the OS"
        );
        // Everything handed to the OS before flush returned arrives.
        let mut got = 0;
        while got < 50 {
            match wait_for(&b, Duration::from_secs(5), |e| {
                matches!(e, TransportEvent::Frame { .. })
            }) {
                Some(TransportEvent::Frame { .. }) => got += 1,
                _ => panic!("only {got}/50 frames arrived"),
            }
        }
        // An idle transport flushes immediately.
        assert!(a.flush(Duration::from_millis(1)));
    }

    #[test]
    fn peer_shutdown_detected_as_peer_down() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        b.set_route(cn(0), a.local_addr().unwrap());
        b.send(cn(0), b"hi".to_vec()).unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), |e| matches!(
            e,
            TransportEvent::PeerUp { peer, .. } if *peer == cn(1)
        ))
        .is_some());
        b.shutdown();
        let down = wait_for(
            &a,
            Duration::from_secs(5),
            |e| matches!(e, TransportEvent::PeerDown { peer, .. } if *peer == cn(1)),
        );
        assert!(down.is_some(), "shutdown of b must fail-stop the link at a");
    }

    #[test]
    fn silent_peer_times_out() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        // Raw client: valid hello for cn(9), then total silence.
        let mut raw = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        raw.write_all(&encode_frame(FLAG_HELLO, &hello_payload(cn(9), 3)))
            .unwrap();
        assert!(wait_for(&a, Duration::from_secs(2), |e| matches!(
            e,
            TransportEvent::PeerUp { peer, incarnation } if *peer == cn(9) && *incarnation == 3
        ))
        .is_some());
        let down = wait_for(&a, Duration::from_secs(3), |e| {
            matches!(
                e,
                TransportEvent::PeerDown { peer, cause: DownCause::ReadTimeout, .. } if *peer == cn(9)
            )
        });
        assert!(
            down.is_some(),
            "silence must trip the read-timeout detector"
        );
        drop(raw);
    }

    #[test]
    fn corrupt_stream_is_rejected_without_panic() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let mut raw = TcpStream::connect(a.local_addr().unwrap()).unwrap();
        raw.write_all(b"garbage garbage garbage garbage").unwrap();
        // The connection is dropped server-side; no event (no hello ever
        // identified a peer) and the endpoint stays functional.
        thread::sleep(Duration::from_millis(100));
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        b.set_route(cn(0), a.local_addr().unwrap());
        b.send(cn(0), b"still alive".to_vec()).unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), |e| matches!(
            e,
            TransportEvent::Frame { payload, .. } if payload == b"still alive"
        ))
        .is_some());
    }

    #[test]
    fn reroute_reaches_reincarnated_peer() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b1 = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b1.local_addr().unwrap());
        a.send(cn(1), b"one".to_vec()).unwrap();
        assert!(wait_for(&b1, Duration::from_secs(5), |e| matches!(
            e,
            TransportEvent::Frame { payload, .. } if payload == b"one"
        ))
        .is_some());
        // Reincarnate at a fresh ephemeral port (the TIME_WAIT-proof
        // respawn path) and reroute.
        b1.shutdown();
        let b2 = TcpTransport::bind(cn(1), "127.0.0.1:0", 2, quick_cfg()).unwrap();
        a.set_route(cn(1), b2.local_addr().unwrap());
        a.send(cn(1), b"two".to_vec()).unwrap();
        assert!(wait_for(&b2, Duration::from_secs(5), |e| matches!(
            e,
            TransportEvent::Frame { payload, .. } if payload == b"two"
        ))
        .is_some());
    }

    #[test]
    fn frames_queued_for_a_dead_route_never_reach_the_reincarnation() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b1 = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b1.local_addr().unwrap());
        a.send(cn(1), b"live".to_vec()).unwrap();
        let live = |e: &TransportEvent| matches!(e, TransportEvent::Frame { .. });
        assert!(wait_for(&b1, Duration::from_secs(5), live).is_some());
        // The peer dies; traffic to it piles up behind the failing dial.
        drop(b1);
        for _ in 0..20 {
            a.send(cn(1), b"stale".to_vec()).unwrap();
            thread::sleep(Duration::from_millis(2));
        }
        let b2 = TcpTransport::bind(cn(1), "127.0.0.1:0", 2, quick_cfg()).unwrap();
        a.set_route(cn(1), b2.local_addr().unwrap());
        a.send(cn(1), b"fresh".to_vec()).unwrap();
        // The successor sees the post-reroute frame first — none of its
        // predecessor's — and nothing stale trails in behind it.
        let first = wait_for(&b2, Duration::from_secs(5), live);
        assert!(
            matches!(&first, Some(TransportEvent::Frame { payload, .. }) if payload == b"fresh"),
            "{first:?}"
        );
        assert!(wait_for(&b2, Duration::from_millis(200), live).is_none());
        // Re-announcing the same address is not a reroute.
        a.set_route(cn(1), b2.local_addr().unwrap());
        a.send(cn(1), b"again".to_vec()).unwrap();
        assert!(wait_for(&b2, Duration::from_secs(5), live).is_some());
    }

    #[test]
    fn send_without_route_is_typed_error() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        assert_eq!(a.send(cn(7), vec![1]), Err(TransportError::NoRoute(cn(7))));
        let big = vec![0u8; 8];
        let mut cfg = quick_cfg();
        cfg.max_frame = 4;
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, cfg).unwrap();
        b.set_route(cn(0), a.local_addr().unwrap());
        assert_eq!(
            b.send(cn(0), big),
            Err(TransportError::Oversized { len: 8, max: 4 })
        );
    }
}
