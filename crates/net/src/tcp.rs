//! TCP socket [`Transport`] backend with fail-stop detection.
//!
//! Topology: every endpoint binds one listener and keeps, for each
//! destination it actually talks to, one dialled outbound **link**. The
//! thread that calls [`Transport::send`] writes the link's socket itself,
//! under the link's lock — lock order is the per-destination FIFO. A
//! frame sent while the link is down (first dial, redial, reroute) waits
//! in the link's pending queue, tagged with the route generation it was
//! addressed to; the **per-peer actor** (one thread) that dials drains
//! that queue under the same lock the moment the stream is up, so there
//! is one write path and queued frames precede inline ones. Beyond that
//! the actor only redials — capped exponential backoff plus deterministic
//! jitter (the same idiom the dispatcher uses for rank respawn), a
//! fail-stop verdict after `dial_deadline` of continuous failure —
//! follows reroutes, and pings an idle link.
//!
//! A write that fails, or that the peer does not drain within
//! `fail_after` (the stream's write timeout), kills the link: the frame
//! is lost, the link goes down like any other and the actor redials.
//! Fail-stop links do not hide holes behind silent retransmission.
//!
//! Detection is reader-driven. Each accepted connection starts with a
//! hello frame naming the dialer and its incarnation, after which the
//! dialer keeps the stream warm with heartbeat pings. The connection's
//! reader thread hands every verified application frame to the
//! endpoint's [`FrameSink`] and maps
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
//!
//! Every thread an endpoint spawns (acceptor, connection readers, link
//! actors) is joined by [`Transport::shutdown`]: each one checks the
//! closed flag at least once per read tick or wakes on its link's
//! signal, so the endpoint is gone — not merely told to go — within that
//! bound, and a process that shuts its transport down exits with no
//! socket thread still unwinding.

use crate::frame::{frame_header, Frame, FrameDecoder, FLAG_HELLO, FLAG_PING, MAX_FRAME_PAYLOAD};
use crate::transport::{
    event_sink, DownCause, FrameSink, Transport, TransportError, TransportEvent,
};
use crossbeam_channel::{unbounded, Receiver, Sender};
use mvr_core::ids::NodeId;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x6d76_7232;

/// Shortest keep-alive interval [`TcpConfig::heartbeat`] derives.
pub const HEARTBEAT_FLOOR: Duration = Duration::from_millis(5);

/// Detector timeouts of a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Reader-side silence window: no bytes for this long ⇒ the link is
    /// declared dead ([`DownCause::ReadTimeout`]). The keep-alive
    /// interval derives from it ([`heartbeat`](Self::heartbeat)).
    pub fail_after: Duration,
    /// First reconnect backoff step.
    pub dial_base: Duration,
    /// Backoff cap.
    pub dial_cap: Duration,
    /// Continuous dial failure beyond this ⇒ fail-stop
    /// ([`DownCause::DialFailed`]); queued frames are dropped (the
    /// protocol's retransmission layer owns redelivery).
    pub dial_deadline: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            fail_after: Duration::from_millis(500),
            dial_base: Duration::from_millis(2),
            dial_cap: Duration::from_millis(200),
            dial_deadline: Duration::from_secs(2),
        }
    }
}

impl TcpConfig {
    /// Idle interval after which a link actor emits a keep-alive ping:
    /// a tenth of `fail_after`, so ten pings may go missing before the
    /// peer's silence detector fires, and never below
    /// [`HEARTBEAT_FLOOR`].
    pub fn heartbeat(&self) -> Duration {
        (self.fail_after / 10).max(HEARTBEAT_FLOOR)
    }
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
    /// Where readers put application frames.
    sink: RwLock<FrameSink>,
    /// Address of each peer and its generation, bumped whenever the
    /// address changes (the peer reincarnated elsewhere).
    routes: Mutex<HashMap<NodeId, (String, u64)>>,
    peers: Mutex<HashMap<NodeId, PeerState>>,
    closed: AtomicBool,
    /// Application frames accepted by `send` that wait for a link (not
    /// yet written, nor dropped by fail-stop) — what `flush` waits on.
    inflight: AtomicU64,
    /// Every worker thread this endpoint spawned; `shutdown` joins them.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Spawn one of the endpoint's worker threads, to be joined at
    /// shutdown; refused once the endpoint is closed (shutdown may have
    /// collected the last handles already).
    fn spawn(&self, name: String, work: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let mut threads = self.threads.lock();
        if self.closed() {
            return Err(ErrorKind::NotConnected.into());
        }
        threads.push(thread::Builder::new().name(name).spawn(work)?);
        Ok(())
    }

    /// Join every worker thread, including those spawned by workers
    /// being joined (a reader its acceptor started), except the caller.
    fn join_workers(&self) {
        let me = thread::current().id();
        loop {
            let batch = std::mem::take(&mut *self.threads.lock());
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                if handle.thread().id() != me {
                    let _ = handle.join();
                }
            }
        }
    }

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

/// The outbound half of the connection to one peer. Whoever holds the
/// lock around it may write the stream.
struct Link {
    /// The dialled stream; `None` while the actor (re)dials. A live
    /// stream is one link in `Shared::peers`.
    stream: Option<TcpStream>,
    /// Route generation `stream` was (or is being) dialled at.
    generation: u64,
    /// Frames that found the link down, oldest first, each with the
    /// route generation it was addressed to: one queued for a route that
    /// has since moved belongs to the peer's dead incarnation and must
    /// never reach its successor. Empty whenever a sender finds `stream`
    /// up at its generation — the actor drains it before unlocking.
    pending: VecDeque<(Vec<u8>, u64)>,
    /// When the stream last carried bytes; pings only fill silence.
    last_write: Instant,
}

impl Link {
    /// Write one frame, or lose it and the link with it. A stream that
    /// took part of a frame cannot take another, so any error — the
    /// write timeout included — is the link's death.
    fn write(&mut self, shared: &Shared, peer: NodeId, flags: u8, payload: &[u8]) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        match write_frame(stream, flags, payload) {
            Ok(()) => {
                self.last_write = Instant::now();
                true
            }
            Err(e) => {
                self.close(shared, peer, DownCause::Io(format!("write failed: {e}")));
                false
            }
        }
    }

    fn close(&mut self, shared: &Shared, peer: NodeId, cause: DownCause) {
        if self.stream.take().is_some() {
            shared.link_down(peer, cause);
        }
    }
}

/// A [`Link`] and the signal that wakes its actor: a write failed, the
/// route moved, or the transport closed.
struct PeerLink {
    link: Mutex<Link>,
    wake: Condvar,
}

impl PeerLink {
    /// Wake the actor. Taken under the link lock so that the actor is
    /// either waiting (and hears it) or yet to look at what changed.
    fn wake(&self) {
        let _link = self.link.lock();
        self.wake.notify_one();
    }
}

/// Socket-backed [`Transport`] endpoint.
pub struct TcpTransport {
    shared: Arc<Shared>,
    listener_addr: String,
    links: Mutex<HashMap<NodeId, Arc<PeerLink>>>,
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
        let listener_addr = listener.local_addr()?.to_string();
        let (ev_tx, ev_rx) = unbounded();
        let shared = Arc::new(Shared {
            node,
            incarnation,
            cfg,
            sink: RwLock::new(event_sink(ev_tx.clone())),
            events: ev_tx,
            routes: Mutex::new(HashMap::new()),
            peers: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        shared.spawn(format!("tcp-accept-{node}"), move || {
            accept_loop(listener, accept_shared)
        })?;
        Ok(TcpTransport {
            shared,
            listener_addr,
            links: Mutex::new(HashMap::new()),
            events: Mutex::new(ev_rx),
        })
    }

    /// The link to `peer`, starting its actor at first use.
    fn link_to(&self, peer: NodeId) -> Arc<PeerLink> {
        let mut links = self.links.lock();
        let link = links.entry(peer).or_insert_with(|| {
            let link = Arc::new(PeerLink {
                link: Mutex::new(Link {
                    stream: None,
                    generation: 0,
                    pending: VecDeque::new(),
                    last_write: Instant::now(),
                }),
                wake: Condvar::new(),
            });
            let (actor_link, shared) = (link.clone(), self.shared.clone());
            // Refused only after shutdown, when no frame leaves anyway.
            let _ = self
                .shared
                .spawn(format!("tcp-out-{}-{peer}", self.shared.node), move || {
                    link_actor(peer, &actor_link, &shared)
                });
            link
        });
        link.clone()
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
            // An existing actor must abandon its stream and redial.
            let link = self.links.lock().get(&peer).cloned();
            if let Some(link) = link {
                link.wake();
            }
        }
    }

    fn send(&self, peer: NodeId, payload: Vec<u8>) -> Result<(), TransportError> {
        if self.shared.closed() {
            return Err(TransportError::Closed);
        }
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(TransportError::Oversized {
                len: payload.len(),
                max: MAX_FRAME_PAYLOAD,
            });
        }
        let Some(addressed) = self.shared.generation(peer) else {
            return Err(TransportError::NoRoute(peer));
        };
        let peer_link = self.link_to(peer);
        let mut link = peer_link.link.lock();
        if addressed == link.generation && link.stream.is_some() {
            if !link.write(&self.shared, peer, 0, &payload) {
                // Lost with the link; the verdict is on the event queue.
                peer_link.wake.notify_one();
            }
            return Ok(());
        }
        // Addressed to a route the link has already left: the frame
        // belongs to the dead incarnation. Otherwise it waits for the
        // actor, which is dialling or about to hear of the reroute.
        if addressed >= link.generation {
            link.pending.push_back((payload, addressed));
            self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        }
        Ok(())
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

    fn set_frame_sink(&self, sink: FrameSink) {
        *self.shared.sink.write() = sink;
    }

    fn poll_event(&self, timeout: Duration) -> Option<TransportEvent> {
        self.events.lock().recv_timeout(timeout).ok()
    }

    fn shutdown(&self) {
        if !self.shared.closed.swap(true, Ordering::AcqRel) {
            // Every actor closes its stream on the way out; the accept
            // loop sits in a blocking `accept` until a connection
            // arrives; readers see the flag within a read tick.
            for (_, link) in self.links.lock().drain() {
                link.wake();
            }
            let _ = TcpStream::connect(&self.listener_addr);
        }
        self.shared.join_workers();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.closed() {
            return;
        }
        match stream {
            Ok(stream) => {
                let conn_shared = shared.clone();
                let _ = shared.spawn(format!("tcp-in-{}", shared.node), move || {
                    greet_conn(stream, conn_shared)
                });
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Decode the frames of one accepted connection into `on_frame` until
/// it breaks with a result or the link fails: EOF, an I/O error,
/// `fail_after` of silence, a codec violation, transport shutdown.
fn read_frames<T>(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    shared: &Shared,
    mut on_frame: impl FnMut(Frame) -> ControlFlow<Result<T, DownCause>>,
) -> Result<T, DownCause> {
    let mut last_byte = Instant::now();
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if let ControlFlow::Break(done) = on_frame(frame) {
                        return done;
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(DownCause::Corrupt(e.to_string())),
            }
        }
        if shared.closed() {
            return Err(DownCause::Closed);
        }
        match decoder.read_from(stream) {
            Ok(0) => return Err(DownCause::Eof),
            Ok(_) => last_byte = Instant::now(),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_byte.elapsed() > shared.cfg.fail_after {
                    return Err(DownCause::ReadTimeout);
                }
            }
            Err(e) => return Err(DownCause::Io(e.to_string())),
        }
    }
}

/// Greet one accepted connection: read the hello that names the dialer,
/// then serve the link from a thread that carries the peer in its name.
/// A connection that fails before its hello has no one to blame.
fn greet_conn(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // Short read timeout so the reader can check both the silence
    // window and transport shutdown frequently.
    let tick = shared
        .cfg
        .heartbeat()
        .clamp(HEARTBEAT_FLOOR, Duration::from_millis(50));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let mut decoder = FrameDecoder::new();
    let hello = read_frames(&mut stream, &mut decoder, &shared, |frame| {
        let hello = match frame.flags & FLAG_HELLO {
            0 => None,
            _ => decode_hello(&frame.payload),
        };
        ControlFlow::Break(hello.ok_or(DownCause::Corrupt("frame before hello".into())))
    });
    let Ok((peer, incarnation)) = hello else {
        return;
    };
    shared.link_up(peer, incarnation);
    let name = format!("tcp-in-{}-{peer}", shared.node);
    let reader = shared.spawn(name, {
        let shared = shared.clone();
        move || reader_conn(stream, decoder, peer, &shared)
    });
    if reader.is_err() {
        shared.link_down(peer, DownCause::Io("no reader thread".into()));
    }
}

/// Serve one greeted connection: every application frame goes to the
/// endpoint's sink, until the dialer dies (EOF / error / silence) — the
/// fail-stop detection point.
fn reader_conn(mut stream: TcpStream, mut decoder: FrameDecoder, peer: NodeId, shared: &Shared) {
    let end = read_frames::<()>(&mut stream, &mut decoder, shared, |frame| {
        if frame.flags & FLAG_HELLO != 0 {
            return ControlFlow::Break(Err(DownCause::Corrupt("bad hello".into())));
        }
        // A keep-alive's bytes already fed the silence timer.
        if frame.flags & FLAG_PING == 0 {
            (shared.sink.read())(peer, frame.payload);
        }
        ControlFlow::Continue(())
    });
    if let Err(cause) = end {
        shared.link_down(peer, cause);
    }
}

/// Per-peer link actor: dials `peer` — reconnecting on failure with
/// capped exponential backoff + jitter, degrading to a fail-stop verdict
/// only after `dial_deadline` of continuous failure — hands the pending
/// frames to each fresh stream, and keeps an idle one warm with pings.
fn link_actor(peer: NodeId, me: &PeerLink, shared: &Shared) {
    let cfg = &shared.cfg;
    let mut jitter = JITTER_SEED ^ hash_node(peer) | 1;
    let mut fail_since: Option<Instant> = None;
    let mut attempt: u32 = 0;
    let mut announced_dial_fail = false;
    let mut link = me.link.lock();
    loop {
        if shared.closed() {
            return link.close(shared, peer, DownCause::Closed);
        }
        let Some((addr, latest)) = shared.route(peer) else {
            return;
        };
        if link.generation != latest {
            // The peer reincarnated elsewhere: abandon the stream. The
            // new address owes nothing to the old one's failures.
            link.close(shared, peer, DownCause::Closed);
            link.generation = latest;
            fail_since = None;
            attempt = 0;
            announced_dial_fail = false;
        }
        if link.stream.is_some() {
            // Up: all that is left to do is keep the peer's silence
            // detector fed.
            match cfg.heartbeat().checked_sub(link.last_write.elapsed()) {
                Some(quiet) if !quiet.is_zero() => {
                    me.wake.wait_for(&mut link, quiet);
                }
                _ => {
                    link.write(shared, peer, FLAG_PING, &[]);
                }
            }
            continue;
        }
        // Down: dial without the lock — senders queue meanwhile.
        drop(link);
        let dialled = dial(&addr, shared);
        link = me.link.lock();
        match dialled {
            Ok(stream) => {
                fail_since = None;
                attempt = 0;
                announced_dial_fail = false;
                if shared.generation(peer) != Some(latest) {
                    continue;
                }
                link.stream = Some(stream);
                link.last_write = Instant::now();
                shared.link_up(peer, 0);
                // One write path: what waited for the link goes out
                // before anything a sender writes inline. A frame
                // addressed past this route stays: the reroute check
                // above deals with it.
                let due = |link: &Link| link.pending.front().is_some_and(|f| f.1 <= latest);
                while link.stream.is_some() && due(&link) {
                    let (payload, addressed) = link.pending.pop_front().expect("front is due");
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    // Queued for the dead incarnation's address:
                    // fail-stop links do not deliver a predecessor's
                    // traffic.
                    if addressed == latest {
                        link.write(shared, peer, 0, &payload);
                    }
                }
            }
            Err(_) => {
                let since = *fail_since.get_or_insert_with(Instant::now);
                if since.elapsed() > cfg.dial_deadline {
                    if !announced_dial_fail {
                        // Surface the verdict once so the supervisor
                        // can act on it.
                        let _ = shared.events.send(TransportEvent::PeerDown {
                            peer,
                            incarnation: shared.known_incarnation(peer),
                            cause: DownCause::DialFailed(addr.clone()),
                        });
                        announced_dial_fail = true;
                    }
                    // Fail-stop: stale frames must not reach a future
                    // reincarnation.
                    let queued = link.pending.len();
                    link.pending.retain(|(_, addressed)| *addressed > latest);
                    let dropped = (queued - link.pending.len()) as u64;
                    shared.inflight.fetch_sub(dropped, Ordering::AcqRel);
                }
                let exp = cfg.dial_base.saturating_mul(1u32 << attempt.min(7));
                let capped = exp.min(cfg.dial_cap);
                let j = Duration::from_micros(
                    xorshift(&mut jitter) % (capped.as_micros().max(1) as u64 / 2 + 1),
                );
                attempt = attempt.saturating_add(1);
                // A reroute ends the wait: the new address deserves an
                // immediate dial, not the old one's backoff.
                let until = Instant::now() + capped + j;
                while Instant::now() < until
                    && !shared.closed()
                    && shared.generation(peer) == Some(latest)
                {
                    me.wake.wait_until(&mut link, until);
                }
            }
        }
    }
}

/// Dial `addr` and perform the hello handshake (announce ourselves).
fn dial(addr: &str, shared: &Shared) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // A sender writes this stream itself: a peer that stopped reading
    // must cost it a bounded wait and a verdict, not a hang.
    stream.set_write_timeout(Some(shared.cfg.fail_after))?;
    let hello = hello_payload(shared.node, shared.incarnation);
    write_frame(&mut stream, FLAG_HELLO, &hello)?;
    Ok(stream)
}

/// Write one frame, header and payload in one vectored write — the
/// payload goes from the caller's buffer to the socket uncopied.
fn write_frame(stream: &mut TcpStream, flags: u8, payload: &[u8]) -> io::Result<()> {
    let header = frame_header(flags, payload);
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn hash_node(node: NodeId) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use mvr_core::ids::{NodeId, Rank};

    fn cn(r: u32) -> NodeId {
        NodeId::Computing(Rank(r))
    }

    fn quick_cfg() -> TcpConfig {
        TcpConfig {
            fail_after: Duration::from_millis(250),
            dial_base: Duration::from_millis(1),
            dial_cap: Duration::from_millis(20),
            dial_deadline: Duration::from_millis(600),
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

    /// Names of this process's threads (as the kernel truncates them)
    /// that contain `tag`.
    #[cfg(target_os = "linux")]
    fn threads_named(tag: &str) -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .filter(|comm| comm.starts_with("tcp-") && comm.contains(tag))
            .collect()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn shutdown_joins_every_thread_the_endpoint_spawned() {
        // Node numbers no other test uses, so the thread names below
        // are this endpoint's alone.
        let (x, y) = (cn(90), cn(91));
        let a = TcpTransport::bind(x, "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(y, "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(y, b.local_addr().unwrap());
        b.set_route(x, a.local_addr().unwrap());
        // Live links both ways: `a` runs an acceptor, a link actor and a
        // connection reader.
        a.send(y, b"ping".to_vec()).unwrap();
        b.send(x, b"pong".to_vec()).unwrap();
        for (t, payload) in [(&b, &b"ping"[..]), (&a, &b"pong"[..])] {
            assert!(wait_for(t, Duration::from_secs(5), |e| matches!(
                e,
                TransportEvent::Frame { payload: p, .. } if p == payload
            ))
            .is_some());
        }
        let running = threads_named("cn90");
        assert!(
            running.len() >= 3,
            "acceptor, actor and reader expected: {running:?}"
        );
        a.shutdown();
        assert_eq!(threads_named("cn90"), Vec::<String>::new());
        b.shutdown();
        assert_eq!(threads_named("cn91"), Vec::<String>::new());
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

    fn up(peer: NodeId) -> impl Fn(&TransportEvent) -> bool {
        move |e| matches!(e, TransportEvent::PeerUp { peer: p, .. } if *p == peer)
    }

    /// Collect `n` application frames, in arrival order.
    fn frames(t: &TcpTransport, n: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while got.len() < n {
            match wait_for(t, Duration::from_secs(10), |e| {
                matches!(e, TransportEvent::Frame { .. })
            }) {
                Some(TransportEvent::Frame { payload, .. }) => got.push(payload),
                _ => panic!("only {}/{n} frames arrived", got.len()),
            }
        }
        got
    }

    /// On an established link the sender writes the socket itself:
    /// nothing is left for `flush` to wait for when `send` returns.
    #[test]
    fn send_on_an_established_link_leaves_nothing_to_flush() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b.local_addr().unwrap());
        a.send(cn(1), b"dial".to_vec()).unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), up(cn(1))).is_some());
        a.send(cn(1), b"inline".to_vec()).unwrap();
        assert!(a.flush(Duration::ZERO), "an inline write is not in flight");
        assert_eq!(frames(&b, 2), [b"dial".to_vec(), b"inline".to_vec()]);
    }

    /// Frames that waited for the first dial go out, in order, before
    /// anything written inline once the link is up.
    #[test]
    fn frames_queued_before_the_link_is_up_precede_inline_ones() {
        // A port nobody listens on yet: the dial fails, the frames wait.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cfg = TcpConfig {
            dial_deadline: Duration::from_secs(60),
            ..quick_cfg()
        };
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, cfg).unwrap();
        a.set_route(cn(1), port.to_string());
        for i in 0..5u8 {
            a.send(cn(1), vec![i]).unwrap();
        }
        assert!(!a.flush(Duration::ZERO), "nobody to write to yet");
        let b = TcpTransport::bind(cn(1), &port.to_string(), 1, quick_cfg()).unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), up(cn(1))).is_some());
        for i in 5..10u8 {
            a.send(cn(1), vec![i]).unwrap();
        }
        assert!(a.flush(Duration::ZERO));
        let got: Vec<u8> = frames(&b, 10).iter().map(|f| f[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    /// Two threads writing one link: frames of very different sizes
    /// arrive whole and in each sender's order.
    #[test]
    fn concurrent_senders_interleave_whole_frames_in_sender_order() {
        const PER: u32 = 200;
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        a.set_route(cn(1), b.local_addr().unwrap());
        let frame = |sender: u8, seq: u32, len: usize| {
            let mut f = vec![sender; len];
            f[1..5].copy_from_slice(&seq.to_le_bytes());
            f
        };
        let got = thread::scope(|s| {
            for (sender, len) in [(1u8, 64), (2u8, 64 << 10)] {
                let a = &a;
                s.spawn(move || {
                    for seq in 0..PER {
                        a.send(cn(1), frame(sender, seq, len)).unwrap();
                    }
                });
            }
            frames(&b, 2 * PER as usize)
        });
        for (sender, len) in [(1u8, 64), (2u8, 64 << 10)] {
            let of_sender = got.iter().filter(|f| f[0] == sender);
            let expected = (0..PER).map(|seq| frame(sender, seq, len));
            assert!(of_sender.eq(expected.collect::<Vec<_>>().iter()));
        }
    }

    /// A peer that accepts the hello and then stops reading costs the
    /// sender one bounded wait and a fail-stop verdict — not a hang.
    #[test]
    fn a_peer_that_stops_reading_fails_the_link_instead_of_hanging_the_sender() {
        let deaf = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = TcpConfig {
            fail_after: Duration::from_millis(100),
            ..quick_cfg()
        };
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, cfg).unwrap();
        a.set_route(cn(9), deaf.local_addr().unwrap().to_string());
        a.send(cn(9), b"dial".to_vec()).unwrap();
        let _held = deaf.accept().unwrap();
        assert!(wait_for(&a, Duration::from_secs(5), up(cn(9))).is_some());
        // Inline writes from here on: push past the socket buffers.
        // The send that times out has the verdict queued when it returns.
        let down = (0..4096).find_map(|_| {
            a.send(cn(9), vec![7u8; 64 << 10]).unwrap();
            a.poll_event(Duration::ZERO)
        });
        assert!(
            matches!(
                &down,
                Some(TransportEvent::PeerDown { peer, cause: DownCause::Io(_), .. }) if *peer == cn(9)
            ),
            "a timed-out write is a dead link: {down:?}"
        );
    }

    /// With a sink installed, the connection's reader delivers frames
    /// there; the event queue keeps only liveness.
    #[test]
    fn frame_sink_takes_frames_off_the_event_queue() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let b = TcpTransport::bind(cn(1), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        let (tx, rx) = unbounded();
        b.set_frame_sink(Arc::new(move |from, payload: mvr_core::Payload| {
            let reader = thread::current().name().map(str::to_owned);
            let _ = tx.send((from, payload.to_vec(), reader));
        }));
        a.set_route(cn(1), b.local_addr().unwrap());
        a.send(cn(1), b"sunk".to_vec()).unwrap();
        let (from, payload, reader) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload), (cn(0), b"sunk".to_vec()));
        assert_eq!(reader.as_deref(), Some("tcp-in-cn1-cn0"));
        assert!(wait_for(&b, Duration::from_secs(5), up(cn(0))).is_some());
        assert!(b.poll_event(Duration::ZERO).is_none());
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
    fn heartbeat_is_a_tenth_of_the_silence_window_and_never_below_its_floor() {
        assert_eq!(TcpConfig::default().heartbeat(), Duration::from_millis(50));
        for ms in [0, 1, 49, 50, 51, 250, 10_000] {
            let cfg = TcpConfig {
                fail_after: Duration::from_millis(ms),
                ..TcpConfig::default()
            };
            let expected = Duration::from_millis(ms) / 10;
            assert_eq!(cfg.heartbeat(), expected.max(HEARTBEAT_FLOOR), "{ms} ms");
        }
    }

    #[test]
    fn send_without_route_is_typed_error() {
        let a = TcpTransport::bind(cn(0), "127.0.0.1:0", 1, quick_cfg()).unwrap();
        assert_eq!(a.send(cn(7), vec![1]), Err(TransportError::NoRoute(cn(7))));
        // Zeroed pages: the oversized buffer is never touched.
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert_eq!(
            a.send(cn(7), big),
            Err(TransportError::Oversized {
                len: MAX_FRAME_PAYLOAD + 1,
                max: MAX_FRAME_PAYLOAD
            })
        );
    }
}
