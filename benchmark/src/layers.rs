//! Layer drivers: loops in this package that time the public functions of
//! each crate from outside, one layer at a time. A driver runs `iters`
//! operations and returns the time they took, set-up excluded; the harness
//! sizes `iters` to a time slot and reports the median of [`RUNS`] runs.
//!
//! Apart from `mpi.pingpong_ns`, `eventlog.service_rtt_us` and the two TCP
//! drivers (whose layers own threads), every driver is single-threaded:
//! it measures the layer's own cost with no hand-off in it, which is what
//! `runtime.handoff_residual_us` subtracts from the end-to-end latency.

use mvr_ckpt::CheckpointStore;
use mvr_core::{
    CkptRequest, DataMsg, ElReply, ElRequest, EventBatch, ImageBlob, Input, MsgId, NodeId,
    NodeImage, Output, Payload, PeerMsg, Rank, ReceptionEvent, SenderLog, V2Engine,
};
use mvr_eventlog::{run_event_logger, ElPacket, EventLogStore};
use mvr_mpi::testing::run_local;
use mvr_mpi::{Source, Tag};
use mvr_net::mailbox::{bench_lanes, bench_pair};
use mvr_net::{
    encode_frame, Fabric, FrameDecoder, MemNet, TcpConfig, TcpTransport, Transport, TransportEvent,
};
use mvr_obs::{ProtoEvent, Recorder, RecorderConfig};
use mvr_runtime::proc::WireMsg;
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs per driver; the reported value is their median.
pub const RUNS: usize = 5;
/// Messages queued ahead in the two backlog drivers.
const BACKLOG: u64 = 4096;
const KIB64: usize = 65_536;

/// How a driver's time per operation becomes the reported value.
#[derive(Clone, Copy, Debug)]
pub enum Per {
    /// Nanoseconds per operation.
    Ns,
    /// Microseconds per operation.
    Us,
    /// 10⁶ bytes per second, an operation moving this many bytes.
    MbPerS(u64),
}

/// One layer driver.
pub struct Driver {
    /// Metric name (`layer.what_unit`).
    pub name: &'static str,
    /// Conversion and unit.
    pub per: Per,
    /// Run `iters` operations (rounded up to the driver's block size);
    /// returns (operations actually run, time they took).
    pub run: fn(u64) -> (u64, Duration),
}

/// A driver's median and the raw per-run samples behind it.
#[derive(Clone, Debug, Serialize)]
pub struct DriverResult {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median over runs.
    pub value: f64,
    /// Per-run cost of one operation, in picoseconds (integers, so the
    /// raw samples survive a JSON round trip exactly).
    pub ps_per_op: Vec<u64>,
}

impl Per {
    /// Unit of the reported value.
    pub fn unit(self) -> &'static str {
        match self {
            Per::Ns => "ns",
            Per::Us => "us",
            Per::MbPerS(_) => "MB/s",
        }
    }

    fn value(self, ns_per_op: f64) -> f64 {
        match self {
            Per::Ns => ns_per_op,
            Per::Us => ns_per_op / 1e3,
            // bytes / ns = GB/s; ×1000 = MB/s.
            Per::MbPerS(bytes) => bytes as f64 / ns_per_op * 1e3,
        }
    }
}

/// Run one driver: growing probes (which also warm it up) size `iters` so
/// that a run lasts about `slot`, then [`RUNS`] timed runs.
pub fn measure(d: &Driver, slot: Duration) -> DriverResult {
    let mut iters = 1;
    let iters = loop {
        let (n, t) = (d.run)(iters);
        let per_op = t.as_secs_f64() / n as f64;
        let wanted = ((slot.as_secs_f64() / per_op) as u64).max(1);
        if t * 4 >= slot || wanted <= n {
            break wanted;
        }
        iters = wanted.min(n * 16);
    };
    let mut ps_per_op: Vec<u64> = (0..RUNS)
        .map(|_| {
            let (n, t) = (d.run)(iters);
            (t.as_nanos() as f64 * 1e3 / n as f64) as u64
        })
        .collect();
    ps_per_op.sort_unstable();
    let ns: Vec<f64> = ps_per_op.iter().map(|&p| p as f64 / 1e3).collect();
    DriverResult {
        name: d.name,
        unit: d.per.unit(),
        value: d.per.value(crate::stats::median(&ns)),
        ps_per_op,
    }
}

/// Run every driver, `slot` per timed run.
pub fn measure_all(slot: Duration) -> Vec<DriverResult> {
    DRIVERS.iter().map(|d| measure(d, slot)).collect()
}

/// Time `blocks` blocks: `setup` (untimed) builds a block's state, `timed`
/// works on it, and whatever `timed` returns is dropped after the clock
/// stops. Returns the summed time of the `timed` parts.
fn blocks<S, R>(
    blocks: u64,
    mut setup: impl FnMut(u64) -> S,
    mut timed: impl FnMut(S) -> R,
) -> Duration {
    let mut total = Duration::ZERO;
    for b in 0..blocks {
        let state = setup(b);
        let t = Instant::now();
        let leftover = timed(state);
        total += t.elapsed();
        drop(leftover);
    }
    total
}

fn payload64() -> Payload {
    Payload::filled(7, 64)
}

fn cn(r: u32) -> NodeId {
    NodeId::Computing(Rank(r))
}

// ---- mvr-mpi ---------------------------------------------------------

fn mpi_pingpong(iters: u64) -> (u64, Duration) {
    let out = run_local(2, |mut mpi| {
        let me = mpi.rank().0;
        let peer = Rank(1 - me);
        let buf = [7u8; 64];
        mpi.barrier()?;
        let t = Instant::now();
        for _ in 0..iters {
            if me == 0 {
                mpi.send(peer, 1, &buf)?;
            }
            black_box(mpi.recv(Source::Rank(peer), Tag::Value(1))?);
            if me == 1 {
                mpi.send(peer, 1, &buf)?;
            }
        }
        Ok(t.elapsed())
    })
    .expect("local ping-pong runs");
    (iters, out[0])
}

fn mpi_match_backlog(iters: u64) -> (u64, Duration) {
    let out = run_local(1, |mut mpi| {
        let buf = [7u8; 64];
        for _ in 0..BACKLOG {
            mpi.send(Rank(0), 1, &buf)?;
        }
        // The first receive pulls the backlog into the unexpected queue.
        mpi.send(Rank(0), 2, &buf)?;
        mpi.recv(Source::Rank(Rank(0)), Tag::Value(2))?;
        let t = Instant::now();
        for _ in 0..iters {
            mpi.send(Rank(0), 2, &buf)?;
            black_box(mpi.recv(Source::Rank(Rank(0)), Tag::Value(2))?);
        }
        Ok(t.elapsed())
    })
    .expect("local self-send runs");
    (iters, out[0])
}

// ---- mvr-core --------------------------------------------------------

fn transmit_of(e: &mut V2Engine) -> PeerMsg {
    match e.drain_outputs().pop() {
        Some(Output::Transmit { msg, .. }) => msg,
        other => panic!("expected a transmission, got {other:?}"),
    }
}

/// `n` data messages from rank 0 to rank 1, as rank 0's engine emits them.
fn messages(sender: &mut V2Engine, n: u64, payload: &Payload) -> Vec<PeerMsg> {
    (0..n)
        .map(|_| {
            sender
                .handle(Input::AppSend {
                    dst: Rank(1),
                    payload: payload.clone(),
                })
                .expect("send");
            transmit_of(sender)
        })
        .collect()
}

fn core_send(iters: u64) -> (u64, Duration) {
    let mut e = V2Engine::fresh(Rank(0), 2);
    let p = payload64();
    let t = Instant::now();
    for _ in 0..iters {
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: p.clone(),
        })
        .expect("send");
        black_box(e.drain_outputs());
    }
    (iters, t.elapsed())
}

fn deliver_behind(iters: u64, backlog: u64) -> (u64, Duration) {
    let mut s = V2Engine::fresh(Rank(0), 2);
    let mut r = V2Engine::fresh(Rank(1), 2);
    let mut msgs = messages(&mut s, iters + backlog, &payload64()).into_iter();
    for msg in msgs.by_ref().take(backlog as usize) {
        r.handle(Input::Peer { from: Rank(0), msg }).expect("peer");
    }
    let t = Instant::now();
    for msg in msgs {
        r.handle(Input::Peer { from: Rank(0), msg }).expect("peer");
        r.handle(Input::AppRecv).expect("recv");
        black_box(r.drain_outputs());
    }
    (iters, t.elapsed())
}

/// An engine with one send queued behind the gate, and the ack that
/// releases it.
fn gated_engine() -> (V2Engine, u64) {
    let mut s = V2Engine::fresh(Rank(0), 2);
    let mut r = V2Engine::fresh(Rank(1), 2);
    let msg = messages(&mut s, 1, &payload64()).remove(0);
    r.handle(Input::AppRecv).expect("recv");
    r.handle(Input::Peer { from: Rank(0), msg }).expect("peer");
    r.handle(Input::AppSend {
        dst: Rank(0),
        payload: payload64(),
    })
    .expect("send");
    let up_to = r
        .drain_outputs()
        .iter()
        .filter_map(|o| match o {
            Output::LogEvents(b) => b.events.last().map(|e| e.receiver_clock),
            _ => None,
        })
        .max()
        .expect("the gated send ships its event");
    assert!(!r.gate_open());
    (r, up_to)
}

fn core_ack(iters: u64) -> (u64, Duration) {
    const BLOCK: u64 = 256;
    let (gated, up_to) = gated_engine();
    let n = iters.div_ceil(BLOCK);
    let t = blocks(
        n,
        |_| vec![gated.clone(); BLOCK as usize],
        |mut engines| {
            for e in &mut engines {
                e.handle(Input::ElAck { up_to }).expect("ack");
                black_box(e.drain_outputs());
            }
            engines
        },
    );
    (n * BLOCK, t)
}

fn sender_log_append_64k(iters: u64) -> (u64, Duration) {
    const BLOCK: u64 = 128;
    let src = vec![7u8; KIB64];
    let n = iters.div_ceil(BLOCK);
    // The copy into a fresh `Payload` is what `mpi.send` pays per message;
    // the filled log is handed back so that freeing it is not timed.
    let t = blocks(
        n,
        |_| SenderLog::new(),
        |mut log| {
            for clock in 1..=BLOCK {
                log.append(Rank(1), clock, Payload::from(&src[..]));
            }
            log
        },
    );
    (n * BLOCK, t)
}

fn sender_log_collect(iters: u64) -> (u64, Duration) {
    const BLOCK: u64 = 4096;
    let n = iters.div_ceil(BLOCK);
    let t = blocks(
        n,
        |_| {
            let mut log = SenderLog::new();
            for clock in 1..=BLOCK {
                log.append(Rank(1), clock, Payload::from(&[7u8; 64][..]));
            }
            log
        },
        |mut log| {
            black_box(log.collect(Rank(1), u64::MAX));
        },
    );
    (n * BLOCK, t)
}

fn core_snapshot(iters: u64) -> (u64, Duration) {
    let mut e = V2Engine::fresh(Rank(0), 2);
    let src = vec![7u8; KIB64];
    for _ in 0..1024 {
        e.handle(Input::AppSend {
            dst: Rank(1),
            payload: Payload::from(&src[..]),
        })
        .expect("send");
        e.drain_outputs();
    }
    let t = Instant::now();
    for _ in 0..iters {
        let image = NodeImage {
            engine: e.snapshot(),
            mpi_state: Payload::empty(),
            app_state: Payload::empty(),
        };
        black_box(image.encode_blob());
    }
    (iters, t.elapsed())
}

fn core_replay(iters: u64) -> (u64, Duration) {
    // A fault-free run first: rank 0 sends, rank 1 delivers and logs.
    let mut s = V2Engine::fresh(Rank(0), 2);
    let mut r = V2Engine::fresh(Rank(1), 2);
    let mut events: Vec<ReceptionEvent> = Vec::new();
    for msg in messages(&mut s, iters, &payload64()) {
        r.handle(Input::AppRecv).expect("recv");
        r.handle(Input::Peer { from: Rank(0), msg }).expect("peer");
    }
    r.handle(Input::FlushEvents).expect("flush");
    for o in r.drain_outputs() {
        if let Output::LogEvents(b) = o {
            events.extend(b.events);
        }
    }
    assert_eq!(events.len() as u64, iters);
    // Rank 1 restarts from scratch: handshake, resend from rank 0's log,
    // ordered re-delivery.
    let mut r = V2Engine::fresh(Rank(1), 2);
    let t = Instant::now();
    r.begin_recovery(events);
    let PeerMsg::Restart1 { last_received } = transmit_of(&mut r) else {
        panic!("recovery opens with RESTART1");
    };
    s.handle(Input::Peer {
        from: Rank(1),
        msg: PeerMsg::Restart1 { last_received },
    })
    .expect("restart1");
    for o in s.drain_outputs() {
        let Output::Transmit { msg, .. } = o else {
            continue;
        };
        let data = matches!(msg, PeerMsg::Data(_));
        r.handle(Input::Peer { from: Rank(0), msg })
            .expect("resend");
        if data {
            r.handle(Input::AppRecv).expect("recv");
        }
        black_box(r.drain_outputs());
    }
    let elapsed = t.elapsed();
    assert_eq!(r.metrics().replayed_deliveries, iters);
    (iters, elapsed)
}

// ---- mvr-net ---------------------------------------------------------

fn net_ring(iters: u64) -> (u64, Duration) {
    const BURST: u64 = 128;
    let (tx, rx) = bench_pair::<u64>(256);
    let mut batch = Vec::with_capacity(256);
    let n = iters.div_ceil(BURST);
    let t = Instant::now();
    for b in 0..n {
        for i in 0..BURST {
            assert!(tx.send(b * BURST + i));
        }
        let mut got = 0;
        while got < BURST as usize {
            got += rx.recv_many(&mut batch, 256).expect("mailbox alive");
            batch.clear();
        }
    }
    (n * BURST, t.elapsed())
}

fn net_mailbox_drain(iters: u64) -> (u64, Duration) {
    const BURST: u64 = 128;
    let (senders, rx) = bench_lanes::<Payload>(256, 4);
    let ball = payload64();
    let mut batch = Vec::with_capacity(256);
    let n = iters.div_ceil(BURST);
    let t = Instant::now();
    for _ in 0..n {
        for _ in 0..BURST / 4 {
            for s in &senders {
                assert!(s.send(ball.clone()));
            }
        }
        let mut got = 0;
        while got < BURST as usize {
            got += rx.recv_many(&mut batch, 256).expect("mailbox alive");
            batch.clear();
        }
    }
    (n * BURST, t.elapsed())
}

fn frame_encode(iters: u64, size: usize) -> (u64, Duration) {
    let body = vec![7u8; size];
    let t = Instant::now();
    for _ in 0..iters {
        black_box(encode_frame(0, black_box(&body)));
    }
    (iters, t.elapsed())
}

fn frame_decode(iters: u64, size: usize) -> (u64, Duration) {
    let wire = encode_frame(0, &vec![7u8; size]);
    let mut dec = FrameDecoder::new();
    let t = Instant::now();
    for _ in 0..iters {
        dec.push(black_box(&wire));
        black_box(dec.next_frame().expect("valid frame"));
    }
    (iters, t.elapsed())
}

fn next_frame(t: &dyn Transport) -> Vec<u8> {
    loop {
        match t.poll_event(Duration::from_secs(10)) {
            Some(TransportEvent::Frame { payload, .. }) => return payload,
            Some(_) => continue,
            None => panic!("transport went silent"),
        }
    }
}

fn transport_rtt(a: &dyn Transport, b: &dyn Transport, iters: u64) -> Duration {
    let round = || {
        a.send(cn(1), vec![7u8; 64]).expect("send");
        b.send(cn(0), next_frame(b)).expect("echo");
        black_box(next_frame(a));
    };
    for _ in 0..8 {
        round();
    }
    let t = Instant::now();
    for _ in 0..iters {
        round();
    }
    t.elapsed()
}

fn mem_rtt(iters: u64) -> (u64, Duration) {
    let net = MemNet::new();
    let (a, b) = (net.attach(cn(0)), net.attach(cn(1)));
    (iters, transport_rtt(&a, &b, iters))
}

fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let bind = |r| {
        TcpTransport::bind(cn(r), "127.0.0.1:0", 1, TcpConfig::default()).expect("bind loopback")
    };
    let (a, b) = (bind(0), bind(1));
    a.set_route(cn(1), b.local_addr().expect("bound"));
    b.set_route(cn(0), a.local_addr().expect("bound"));
    (a, b)
}

fn tcp_rtt(iters: u64) -> (u64, Duration) {
    let (a, b) = tcp_pair();
    let t = transport_rtt(&a, &b, iters);
    a.shutdown();
    b.shutdown();
    (iters, t)
}

fn tcp_stream_64k(iters: u64) -> (u64, Duration) {
    const WINDOW: u64 = 16;
    let (a, b) = tcp_pair();
    let n = iters.div_ceil(WINDOW);
    let window = || {
        for _ in 0..WINDOW {
            a.send(cn(1), vec![7u8; KIB64]).expect("send");
        }
        for _ in 0..WINDOW {
            black_box(next_frame(&b));
        }
    };
    window();
    let t = Instant::now();
    for _ in 0..n {
        window();
    }
    let t = t.elapsed();
    a.shutdown();
    b.shutdown();
    (n * WINDOW, t)
}

// ---- mvr-eventlog ----------------------------------------------------

fn event(clock: u64) -> ReceptionEvent {
    ReceptionEvent {
        sender: Rank(0),
        sender_clock: clock,
        receiver_clock: clock,
        probes: 0,
    }
}

fn eventlog_log(iters: u64, batch: u64) -> (u64, Duration) {
    const BATCHES: u64 = 1024;
    let mut store = EventLogStore::new();
    let n = iters.div_ceil(batch * BATCHES);
    let t = blocks(
        n,
        |b| -> Vec<EventBatch> {
            (0..BATCHES)
                .map(|k| {
                    let first = (b * BATCHES + k) * batch + 1;
                    EventBatch {
                        owner: Rank(1),
                        events: (first..first + batch).map(event).collect(),
                    }
                })
                .collect()
        },
        |batches| {
            for b in batches {
                black_box(store.log(b));
            }
        },
    );
    (n * BATCHES * batch, t)
}

fn eventlog_download(iters: u64) -> (u64, Duration) {
    const HELD: u64 = 65_536;
    let mut store = EventLogStore::new();
    store.log(EventBatch {
        owner: Rank(1),
        events: (1..=HELD).map(event).collect(),
    });
    let n = iters.div_ceil(HELD);
    let t = Instant::now();
    for _ in 0..n {
        black_box(store.download(Rank(1), 0));
    }
    (n * HELD, t.elapsed())
}

fn eventlog_service_rtt(iters: u64) -> (u64, Duration) {
    let fabric = Fabric::new();
    let (el_mb, el_id) = fabric.register::<ElPacket>(NodeId::EventLogger(0));
    let (me_mb, me_id) = fabric.register::<ElReply>(cn(1));
    let service = std::thread::spawn(move || {
        run_event_logger(el_mb, |rank, reply| {
            el_id.send(NodeId::Computing(rank), reply).is_ok()
        });
    });
    let round = |clock: u64| {
        let req = ElRequest::Log(EventBatch {
            owner: Rank(1),
            events: vec![event(clock)],
        });
        me_id
            .send(NodeId::EventLogger(0), ElPacket { from: Rank(1), req })
            .expect("logger alive");
        black_box(me_mb.recv().expect("ack"));
    };
    for clock in 1..=8 {
        round(clock);
    }
    let t = Instant::now();
    for clock in 9..9 + iters {
        round(clock);
    }
    let t = t.elapsed();
    fabric.kill(NodeId::EventLogger(0));
    service.join().expect("event logger thread");
    (iters, t)
}

// ---- mvr-ckpt --------------------------------------------------------

const IMAGE: usize = 4 << 20;

fn image() -> ImageBlob {
    ImageBlob {
        meta: Payload::filled(0, 64),
        segments: vec![Payload::filled(1, IMAGE)],
    }
}

fn ckpt_put(iters: u64) -> (u64, Duration) {
    let mut store = CheckpointStore::new();
    let image = image();
    let t = Instant::now();
    for clock in 1..=iters {
        black_box(store.handle(CkptRequest::Put {
            rank: Rank(0),
            clock,
            image: image.clone(),
        }));
    }
    (iters, t.elapsed())
}

fn ckpt_get(iters: u64) -> (u64, Duration) {
    let mut store = CheckpointStore::new();
    store.put(Rank(0), 1, image());
    let t = Instant::now();
    for _ in 0..iters {
        black_box(store.handle(CkptRequest::GetLatest { rank: Rank(0) }));
    }
    (iters, t.elapsed())
}

// ---- mvr-runtime (wire codec) ----------------------------------------

fn wire_msg(size: usize) -> WireMsg {
    WireMsg::Peer {
        from: Rank(0),
        msg: PeerMsg::Data(DataMsg {
            id: MsgId::new(Rank(0), 1),
            dst: Rank(1),
            payload: Payload::filled(7, size),
        }),
    }
}

fn wire_encode(iters: u64, size: usize) -> (u64, Duration) {
    let msg = wire_msg(size);
    let t = Instant::now();
    for _ in 0..iters {
        black_box(black_box(&msg).encode());
    }
    (iters, t.elapsed())
}

fn wire_decode(iters: u64, size: usize) -> (u64, Duration) {
    let bytes = wire_msg(size).encode();
    let t = Instant::now();
    for _ in 0..iters {
        black_box(WireMsg::decode(black_box(&bytes)).expect("valid message"));
    }
    (iters, t.elapsed())
}

// ---- mvr-obs ---------------------------------------------------------

fn record(rec: &Recorder, iters: u64) -> (u64, Duration) {
    let t = Instant::now();
    for clock in 0..iters {
        black_box(rec).record(
            clock,
            ProtoEvent::GateOpen {
                released: 1,
                waited_ns: clock,
            },
        );
    }
    (iters, t.elapsed())
}

const fn d(name: &'static str, per: Per, run: fn(u64) -> (u64, Duration)) -> Driver {
    Driver { name, per, run }
}

/// Every layer driver, grouped by crate.
pub const DRIVERS: [Driver; 31] = [
    d("mpi.pingpong_ns", Per::Ns, mpi_pingpong),
    d("mpi.match_ns_backlog4096", Per::Ns, mpi_match_backlog),
    d("core.send_ns", Per::Ns, core_send),
    d("core.deliver_ns", Per::Ns, |iters| deliver_behind(iters, 0)),
    d("core.ack_ns", Per::Ns, core_ack),
    d("core.deliver_ns_backlog4096", Per::Ns, |iters| {
        deliver_behind(iters, BACKLOG)
    }),
    d(
        "core.sender_log_append_ns_64k",
        Per::Ns,
        sender_log_append_64k,
    ),
    d("core.sender_log_collect_ns", Per::Ns, sender_log_collect),
    d(
        "core.snapshot_mb_per_s",
        Per::MbPerS(1024 * KIB64 as u64),
        core_snapshot,
    ),
    d("core.replay_ns_per_delivery", Per::Ns, core_replay),
    d("net.ring_ns", Per::Ns, net_ring),
    d("net.mailbox_drain_ns", Per::Ns, net_mailbox_drain),
    d("net.frame_encode_ns_64", Per::Ns, |iters| {
        frame_encode(iters, 64)
    }),
    d("net.frame_decode_ns_64", Per::Ns, |iters| {
        frame_decode(iters, 64)
    }),
    d(
        "net.frame_encode_mb_per_s_64k",
        Per::MbPerS(KIB64 as u64),
        |iters| frame_encode(iters, KIB64),
    ),
    d(
        "net.frame_decode_mb_per_s_64k",
        Per::MbPerS(KIB64 as u64),
        |iters| frame_decode(iters, KIB64),
    ),
    d("net.mem_rtt_us_64", Per::Us, mem_rtt),
    d("net.tcp_rtt_us_64", Per::Us, tcp_rtt),
    d(
        "net.tcp_mb_per_s_64k",
        Per::MbPerS(KIB64 as u64),
        tcp_stream_64k,
    ),
    d("eventlog.log_ns_per_event_b1", Per::Ns, |iters| {
        eventlog_log(iters, 1)
    }),
    d("eventlog.log_ns_per_event_b64", Per::Ns, |iters| {
        eventlog_log(iters, 64)
    }),
    d("eventlog.download_ns_per_event", Per::Ns, eventlog_download),
    d("eventlog.service_rtt_us", Per::Us, eventlog_service_rtt),
    d("ckpt.put_mb_per_s", Per::MbPerS(IMAGE as u64), ckpt_put),
    d("ckpt.get_mb_per_s", Per::MbPerS(IMAGE as u64), ckpt_get),
    d("runtime.wire_encode_ns_64", Per::Ns, |iters| {
        wire_encode(iters, 64)
    }),
    d("runtime.wire_decode_ns_64", Per::Ns, |iters| {
        wire_decode(iters, 64)
    }),
    d(
        "runtime.wire_encode_mb_per_s_64k",
        Per::MbPerS(KIB64 as u64),
        |iters| wire_encode(iters, KIB64),
    ),
    d(
        "runtime.wire_decode_mb_per_s_64k",
        Per::MbPerS(KIB64 as u64),
        |iters| wire_decode(iters, KIB64),
    ),
    d("obs.record_ns_off", Per::Ns, |iters| {
        record(&Recorder::disabled(), iters)
    }),
    d("obs.record_ns_on", Per::Ns, |iters| {
        record(&Recorder::new(0, RecorderConfig::enabled()), iters)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ack_releases_the_gated_send() {
        let (mut e, up_to) = gated_engine();
        e.handle(Input::ElAck { up_to }).unwrap();
        assert!(e.gate_open());
        assert!(e
            .drain_outputs()
            .iter()
            .any(|o| matches!(o, Output::Transmit { .. })));
    }

    #[test]
    fn every_driver_runs_and_reports_at_least_what_was_asked() {
        for drv in &DRIVERS {
            let (n, t) = (drv.run)(3);
            assert!(n >= 3, "{}", drv.name);
            assert!(t > Duration::ZERO, "{}", drv.name);
        }
    }
}
