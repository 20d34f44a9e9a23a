//! Child-process side of the multi-process deployment.
//!
//! `mpirun --backend socket` re-executes its own binary once per
//! deployment node with one environment variable, [`ENV_CHILD`], holding
//! the serialised `ChildSpec` — everything the child needs to know,
//! written once by the supervisor and read once here.
//! [`maybe_run_child`] is the early-main hook that detects this and never
//! returns for children. Each child binds a **fresh ephemeral port**
//! (bind `:0`), announces it to the supervisor with a `Hello`, and
//! receives the full address map back — which is why reincarnation never
//! fights `TIME_WAIT`: a revived replica or restarted rank simply
//! announces a new port instead of rebinding the old one. Once its node
//! is doing its job it reports `Ready`; the supervisor's fault plan holds
//! kills aimed at it until then.
//!
//! The protocol code running inside a child is the unchanged in-process
//! runtime; only the [`super::gateway`] is socket-aware. The role loops
//! below are also where the transport's detector events are looked at —
//! once per [`Gateway::poll`], so within one tick.

use super::gateway::{Control, Gateway, GatewayRole};
use super::wire::WireMsg;
use crate::deploy::{ProcLaunch, Topology};
use crate::node::{
    register_node, start_node, MpiApp, NodeConfig, NodeExit, Outcome, RuntimeProtocol,
};
use crate::services::{absorb_siblings, serve_el_replica, spawn_checkpoint_server_on};
use mvr_core::{NodeId, Rank};
use mvr_eventlog::EventLogStore;
use mvr_net::{Fabric, TcpConfig, TcpTransport, Transport};
use mvr_obs::{
    epoch_from_unix_ns, JsonlStreamSink, ProtoEvent, RecordSink, RecorderConfig, RecorderHub,
    RotateConfig, SendDisposition, TeeSink, TelemetrySink, TelemetrySnapshot,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code when startup never completed (no address map, bad spec).
pub const EXIT_STARTUP: i32 = 3;
/// Exit code when the supervisor's endpoint died under the child.
pub const EXIT_ORPHANED: i32 = 86;

/// The one environment variable of the parent→child hand-off: a
/// hex-encoded bincode `ChildSpec`.
pub const ENV_CHILD: &str = "MVR_PROC_CHILD";

/// Staging capacity of the live telemetry buffer between drains.
const TELEMETRY_CAPACITY: usize = 8192;
/// Records per `WireMsg::Telemetry` frame.
const TELEMETRY_BATCH: usize = 512;
/// Snapshot-only frames are shipped at least this often even when no
/// records are staged, so the parent's aggregated health stays fresh.
const TELEMETRY_CADENCE: Duration = Duration::from_millis(100);

/// Everything one child incarnation is told by the supervisor: the facts
/// of this incarnation, and the two parts of the deployment description
/// a process needs, embedded as they are.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct ChildSpec {
    /// The node this process hosts (rank, EL replica or the CS).
    pub node: NodeId,
    pub incarnation: u64,
    /// This incarnation must recover (rank) or catch up from a sibling
    /// (EL replica).
    pub restart: bool,
    /// The supervisor's `host:port`.
    pub parent: String,
    /// Shared recorder epoch, unix nanoseconds.
    pub epoch_ns: u64,
    /// This incarnation's crash-surviving JSONL record stream; `None`
    /// when the run is not recorded. A rank writes it; a service, which
    /// records nothing, takes it as the order to ship telemetry.
    pub stream: Option<String>,
    pub topology: Topology,
    pub launch: ProcLaunch,
}

impl ChildSpec {
    /// The value of [`ENV_CHILD`] for this spec.
    pub(crate) fn to_env(&self) -> String {
        hex(&bincode::serialize(self).expect("ChildSpec serializes"))
    }

    /// Decode [`ENV_CHILD`]; `None` for anything but a well-formed spec
    /// over a valid topology (the decoder trusts no count it is handed).
    pub(crate) fn from_env(hex: &str) -> Option<ChildSpec> {
        let byte = |i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok();
        let bytes: Vec<u8> = (0..hex.len()).step_by(2).map(byte).collect::<Option<_>>()?;
        let spec: ChildSpec = bincode::deserialize(&bytes).ok()?;
        let t = spec.topology;
        (Topology::new(t.world(), t.el_shards(), t.el_replicas()) == Ok(t)).then_some(spec)
    }

    /// This node's entry in a per-rank injection table (0 when absent).
    fn of_rank(&self, table: &[(Rank, i64)]) -> i64 {
        let hit = table
            .iter()
            .find(|(r, _)| NodeId::Computing(*r) == self.node);
        hit.map_or(0, |(_, v)| *v)
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn die(detail: &str) -> ! {
    eprintln!("mvr child: {detail}");
    std::process::exit(EXIT_STARTUP);
}

/// Detector configuration shared by supervisor and children, with the
/// read-timeout threshold optionally overridden.
pub fn transport_config(fail_after: Option<Duration>) -> TcpConfig {
    let mut cfg = TcpConfig::default();
    if let Some(fail_after) = fail_after {
        cfg.fail_after = fail_after;
    }
    cfg
}

/// The early-main hook: when [`ENV_CHILD`] is set this process is a
/// deployment child — run the role and **never return**. Returns
/// `false` (quickly, no side effects) in ordinary invocations.
///
/// `make_app` resolves the spec's application string to the application
/// a rank child runs; EL/CS children never call it.
pub fn maybe_run_child(make_app: &dyn Fn(&str) -> Option<Arc<dyn MpiApp>>) -> bool {
    let Ok(hex) = std::env::var(ENV_CHILD) else {
        return false;
    };
    let spec = ChildSpec::from_env(&hex).unwrap_or_else(|| die("malformed MVR_PROC_CHILD"));
    match spec.node {
        NodeId::Computing(rank) => run_rank(rank, &spec, make_app),
        NodeId::EventLogger(flat) => run_el(flat, &spec),
        NodeId::CheckpointServer(_) => run_cs(&spec),
        other => die(&format!("not a child role: {other}")),
    }
}

/// Drain the telemetry buffer into `WireMsg::Telemetry` frames for the
/// supervisor. Always ships at least one frame (possibly record-free)
/// so the cumulative snapshot — counters, histograms, drop count —
/// reaches the parent even across quiet stretches.
fn ship_telemetry(gateway: &Gateway, tel: &TelemetrySink, spec: &ChildSpec) {
    loop {
        let records = tel.drain(TELEMETRY_BATCH);
        let done = records.len() < TELEMETRY_BATCH;
        gateway.send_to(
            NodeId::Dispatcher,
            &WireMsg::Telemetry {
                node: spec.node.to_string(),
                incarnation: spec.incarnation,
                records,
                snapshot: tel.snapshot(),
            },
        );
        if done {
            return;
        }
    }
}

/// Bind the endpoint, route to the supervisor, start the gateway,
/// announce ourselves, and block until the supervisor's address map
/// covers the *whole* deployment (every peer this node may ever
/// address). Acting on a partial map would let an early sender hit
/// `NoRoute` and silently lose a frame on a healthy channel — a loss the
/// protocol only repairs through the failure path, so it must never
/// happen outside one. This holds at restart too: recovery opens with
/// `Restart1` and `DownloadEL` traffic, and a concurrently-down peer's
/// entry returns with its reincarnation's hello (each hello
/// re-broadcasts the map), so the wait terminates.
fn connect(spec: &ChildSpec, fabric: &Fabric, role: GatewayRole) -> Gateway {
    let (me, topo) = (spec.node, spec.topology);
    let cfg = transport_config(spec.launch.fail_after);
    // A program file may declare a fixed first-launch port; respawned
    // incarnations always take a fresh ephemeral one, so revival never
    // waits out `TIME_WAIT` on the previous incarnation's socket.
    let binds = spec.launch.binds.iter();
    let declared = binds
        .filter(|_| spec.incarnation == 0)
        .find_map(|(n, addr)| (*n == me).then_some(addr.as_str()));
    let transport = declared
        .and_then(|addr| {
            TcpTransport::bind(me, addr, spec.incarnation, cfg.clone())
                .map_err(|e| eprintln!("mvr child: declared bind {addr}: {e}; using ephemeral"))
                .ok()
        })
        .map_or_else(
            || TcpTransport::bind(me, "127.0.0.1:0", spec.incarnation, cfg.clone()),
            Ok,
        )
        .unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    let addr = transport
        .local_addr()
        .unwrap_or_else(|| die("no local addr"));
    let transport: Arc<dyn Transport> = Arc::new(transport);
    transport.set_route(NodeId::Dispatcher, spec.parent.clone());
    let gateway = Gateway::start(transport, fabric, role, topo);
    let incarnation = spec.incarnation;
    let hello = WireMsg::Hello {
        node: me,
        addr,
        incarnation,
    };
    gateway.send_to(NodeId::Dispatcher, &hello);

    let everyone = topo.nodes().chain([NodeId::Dispatcher]);
    let required: Vec<NodeId> = everyone.filter(|n| *n != me).collect();
    let until = Instant::now() + Duration::from_secs(15);
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            die("no complete address map from supervisor");
        }
        match gateway.poll(left.min(Duration::from_millis(25))) {
            Ok(Control::Msg {
                msg: WireMsg::AddressMap(entries),
                ..
            }) if required.iter().all(|n| entries.iter().any(|(e, _)| e == n)) => {
                return gateway;
            }
            Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => die("gateway gone before address map"),
        }
    }
}

/// Tell the supervisor this incarnation is doing its job.
fn report_ready(gateway: &Gateway, spec: &ChildSpec) {
    let (node, incarnation) = (spec.node, spec.incarnation);
    gateway.send_to(NodeId::Dispatcher, &WireMsg::Ready { node, incarnation });
}

/// Serve until the supervisor says we are done: run `each_tick`, then
/// wait up to `tick` for a control message, which goes to `on_msg`
/// unless it ends the process — `Shutdown` or the loss of the
/// supervisor. Peer losses are the supervisor's to adjudicate; the
/// protocol sees them as in-flight loss + `Restart1`.
fn serve(
    gateway: &Gateway,
    tick: Duration,
    mut each_tick: impl FnMut(),
    mut on_msg: impl FnMut(NodeId, WireMsg),
) -> ! {
    loop {
        each_tick();
        match gateway.poll(tick) {
            Ok(Control::Msg {
                msg: WireMsg::Shutdown,
                ..
            }) => std::process::exit(0),
            Ok(Control::Msg { from, msg }) => on_msg(from, msg),
            Ok(Control::PeerDown {
                peer: NodeId::Dispatcher,
                ..
            })
            | Err(mpsc::RecvTimeoutError::Disconnected) => std::process::exit(EXIT_ORPHANED),
            Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

fn run_rank(rank: Rank, spec: &ChildSpec, make_app: &dyn Fn(&str) -> Option<Arc<dyn MpiApp>>) -> ! {
    let app_spec = &spec.launch.app_spec;
    let app = make_app(app_spec).unwrap_or_else(|| die(&format!("unknown app '{app_spec}'")));
    let fabric = Fabric::new();
    let slots = register_node(&fabric, rank);
    let gateway = connect(spec, &fabric, GatewayRole::Rank(rank));

    // Per-incarnation recorder over the deployment-wide epoch (shifted
    // by any injected skew); streamed to disk with one `write(2)` per
    // record so a SIGKILL loses nothing, and teed into the bounded
    // telemetry buffer for live shipping.
    let rec_config = RecorderConfig {
        enabled: spec.stream.is_some(),
        clock_drift_ppb: spec.of_rank(&spec.launch.epoch_drift),
        ..Default::default()
    };
    // A positive skew moves this child's epoch later, so its timestamps
    // read early — what a slow wall clock does to a real node, and what
    // the merge solver must raise back.
    let skew_ns = spec.of_rank(&spec.launch.epoch_skew);
    let epoch_ns = spec.epoch_ns.saturating_add_signed(skew_ns);
    let hub = RecorderHub::with_epoch(rec_config, epoch_from_unix_ns(epoch_ns));
    let mut telemetry: Option<Arc<TelemetrySink>> = None;
    if let Some(path) = &spec.stream {
        let tel = Arc::new(TelemetrySink::new(TELEMETRY_CAPACITY));
        // Long-horizon runs rotate the durable stream into bounded
        // segments (merged like any input); with both thresholds 0
        // this is exactly the single-file path.
        let rotate = RotateConfig {
            max_records: spec.launch.rotate_records,
            max_bytes: spec.launch.rotate_bytes,
        };
        // The stream goes first: a record the telemetry buffer has seen
        // is already on disk.
        let mut sinks: Vec<Arc<dyn RecordSink>> = Vec::new();
        if let Ok(sink) = JsonlStreamSink::with_rotation(std::path::Path::new(path), rotate) {
            sinks.push(Arc::new(sink));
        }
        sinks.push(tel.clone());
        hub.set_sink(Arc::new(TeeSink(sinks)));
        telemetry = Some(tel);
    }

    let (exit_tx, exit_rx) = mpsc::channel();
    let _threads = start_node(
        slots,
        NodeConfig {
            rank,
            topology: spec.topology,
            protocol: RuntimeProtocol::V2,
            restart: spec.restart,
            recorder: hub.recorder(rank.0),
        },
        app,
        exit_tx,
    );

    // Deterministic live-monitor probe: a delivery whose reception event
    // is never acknowledged, then a payload on the wire — the canonical
    // pessimism-gate violation (§4.1), recorded straight into this
    // rank's stream. The phantom peer and near-max clocks keep the
    // injection from colliding with real protocol state; the parent's
    // cluster-wide monitor must fail the run on the Wire send.
    if spec.launch.inject_violation == Some(rank) {
        let r = hub.recorder(rank.0);
        let phantom = spec.topology.world() + 7;
        r.record(
            u64::MAX - 1,
            ProtoEvent::Deliver {
                from: phantom,
                sender_clock: u64::MAX - 1,
                receiver_clock: u64::MAX - 1,
                replay: false,
            },
        );
        r.record(
            u64::MAX,
            ProtoEvent::Send {
                to: phantom,
                clock: u64::MAX,
                bytes: 0,
                disposition: SendDisposition::Wire,
            },
        );
    }

    // A finished rank keeps its endpoint up (peers may still replay
    // against us), exactly like a finished in-process node keeps its
    // mailbox registered.
    let mut last_ship = Instant::now();
    let mut ready = false;
    let each_tick = || {
        if let Ok(exit) = exit_rx.try_recv() {
            match exit.outcome {
                Outcome::Finished(result) => {
                    gateway.send_to(NodeId::Dispatcher, &WireMsg::RankResult { rank, result });
                }
                Outcome::Failed(detail) => {
                    let failed = WireMsg::Failed {
                        node: NodeId::Computing(rank),
                        detail,
                    };
                    gateway.send_to(NodeId::Dispatcher, &failed);
                    // Explicit teardown, not a grace-period sleep: ship
                    // the last staged telemetry, drain the outbound
                    // socket queues, die.
                    if let Some(tel) = &telemetry {
                        ship_telemetry(&gateway, tel, spec);
                    }
                    gateway.transport().flush(Duration::from_secs(2));
                    std::process::exit(1);
                }
                // Fabric-level kills do not exist in the socket backend;
                // real crashes arrive as SIGKILL, not as an exit report.
                Outcome::Killed => {}
            }
        }
        // Ready = node threads started and, when this incarnation
        // streams flight records, the first one is on disk: a kill held
        // for readiness then always finds a stream to cut short.
        if !ready && telemetry.as_ref().is_none_or(|tel| tel.pending() > 0) {
            ready = true;
            report_ready(&gateway, spec);
        }
        if let Some(tel) = &telemetry {
            // Ship staged records promptly, and a snapshot-only frame on
            // the cadence otherwise — off the protocol hot path either
            // way (this is the supervision loop, not a daemon thread).
            if tel.pending() > 0 || last_ship.elapsed() >= TELEMETRY_CADENCE {
                ship_telemetry(&gateway, tel, spec);
                last_ship = Instant::now();
            }
        }
    };
    serve(&gateway, Duration::from_millis(5), each_tick, |_, _| {})
}

fn run_el(flat: u32, spec: &ChildSpec) -> ! {
    let topo = spec.topology;
    let addr = topo.el_addr(flat);
    let fabric = Fabric::new();
    // Registered before the hello announces our address: daemons that
    // get the complete address map before we do may log events at once,
    // and a request dropped on a healthy link is never resent.
    let seat = fabric.register(NodeId::EventLogger(flat));
    let gateway = connect(spec, &fabric, GatewayRole::EventLogger(flat));
    let store = Arc::new(Mutex::new(EventLogStore::new()));

    // Revival: catch up from the same-shard siblings before opening for
    // business, then tell the supervisor how much we absorbed (§4.5's
    // replicated-ledger failover, now across real processes).
    if spec.restart && topo.el_replicas() > 1 {
        let siblings: Vec<NodeId> = topo.siblings(addr).collect();
        for sibling in &siblings {
            gateway.send_to(*sibling, &WireMsg::ElFetch { shard: addr.shard });
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        let snapshots = std::iter::from_fn(|| {
            while Instant::now() < deadline {
                match gateway.poll(Duration::from_millis(20)) {
                    Ok(Control::Msg {
                        msg: WireMsg::ElSnapshot { store },
                        ..
                    }) => return Some(store),
                    Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => std::process::exit(EXIT_ORPHANED),
                }
            }
            None
        });
        let caught_up = absorb_siblings(&mut store.lock(), siblings.len(), snapshots);
        gateway.send_to(
            NodeId::Dispatcher,
            &WireMsg::ElRevived {
                shard: addr.shard,
                replica: addr.replica,
                caught_up,
            },
        );
    }

    let counter = Arc::new(AtomicU64::new(0));
    let (failures, failed) = mpsc::channel();
    let _handle = serve_el_replica(seat, topo, flat, counter.clone(), store.clone(), &failures);
    report_ready(&gateway, spec);

    let mut last_ship = Instant::now();
    let each_tick = || {
        forward_failure(&gateway, &failed);
        // Ship the ledger counter on the telemetry cadence so the
        // parent's health page carries live per-shard EL progress.
        if spec.stream.is_some() && last_ship.elapsed() >= TELEMETRY_CADENCE {
            gateway.send_to(
                NodeId::Dispatcher,
                &WireMsg::Telemetry {
                    node: spec.node.to_string(),
                    incarnation: spec.incarnation,
                    records: Vec::new(),
                    snapshot: TelemetrySnapshot {
                        el_events: counter.load(Ordering::Relaxed),
                        ..TelemetrySnapshot::default()
                    },
                },
            );
            last_ship = Instant::now();
        }
    };
    let on_msg = |from, msg| {
        // A reviving sibling wants our ledger.
        if let WireMsg::ElFetch { .. } = msg {
            let snap = store.lock().clone();
            gateway.send_to(from, &WireMsg::ElSnapshot { store: snap });
        }
    };
    serve(&gateway, Duration::from_millis(25), each_tick, on_msg)
}

fn run_cs(spec: &ChildSpec) -> ! {
    let fabric = Fabric::new();
    // A reincarnated checkpoint server starts empty: the paper's §4.3
    // verdict applies ("affected nodes restart from scratch, at worst").
    // Real deployments would back this with a disk directory.
    let store = Arc::new(Mutex::new(mvr_ckpt::CheckpointStore::new()));
    // Serving before the hello announces our address (see `run_el`).
    let (failures, failed) = mpsc::channel();
    let _handle = spawn_checkpoint_server_on(&fabric, store, &failures);
    let gateway = connect(spec, &fabric, GatewayRole::CheckpointServer);
    report_ready(&gateway, spec);
    let each_tick = || forward_failure(&gateway, &failed);
    serve(&gateway, Duration::from_millis(25), each_tick, |_, _| {})
}

/// Pass a service thread's panic report on to the supervisor, which
/// fails the run and tears every child down.
fn forward_failure(gateway: &Gateway, failed: &mpsc::Receiver<NodeExit>) {
    if let Ok(NodeExit {
        node,
        outcome: Outcome::Failed(detail),
    }) = failed.try_recv()
    {
        gateway.send_to(NodeId::Dispatcher, &WireMsg::Failed { node, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Text with the characters a path, an app spec or an address can
    /// carry, plus some that need more than one UTF-8 byte.
    fn text() -> impl Strategy<Value = String> {
        const ALPHABET: &[char] = &[
            'a',
            'Z',
            '0',
            '9',
            ' ',
            '/',
            ':',
            '.',
            '-',
            '_',
            '"',
            '\\',
            'é',
            '節',
            '\u{1F980}',
        ];
        collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn node() -> impl Strategy<Value = NodeId> {
        prop_oneof![
            (0u32..64).prop_map(|r| NodeId::Computing(Rank(r))),
            (0u32..64).prop_map(NodeId::EventLogger),
            Just(NodeId::CheckpointServer(0)),
        ]
    }

    fn per_rank() -> impl Strategy<Value = Vec<(Rank, i64)>> {
        collection::vec((0u32..64, -1_000_000_000i64..1_000_000_000), 0..4)
            .prop_map(|table| table.into_iter().map(|(r, v)| (Rank(r), v)).collect())
    }

    fn launch() -> impl Strategy<Value = ProcLaunch> {
        let paths = (text(), (true, text()));
        let detector = (true, 0u64..100_000);
        let binds = collection::vec((node(), text()), 0..4);
        let rotation = (0u64..1_000_000, 0u64..1_000_000_000);
        let probes = (per_rank(), per_rank(), (true, 0u32..64));
        (text(), paths, detector, binds, rotation, probes).prop_map(
            |(app_spec, (exe, addr_file), fail_after, binds, rotation, probes)| ProcLaunch {
                app_spec,
                exe: exe.into(),
                fail_after: fail_after.0.then(|| Duration::from_micros(fail_after.1)),
                binds,
                health_addr_file: addr_file.0.then(|| addr_file.1.into()),
                rotate_records: rotation.0,
                rotate_bytes: rotation.1,
                epoch_skew: probes.0,
                epoch_drift: probes.1,
                inject_violation: probes.2 .0.then_some(Rank(probes.2 .1)),
            },
        )
    }

    fn spec() -> impl Strategy<Value = ChildSpec> {
        let incarnation = (node(), 0u64..1_000, true, text());
        let recording = (0u64..u64::MAX, (true, text()));
        let counts = (1u32..64, 1u32..8, 1u32..8);
        (incarnation, recording, counts, launch()).prop_map(
            |((node, incarnation, restart, parent), (epoch_ns, stream), (w, s, r), launch)| {
                ChildSpec {
                    node,
                    incarnation,
                    restart,
                    parent,
                    epoch_ns,
                    stream: stream.0.then_some(stream.1),
                    topology: Topology::new(w, s, r).expect("counts are nonzero"),
                    launch,
                }
            },
        )
    }

    proptest! {
        /// What the supervisor writes into the one environment variable
        /// is what the child reads back, whatever the spec holds.
        #[test]
        fn child_spec_round_trips_through_the_environment(spec in spec()) {
            let hex = spec.to_env();
            prop_assert_eq!(ChildSpec::from_env(&hex), Some(spec));
        }

        /// A cut-off or garbled variable is refused, never a panic and
        /// never a spec over a topology `Topology::new` would reject.
        #[test]
        fn damaged_child_spec_is_refused(
            spec in spec(),
            cut in 0usize..4096,
            flip in (0usize..4096, 1u8..16),
        ) {
            let hex = spec.to_env();
            let cut = cut % hex.len();
            prop_assert_eq!(ChildSpec::from_env(&hex[..cut]), None);
            prop_assert_eq!(ChildSpec::from_env(&format!("{}zz", &hex[..cut & !1])), None);

            // One hex digit changed: refused, or a *valid* other spec.
            let (at, xor) = (flip.0 % hex.len(), flip.1);
            let digit = u8::from_str_radix(&hex[at..at + 1], 16).expect("hex digit") ^ xor;
            let garbled = format!("{}{digit:x}{}", &hex[..at], &hex[at + 1..]);
            if let Some(other) = ChildSpec::from_env(&garbled) {
                let t = other.topology;
                prop_assert!(t.world() > 0 && t.el_shards() > 0 && t.el_replicas() > 0);
                prop_assert!(t.el_shards().checked_mul(t.el_replicas()).is_some());
            }
        }
    }

    #[test]
    fn revival_absorbs_every_sibling_ledger_and_stops_once_all_answered() {
        use mvr_core::{EventBatch, ReceptionEvent};
        let ledger = |clocks: &[u64]| {
            let mut store = EventLogStore::new();
            let events = clocks.iter().map(|&c| ReceptionEvent {
                sender: Rank(1),
                sender_clock: c,
                receiver_clock: c,
                probes: 0,
            });
            store.log(EventBatch {
                owner: Rank(0),
                events: events.collect(),
            });
            store
        };
        // Two siblings holding disjoint halves of rank 0's events.
        let siblings = [ledger(&[1, 2]), ledger(&[3, 4])];
        let mut revived = EventLogStore::new();
        let held = absorb_siblings(&mut revived, 2, siblings.into_iter());
        assert_eq!(held, 4, "the union of both ledgers");
        let clocks: Vec<u64> = revived
            .download(Rank(0), 0)
            .iter()
            .map(|e| e.receiver_clock)
            .collect();
        assert_eq!(clocks, vec![1, 2, 3, 4]);

        // Once every sibling answered, nothing more is awaited.
        let mut polls = 0u64;
        let endless = std::iter::repeat_with(|| {
            polls += 1;
            ledger(&[polls])
        });
        assert_eq!(absorb_siblings(&mut EventLogStore::new(), 2, endless), 2);
        assert_eq!(polls, 2, "stops as soon as both siblings answered");

        // A sibling that never answers costs only the deadline.
        let mut revived = EventLogStore::new();
        assert_eq!(
            absorb_siblings(&mut revived, 2, [ledger(&[1])].into_iter()),
            1
        );
    }

    #[test]
    fn a_spec_over_an_invalid_topology_is_refused() {
        #[derive(Serialize)]
        struct Counts(u32, u32, u32);
        let good = ChildSpec {
            node: NodeId::CheckpointServer(0),
            incarnation: 0,
            restart: false,
            parent: String::new(),
            epoch_ns: 0,
            stream: None,
            topology: Topology::new(2, 1, 1).expect("valid"),
            launch: ProcLaunch::default(),
        };
        // Same wire shape, replica count zeroed: only `from_env`'s
        // re-validation stands between it and a divide by zero.
        let valid = hex(&bincode::serialize(&Counts(2, 1, 1)).expect("serializes"));
        let zeroed = hex(&bincode::serialize(&Counts(2, 1, 0)).expect("serializes"));
        let env = good.to_env();
        assert!(env.contains(&valid), "topology travels as three counts");
        assert_eq!(ChildSpec::from_env(&env.replace(&valid, &zeroed)), None);
    }
}
