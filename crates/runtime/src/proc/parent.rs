//! The process launcher of the multi-process deployment: spawns ranks,
//! event-logger replicas and the checkpoint server as **real OS
//! processes** and carries out the shared `Supervisor` core's
//! decisions over them — exactly the rules the in-process launcher runs
//! under. This module only does the I/O: `Command` + the one-variable
//! `ChildSpec` hand-off, the gateway control channel (hello/address
//! map, ready, results, telemetry), the reaper and the socket fail-stop
//! detector as sources of `Down` verdicts, real `SIGKILL`s for the fault
//! plan's kills, graceful teardown and the merged flight-recorder dump.
//!
//! Failure authority is deliberately centralized here (mirroring the
//! paper's dispatcher, §4.2): children never act on their own peer-down
//! observations — a lost link is indistinguishable from in-flight loss,
//! which the protocol already tolerates — so only the supervisor turns
//! "socket died" into "node died", respawn decisions stay race-free, and
//! a network blip cannot split the deployment.

use super::child::{transport_config, ChildSpec, ENV_CHILD};
use super::gateway::{Control, Gateway, GatewayRole};
use super::sig;
use super::wire::WireMsg;
use crate::deploy::{Backend, ClusterConfig, Topology};
use crate::dispatcher::ClusterError;
use crate::node::{NodeExit, Outcome};
use crate::services::spawn_checkpoint_scheduler;
use crate::supervisor::{bind_health, put, Action, Event, Supervisor};
use mvr_core::{Metrics, NodeId, Payload, Rank};
use mvr_net::{Fabric, TcpTransport, Transport};
use mvr_obs::{
    merge_dump_files, unix_now_ns, Dump, FlightRecord, HealthServer, InvariantMonitor,
    JsonlStreamSink, LogHistogram, PromPage, ProtoEvent, ProtocolTimings, Recorder, RecorderConfig,
    RecorderHub, TelemetrySnapshot, DISPATCHER_RANK,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reaper cadence: the longest the loop sleeps on the control channel.
const POLL_TICK: Duration = Duration::from_millis(2);

/// The socket backend's historical name for the deployment description.
pub type ProcOptions = ClusterConfig;

/// What a completed multi-process run reports.
#[derive(Debug)]
pub struct ProcReport {
    /// Application results, rank order.
    pub results: Vec<Payload>,
    /// Rank reincarnations performed.
    pub restarts: u32,
    /// Service (EL replica / CS) reincarnations performed.
    pub service_restarts: u32,
    /// Fail-stop detections `(peer, cause)` in detection order,
    /// teardown-phase disconnects excluded.
    pub detections: Vec<(String, String)>,
    /// Per-rank engine metrics from the final incarnations.
    pub rank_metrics: Vec<(Rank, Metrics)>,
    /// The merged flight-recorder dump, when `obs_dir` was set — its
    /// path, header counters and applied tracks, the skew estimate,
    /// first-divergence triage.
    pub merge: Option<Dump>,
    /// Final telemetry snapshot per child node, when telemetry was live.
    pub telemetry: Vec<(String, TelemetrySnapshot)>,
}

/// Why a multi-process run failed.
#[derive(Debug)]
pub enum ProcError {
    /// The wall-clock budget expired.
    Timeout,
    /// Child launch / endpoint setup failed.
    Launch(String),
    /// `SIGINT`/`SIGTERM` hit the supervisor; children were torn down.
    Interrupted,
    /// The supervision core failed the run: an application error, an
    /// exhausted restart budget, or a cross-process protocol violation
    /// caught by the live invariant monitor.
    Supervision(ClusterError),
}

impl From<ClusterError> for ProcError {
    fn from(err: ClusterError) -> ProcError {
        match err {
            ClusterError::Timeout(_) => ProcError::Timeout,
            other => ProcError::Supervision(other),
        }
    }
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Timeout => write!(f, "run timed out"),
            ProcError::Launch(e) => write!(f, "launch failed: {e}"),
            ProcError::Interrupted => write!(f, "interrupted; children torn down"),
            ProcError::Supervision(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProcError {}

/// Launcher-side state of one child slot.
#[derive(Default)]
struct ChildSlot {
    child: Option<Child>,
    pid: u32,
    /// The address the current incarnation announced, once it has.
    addr: Option<String>,
}

/// Run a full multi-process deployment to completion. See module docs.
pub fn run_proc(opts: ClusterConfig) -> Result<ProcReport, ProcError> {
    let mut launcher = Launcher::launch(&opts)?;
    let verdict = launcher.supervise();
    // Graceful teardown in every outcome: broadcast Shutdown, wait with
    // a deadline, escalate SIGTERM → SIGKILL, reap everything.
    launcher.teardown();
    let report = launcher.take_report();
    verdict.and(report)
}

struct Launcher<'a> {
    opts: &'a ClusterConfig,
    topology: Topology,
    /// Every supervision decision.
    core: Supervisor,
    /// Launch time: the origin of the core's clock.
    start: Instant,
    gateway: Gateway,
    local_addr: String,
    /// Hosts the checkpoint scheduler; kept alive for its thread.
    _fabric: Fabric,
    /// The checkpoint scheduler's panic report, if it dies of one.
    service_failures: mpsc::Receiver<NodeExit>,
    recorder: Recorder,
    slots: BTreeMap<NodeId, ChildSlot>,
    epoch_ns: u64,
    health: Option<HealthServer>,
    /// The cluster-wide online invariant monitor, fed every child's
    /// live telemetry records as they arrive.
    monitor: Option<Arc<InvariantMonitor>>,
    /// Latest cumulative telemetry snapshot per child; the incarnation
    /// guards against a late frame from a superseded process overwriting
    /// its replacement's counters.
    telemetry: BTreeMap<NodeId, (u64, TelemetrySnapshot)>,
}

impl<'a> Launcher<'a> {
    fn launch(opts: &'a ClusterConfig) -> Result<Launcher<'a>, ProcError> {
        let launch_err =
            |what: &str, e: &dyn std::fmt::Display| ProcError::Launch(format!("{what}: {e}"));
        let topology = opts
            .validate(Backend::Socket)
            .map_err(|e| ProcError::Launch(e.to_string()))?;
        sig::install_shutdown_handler();
        let epoch_ns = unix_now_ns();
        let rec_config = match opts.obs_dir {
            Some(_) => RecorderConfig::enabled(),
            None => RecorderConfig::default(),
        };
        let hub = RecorderHub::with_epoch(rec_config, mvr_obs::epoch_from_unix_ns(epoch_ns));
        if let Some(dir) = &opts.obs_dir {
            std::fs::create_dir_all(dir).map_err(|e| launch_err("obs dir", &e))?;
            if let Ok(sink) = JsonlStreamSink::create(&dir.join("disp.jsonl")) {
                hub.set_sink(Arc::new(sink));
            }
        }
        let recorder = hub.recorder(DISPATCHER_RANK);

        let cfg = transport_config(opts.proc.fail_after);
        let transport = TcpTransport::bind(NodeId::Dispatcher, "127.0.0.1:0", 0, cfg)
            .map_err(|e| launch_err("bind", &e))?;
        let local_addr = transport
            .local_addr()
            .ok_or_else(|| ProcError::Launch("no local addr".into()))?;
        let transport: Arc<dyn Transport> = Arc::new(transport);

        let fabric = Fabric::new();
        let gateway = Gateway::start(transport, &fabric, GatewayRole::Supervisor, topology);
        let (failures, service_failures) = mpsc::channel();
        if let Some(sched) = &opts.checkpointing {
            spawn_checkpoint_scheduler(&fabric, opts.world, sched.clone(), &failures);
        }

        let health = bind_health(opts).map_err(|e| launch_err("health endpoint", &e))?;
        if let Some(h) = &health {
            println!("mpirun: health endpoint at http://{}/", h.local_addr());
        }

        let monitor = opts.monitor.then(InvariantMonitor::new);
        let core = Supervisor::new(opts, topology, recorder.clone(), monitor.clone());
        let mut launcher = Launcher {
            opts,
            topology,
            core,
            start: Instant::now(),
            gateway,
            local_addr,
            _fabric: fabric,
            service_failures,
            recorder,
            slots: BTreeMap::new(),
            epoch_ns,
            health,
            monitor,
            telemetry: BTreeMap::new(),
        };
        let nodes: Vec<NodeId> = launcher.core.nodes().map(|(node, ..)| node).collect();
        for node in nodes {
            launcher.spawn_child(node, 0, false)?;
        }
        Ok(launcher)
    }

    fn spawn_child(
        &mut self,
        node: NodeId,
        incarnation: u64,
        restart: bool,
    ) -> Result<(), ProcError> {
        let stream = self.opts.obs_dir.as_ref().map(|dir| {
            // `cn3-i1.jsonl`: node and incarnation, so a reincarnation
            // never appends to its predecessor's stream.
            let file = dir.join(format!("{node}-i{incarnation}.jsonl"));
            file.display().to_string()
        });
        let spec = ChildSpec {
            node,
            incarnation,
            restart,
            parent: self.local_addr.clone(),
            epoch_ns: self.epoch_ns,
            stream,
            topology: self.topology,
            launch: self.opts.proc.clone(),
        };
        let slot = self.slots.entry(node).or_default();
        // Enforce the fail-stop verdict before replacing the slot: if
        // the detector declared the old incarnation dead while the OS
        // process still lingers (wedged rather than exited), two
        // incarnations of the same rank must never run concurrently.
        if let Some(mut old) = slot.child.take() {
            sig::send_signal(old.id(), sig::SIGKILL);
            let _ = old.wait();
        }
        let child = Command::new(&self.opts.proc.exe)
            .env(ENV_CHILD, spec.to_env())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| ProcError::Launch(format!("spawn {node}: {e}")))?;
        let pid = child.id();
        println!("mpirun: launched {node} pid={pid} incarnation={incarnation}");
        *slot = ChildSlot {
            child: Some(child),
            pid,
            addr: None,
        };
        Ok(())
    }

    /// Send every connected child the current address map — every known
    /// child address plus our own — `newcomer` last, so its peers have
    /// its new address on the wire before it can start talking to them.
    fn broadcast_address_map(&self, newcomer: NodeId) {
        let known = self
            .slots
            .iter()
            .filter_map(|(n, s)| Some((*n, s.addr.clone()?)));
        let mut entries = vec![(NodeId::Dispatcher, self.local_addr.clone())];
        entries.extend(known);
        let connected = entries[1..].iter().map(|(n, _)| *n);
        let others = connected.filter(|n| *n != newcomer).chain([newcomer]);
        let map = WireMsg::AddressMap(entries.clone());
        others.for_each(|node| self.gateway.send_to(node, &map));
    }

    fn supervise(&mut self) -> Result<(), ProcError> {
        self.core.deadline = Some(self.opts.timeout);
        let mut events: VecDeque<Event> = VecDeque::new();
        loop {
            if sig::shutdown_requested() {
                println!("mpirun: interrupt — tearing children down");
                return Err(ProcError::Interrupted);
            }
            // Exited children feed the same verdicts as the socket
            // detector; the core keeps whichever arrives first.
            for (node, status) in self.reap() {
                println!("mpirun: {node} exited ({status})");
                events.push_back(Event::Down {
                    node,
                    incarnation: self.core.incarnation(node),
                    cause: status.to_string(),
                });
            }
            while let Ok(NodeExit { node, outcome }) = self.service_failures.try_recv() {
                if let Outcome::Failed(detail) = outcome {
                    events.push_back(Event::Failed { node, detail });
                }
            }
            events.push_back(Event::Tick);
            while let Some(ev) = events.pop_front() {
                for action in self.core.step(self.start.elapsed(), ev) {
                    match action {
                        Action::Spawn {
                            node,
                            incarnation,
                            restart,
                        } => self.spawn_child(node, incarnation, restart)?,
                        Action::Kill { node } => {
                            if let Some(slot) = self.slots.get(&node).filter(|s| s.child.is_some())
                            {
                                println!("mpirun: SIGKILL {node} pid={}", slot.pid);
                                sig::send_signal(slot.pid, sig::SIGKILL);
                            }
                        }
                        Action::Fail(err) => {
                            self.crash_dump();
                            return Err(err.into());
                        }
                        Action::Done => return Ok(()),
                    }
                }
            }
            let now = self.start.elapsed();
            if self.health.is_some() && self.core.health_due(now) {
                self.publish_health();
            }
            let idle = self.core.idle_for(now, POLL_TICK);
            match self.gateway.poll(idle) {
                Ok(ctl) => self.on_control(ctl, &mut events),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ProcError::Launch("gateway endpoint gone".into()))
                }
            }
        }
    }

    /// Translate one control-plane message or detector event.
    fn on_control(&mut self, ctl: Control, events: &mut VecDeque<Event>) {
        match ctl {
            Control::Msg { msg, .. } => match msg {
                WireMsg::Hello {
                    node,
                    addr,
                    incarnation,
                } => {
                    self.gateway.transport().set_route(node, addr.clone());
                    // A hello from a superseded incarnation (e.g. a
                    // zombie that raced its own SIGKILL) is ignored.
                    if incarnation == self.core.incarnation(node) {
                        if let Some(slot) = self.slots.get_mut(&node) {
                            slot.addr = Some(addr);
                            self.broadcast_address_map(node);
                        }
                    }
                }
                WireMsg::Ready { node, incarnation } => {
                    events.push_back(Event::Ready { node, incarnation })
                }
                WireMsg::RankResult { rank, result } => events.push_back(Event::Result {
                    rank,
                    payload: result,
                }),
                WireMsg::Failed { node, detail } => {
                    events.push_back(Event::Failed { node, detail })
                }
                WireMsg::Finalized {
                    rank,
                    metrics,
                    timings,
                } => self.core.finalized(rank, metrics, timings),
                WireMsg::ElRevived {
                    shard,
                    replica,
                    caught_up,
                } => {
                    let event = ProtoEvent::ElReplicaRevive {
                        shard,
                        replica,
                        caught_up,
                    };
                    self.recorder.record(0, event);
                }
                WireMsg::Telemetry {
                    node,
                    incarnation,
                    records,
                    snapshot,
                } => {
                    let Ok(node) = node.parse::<NodeId>() else {
                        return;
                    };
                    // Merged live stream → cluster-wide monitor (the core
                    // polls it for a verdict on its next step). Frames
                    // are FIFO per child and the monitor's state is
                    // per-rank, so arrival order across children is
                    // irrelevant — the same argument that lets the
                    // in-process monitor run inline.
                    if let Some(m) = &self.monitor {
                        observe_live(m, self.core.incarnation(node), incarnation, &records);
                    }
                    let entry = self.telemetry.entry(node).or_default();
                    if incarnation >= entry.0 {
                        *entry = (incarnation, snapshot);
                    }
                }
                // Data-plane messages are routed inside the gateway;
                // anything else here is stray control noise.
                _ => {}
            },
            Control::PeerDown {
                peer,
                incarnation,
                cause,
            } => {
                let cause = cause.to_string();
                let event = ProtoEvent::TransportDown {
                    peer: peer.to_string(),
                    cause: cause.clone(),
                };
                self.recorder.record(0, event);
                if let Some(slot) = self.slots.get_mut(&peer) {
                    if incarnation >= self.core.incarnation(peer) {
                        slot.addr = None;
                    }
                }
                events.push_back(Event::Down {
                    node: peer,
                    incarnation,
                    cause,
                });
            }
        }
    }

    /// The per-child JSONL streams eligible for merging (the merged and
    /// crash outputs themselves excluded).
    fn dump_inputs(dir: &Path) -> Vec<PathBuf> {
        let is_stream = |p: &PathBuf| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".jsonl") && name != "merged.jsonl" && name != "crash.jsonl"
        };
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        let mut inputs: Vec<PathBuf> = entries.map(|e| e.path()).filter(is_stream).collect();
        inputs.sort();
        inputs
    }

    /// Triage for a failing run, at detection time: a merged crash dump
    /// of everything the children have streamed so far (the core already
    /// left the `Divergence` record), with the note on stderr.
    fn crash_dump(&self) {
        if let Some(dir) = &self.opts.obs_dir {
            match merge_dump_files(&Self::dump_inputs(dir), &dir.join("crash.jsonl")) {
                Ok(summary) => eprintln!("{}", summary.summary()),
                Err(e) => eprintln!("mpirun: crash dump merge failed: {e}"),
            }
        }
    }

    /// The shared health page, fed from live child telemetry: per-rank
    /// protocol timings, per-replica EL ledger progress and the merged
    /// quorum-wait histogram; plus the process plane's own families.
    fn publish_health(&mut self) {
        let mut rank_timings: Vec<(Rank, ProtocolTimings)> = Vec::new();
        let mut el_events = vec![0u64; self.topology.el_total() as usize];
        let mut quorum_wait = LogHistogram::new();
        for (node, (_, snap)) in &self.telemetry {
            match node {
                NodeId::Computing(r) => {
                    rank_timings.push((*r, snap.timings.clone()));
                    quorum_wait.merge(&snap.quorum_wait);
                }
                NodeId::EventLogger(f) if (*f as usize) < el_events.len() => {
                    el_events[*f as usize] = snap.el_events
                }
                _ => {}
            }
        }
        let (slots, telemetry) = (&self.slots, &self.telemetry);
        let detections = self.core.detections.len();
        let extras = |page: &mut PromPage| {
            put(page, "mvr_proc_detections", "", detections);
            for (node, s) in slots {
                let l = format!("node=\"{node}\"");
                let connected = s.child.is_some() && s.addr.is_some();
                put(page, "mvr_proc_child", &l, u8::from(connected));
            }
            for (node, (_, snap)) in telemetry {
                let l = format!("node=\"{node}\"");
                put(page, "mvr_telemetry_records_total", &l, snap.records_total);
                put(page, "mvr_telemetry_dropped_total", &l, snap.dropped_total);
            }
        };
        let more = [("quorum_wait", &quorum_wait)];
        let page = self
            .core
            .render_health(true, &rank_timings, &el_events, &more, extras);
        if let Some(h) = &self.health {
            h.publish(page);
        }
    }

    /// Reap the children that have exited since the last call.
    fn reap(&mut self) -> Vec<(NodeId, ExitStatus)> {
        let mut exited = Vec::new();
        for (node, slot) in &mut self.slots {
            let child = slot.child.as_mut();
            if let Some(status) = child.and_then(|c| c.try_wait().ok().flatten()) {
                slot.child = None;
                exited.push((*node, status));
            }
        }
        exited
    }

    /// `SIGKILL` cannot be ignored: signal and block on every reap.
    fn kill_all(&mut self) {
        for slot in self.slots.values_mut() {
            if let Some(mut child) = slot.child.take() {
                sig::send_signal(slot.pid, sig::SIGKILL);
                let _ = child.wait();
            }
        }
    }

    /// Graceful teardown: `Shutdown` broadcast → bounded wait → SIGTERM
    /// → bounded wait → SIGKILL → reap. No orphans, whatever happened.
    fn teardown(&mut self) {
        for (node, slot) in &self.slots {
            if slot.child.is_some() && slot.addr.is_some() {
                self.gateway.send_to(*node, &WireMsg::Shutdown);
            }
        }
        for (signal, grace) in [(None, 2), (Some(sig::SIGTERM), 1)] {
            for slot in self.slots.values().filter(|s| s.child.is_some()) {
                if let Some(signal) = signal {
                    sig::send_signal(slot.pid, signal);
                }
            }
            let deadline = Instant::now() + Duration::from_secs(grace);
            loop {
                self.reap();
                let alive = self.slots.values().any(|s| s.child.is_some());
                if !alive || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill_all();
        self.gateway.stop();
        if let Some(h) = self.health.take() {
            h.stop();
        }
    }

    fn take_report(&mut self) -> Result<ProcReport, ProcError> {
        let merge = self.opts.obs_dir.as_ref().and_then(|dir| {
            merge_dump_files(&Self::dump_inputs(dir), &dir.join("merged.jsonl"))
                .map_err(|e| eprintln!("mpirun: dump merge failed: {e}"))
                .ok()
        });
        let telemetry = std::mem::take(&mut self.telemetry);
        let missing = |r| ProcError::Launch(format!("rank {r} produced no result"));
        let results = self.core.take_results().into_iter().enumerate();
        let finals = self.core.finals.iter().enumerate();
        Ok(ProcReport {
            results: results
                .map(|(r, p)| p.ok_or_else(|| missing(r)))
                .collect::<Result<_, _>>()?,
            restarts: self.core.restarts as u32,
            service_restarts: self.core.service_restarts as u32,
            detections: std::mem::take(&mut self.core.detections),
            rank_metrics: finals
                .filter_map(|(r, f)| Some((Rank(r as u32), f.as_ref()?.0)))
                .collect(),
            merge,
            telemetry: telemetry
                .into_iter()
                .map(|(n, (_, s))| (n.to_string(), s))
                .collect(),
        })
    }
}

/// Feed one child's telemetry batch to the cluster monitor, but only
/// from the node's `current` incarnation: a SIGKILLed predecessor's
/// last frames can arrive after its successor's `RecoveryBegin` reset
/// the rank's monitor state, where their receptions would read as the
/// successor's unacked ones.
fn observe_live(
    monitor: &InvariantMonitor,
    current: u64,
    incarnation: u64,
    records: &[FlightRecord],
) {
    if incarnation == current {
        monitor.observe_all(records);
    }
}

impl Drop for Launcher<'_> {
    fn drop(&mut self) {
        // Orphan safety: whatever path unwound us, no child survives.
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_obs::SendDisposition;

    fn rec(clock: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank: 1,
            clock,
            ts_ns: clock * 1_000,
            event,
        }
    }

    fn deliver(sender_clock: u64, receiver_clock: u64) -> ProtoEvent {
        ProtoEvent::Deliver {
            from: 0,
            sender_clock,
            receiver_clock,
            replay: false,
        }
    }

    #[test]
    fn a_superseded_incarnations_late_batch_cannot_trip_the_monitor() {
        let ack = ProtoEvent::ElAck {
            up_to: 1,
            batches_retired: 1,
            rtt_ns: 10,
        };
        let send = ProtoEvent::Send {
            to: 0,
            clock: 3,
            bytes: 8,
            disposition: SendDisposition::Wire,
        };
        // Rank 1's incarnation 0 delivers and acks clock 1, then is
        // killed; incarnation 1 recovers from clock 1. Incarnation 0's
        // last frame (its clock-2 delivery, never acked) arrives only
        // after that reset, then incarnation 1 sends.
        let batches: Vec<(u64, u64, Vec<FlightRecord>)> = vec![
            (0, 0, vec![rec(1, deliver(1, 1)), rec(1, ack)]),
            (
                1,
                1,
                vec![
                    rec(1, ProtoEvent::RecoveryBegin { restored_clock: 1 }),
                    rec(0, ProtoEvent::Restart1 { rank: 1 }),
                ],
            ),
            (1, 0, vec![rec(2, deliver(2, 2))]),
            (1, 1, vec![rec(3, send)]),
        ];
        let guarded = InvariantMonitor::new();
        let unguarded = InvariantMonitor::new();
        for (current, incarnation, records) in &batches {
            observe_live(&guarded, *current, *incarnation, records);
            unguarded.observe_all(records);
        }
        assert_eq!(guarded.violation(), None);
        // Fed regardless of incarnation, the same frames trip the gate
        // check on the successor's first send.
        let v = unguarded
            .violation()
            .expect("the stale delivery trips the monitor");
        assert_eq!((v.invariant, v.rank, v.clock), ("pessimism-gate", 1, 3));
    }
}
