//! The in-process launcher — the `mpirun` of the thread deployment (§4.7).
//!
//! "The execution monitor first launches the execution of the different
//! programs (CS, EL, SC, CN), and then monitors the execution potentially
//! re-launching the crashed programs." Every supervision decision —
//! respawn back-off, the restart budget, service revival, the fault plan,
//! the end of the run — is made by the shared `Supervisor` core; this
//! module only launches node threads on the [`Fabric`], reports what it
//! observes (a dead fabric slot is the disconnect the paper trusts as the
//! failure verdict; exits carry results) and carries out the core's
//! actions: reincarnate a node with `restart = true`, which drives the
//! ROLLBACK → DownloadEL → RESTART1/RESTART2 → replay recovery, or kill
//! one as the fault plan orders.

use crate::baseline::default_cms;
use crate::chaos::ChaosReport;
use crate::deploy::{stream_name, Backend, ClusterConfig, Topology};
use crate::messages::DispatcherMsg;
use crate::node::{
    register_node, start_node, MpiApp, NodeConfig, NodeExit, Outcome, RuntimeProtocol,
};
use crate::services::{
    absorb_siblings, spawn_channel_memories, spawn_checkpoint_scheduler,
    spawn_checkpoint_server_on, spawn_el_replica, spawn_event_loggers,
};
pub use crate::supervisor::ClusterError;
use crate::supervisor::{bind_health, put, Action, Event, Supervisor};
use mvr_ckpt::CheckpointStore;
use mvr_core::{ElAddr, Metrics, NodeId, Payload, Rank};
use mvr_eventlog::EventLogStore;
use mvr_net::{Fabric, Mailbox};
use mvr_obs::{
    Dump, HealthServer, InvariantMonitor, PromPage, ProtoEvent, ProtocolTimings, Recorder,
    RecorderHub, DISPATCHER_RANK,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Housekeeping cadence of the launcher loop while it waits for exits:
/// the fabric liveness scan and the metrics drain.
const POLL_TICK: Duration = Duration::from_millis(10);

/// Fault-injection handle, cloneable and usable from any thread while the
/// dispatcher waits.
#[derive(Clone)]
pub struct FaultHandle {
    fabric: Fabric,
    topology: Topology,
}

impl FaultHandle {
    /// Crash a computing node (daemon + MPI process), fail-stop. The group
    /// dies atomically so the dispatcher never sees it half-killed.
    pub fn kill(&self, rank: Rank) {
        assert!(rank.0 < self.topology.world());
        self.fabric.kill_group(&mvr_net::fail_stop_group(rank));
    }

    /// Crash the checkpoint server (§4.3: the system survives; affected
    /// nodes restart from scratch).
    pub fn kill_checkpoint_server(&self) {
        self.fabric.kill(NodeId::CheckpointServer(0));
    }

    /// Crash an event logger by flat index. Unreplicated, the EL is the
    /// component the deployment *assumes* reliable (§4.3) and killing
    /// it stalls pessimistic logging — provided for tests that document
    /// this reliance. With `el_replicas > 1` the dispatcher revives the
    /// replica and the surviving quorum keeps the gates open.
    pub fn kill_event_logger(&self, index: u32) {
        self.fabric.kill(NodeId::EventLogger(index));
    }

    /// Crash one replica of an event-logger shard.
    pub fn kill_el_replica(&self, shard: u32, replica: u32) {
        self.fabric
            .kill(self.topology.el_node(ElAddr { shard, replica }));
    }

    /// Is the rank's current incarnation alive?
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.fabric.is_alive(NodeId::Computing(rank))
    }
}

/// The outcome of a completed run, with recovery statistics.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-rank result payloads.
    pub results: Vec<Payload>,
    /// Node reincarnations the dispatcher performed.
    pub restarts: u64,
    /// Checkpoint-server relaunches the dispatcher performed (§4.3).
    pub service_restarts: u64,
    /// Recoveries begun across all finishing incarnations.
    pub recoveries: u64,
    /// Replays driven to completion across all finishing incarnations.
    pub replays_completed: u64,
    /// Deliveries re-executed from logs during replays.
    pub replayed_deliveries: u64,
    /// Duplicate retransmissions discarded by receivers (the exactly-once
    /// filter).
    pub duplicates_dropped: u64,
    /// Messages re-sent from sender logs on RESTART1 requests.
    pub retransmissions: u64,
    /// Latency histograms (gate wait, EL ack RTT, checkpoint upload,
    /// replay) merged across every rank's finishing incarnation.
    pub timings: ProtocolTimings,
    /// Full engine counters of each rank's finishing incarnation, in
    /// rank order — the raw material of the conservation invariants.
    pub rank_metrics: Vec<Metrics>,
    /// What the chaos driver did, when one was configured.
    pub chaos: Option<ChaosReport>,
    /// The merged flight-recorder dump, when `obs_dir` was set — its
    /// path, header counters and applied tracks, the skew estimate,
    /// first-divergence triage.
    pub merge: Option<Dump>,
}

/// A running deployment.
pub struct Cluster {
    fabric: Fabric,
    cfg: ClusterConfig,
    topology: Topology,
    app: Arc<dyn MpiApp>,
    pub(crate) exit_tx: mpsc::Sender<NodeExit>,
    exit_rx: mpsc::Receiver<NodeExit>,
    handles: Vec<JoinHandle<()>>,
    disp_mb: Mailbox<DispatcherMsg>,
    /// Every supervision decision.
    core: Supervisor,
    /// Launch time: the origin of the core's clock.
    start: Instant,
    /// Registry of every incarnation's flight recorder (shared epoch).
    hub: Arc<RecorderHub>,
    /// The dispatcher's own recorder (pseudo-rank `DISPATCHER_RANK`).
    disp_rec: Recorder,
    /// The checkpoint server's stable storage: shared across CS
    /// incarnations so acked images survive a CS crash.
    cs_store: Arc<Mutex<CheckpointStore>>,
    /// One unique-event counter per event-logger replica, flat-indexed
    /// (V2 only).
    el_events_ever: Vec<Arc<AtomicU64>>,
    /// Each EL replica's shared ledger, flat-indexed. The store outlives
    /// its service thread, so a killed replica keeps its events and a
    /// revival absorbs a live peer's ledger into it before respawning.
    el_stores: Vec<Arc<Mutex<EventLogStore>>>,
    /// Live health endpoint, when enabled.
    health: Option<HealthServer>,
}

impl Cluster {
    /// Launch services and all computing nodes running `app`.
    ///
    /// # Panics
    ///
    /// When `cfg` does not describe an in-process deployment
    /// ([`ClusterConfig::validate`] says which field); callers holding
    /// untrusted input validate first.
    pub fn launch<A: MpiApp>(cfg: ClusterConfig, app: A) -> Cluster {
        let topology = match cfg.validate(Backend::InProcess) {
            Ok(topology) => topology,
            Err(e) => panic!("cannot launch: {e}"),
        };
        let fabric = Fabric::new();
        let app: Arc<dyn MpiApp> = Arc::new(app);
        let (exit_tx, exit_rx) = mpsc::channel();
        let mut handles = Vec::new();

        let mut obs_cfg = cfg.obs;
        // The monitor consumes live records and a dump directory wants
        // them, so either implies recording.
        if cfg.monitor || cfg.obs_dir.is_some() {
            obs_cfg.enabled = true;
        }
        let hub = cfg.recorder_hub(obs_cfg, Instant::now());
        // Attach the monitor before minting ANY recorder: only recorders
        // minted after `set_sink` feed it.
        let monitor = cfg.monitor.then(|| {
            let m = InvariantMonitor::new();
            hub.set_sink(m.clone());
            m
        });
        let health = bind_health(&cfg).unwrap_or_else(|e| {
            eprintln!("health endpoint: {e}");
            None
        });
        let disp_rec = hub.recorder(DISPATCHER_RANK);

        if let Some(cap) = cfg.ring_capacity {
            fabric.set_ring_capacity(cap);
        }
        if let Some(turb) = &cfg.turbulence {
            fabric.install_turbulence(turb.clone());
        }

        // Dispatcher mailbox: receives Finalized notifications carrying
        // each finishing incarnation's engine metrics; drained by the
        // wait loop into the RunReport.
        let (disp_mb, _disp_id) = fabric.register::<DispatcherMsg>(NodeId::Dispatcher);

        let cs_store = Arc::new(Mutex::new(CheckpointStore::new()));
        let mut el_events_ever = Vec::new();
        let mut el_stores = Vec::new();
        match cfg.protocol {
            RuntimeProtocol::V2 => {
                let (el_handles, el_counters, stores) =
                    spawn_event_loggers(&fabric, topology, &exit_tx);
                handles.extend(el_handles);
                el_events_ever = el_counters;
                el_stores = stores;
                handles.push(spawn_checkpoint_server_on(
                    &fabric,
                    cs_store.clone(),
                    &exit_tx,
                ));
                if let Some(sc) = &cfg.checkpointing {
                    handles.push(spawn_checkpoint_scheduler(
                        &fabric,
                        cfg.world,
                        sc.clone(),
                        &exit_tx,
                    ));
                }
            }
            RuntimeProtocol::V1 => {
                handles.extend(spawn_channel_memories(
                    &fabric,
                    default_cms(cfg.world),
                    &exit_tx,
                ));
            }
            RuntimeProtocol::P4 => {}
        }

        let core = Supervisor::new(&cfg, topology, disp_rec.clone(), monitor);
        let mut cluster = Cluster {
            fabric,
            cfg,
            topology,
            app,
            exit_tx,
            exit_rx,
            handles,
            disp_mb,
            core,
            start: Instant::now(),
            hub,
            disp_rec,
            cs_store,
            el_events_ever,
            el_stores,
            health,
        };

        // Register every node before starting any, so initial sends never
        // race a half-registered peer.
        let slots: Vec<_> = topology
            .ranks()
            .map(|r| (r, register_node(&cluster.fabric, r)))
            .collect();
        for (r, s) in slots {
            cluster.start_rank(r, s, 0);
        }
        cluster
    }

    /// Address of the live health endpoint, when one is serving
    /// ([`ClusterConfig::health_addr`]); resolves `:0` bindings.
    pub fn health_addr(&self) -> Option<std::net::SocketAddr> {
        self.health.as_ref().map(|h| h.local_addr())
    }

    /// The deployment's flight-recorder hub. Harnesses clone this before
    /// `wait`/`wait_report` (which consume the cluster) so they can
    /// record their own divergences afterwards, and read the in-memory
    /// timeline of a run without `obs_dir`.
    pub fn recorder_hub(&self) -> Arc<RecorderHub> {
        self.hub.clone()
    }

    /// Per-event-logger live counters of cumulative unique events
    /// logged. Clone before `wait`/`wait_report`; read after the run to
    /// assert delivery-conservation invariants.
    pub fn el_event_counters(&self) -> Vec<Arc<AtomicU64>> {
        self.el_events_ever.clone()
    }

    /// A fault-injection handle.
    pub fn fault_handle(&self) -> FaultHandle {
        FaultHandle {
            fabric: self.fabric.clone(),
            topology: self.topology,
        }
    }

    /// Number of node reincarnations performed so far.
    pub fn restarts(&self) -> u64 {
        self.core.restarts
    }

    /// As [`wait`](Self::wait), additionally reporting the dispatcher's
    /// restart counts, the aggregated recovery metrics of every rank's
    /// finishing incarnation and the merged flight-recorder dump.
    pub fn wait_report(self, timeout: Duration) -> Result<RunReport, ClusterError> {
        let mut me = self;
        let outcome = me.wait_inner(timeout);
        // Every node thread is joined: the streams are complete.
        let merge = me.cfg.dump_run(outcome.is_ok());
        let mut report = RunReport {
            results: outcome?,
            restarts: me.core.restarts,
            service_restarts: me.core.service_restarts,
            chaos: me.core.chaos_report(),
            merge,
            ..Default::default()
        };
        for (m, t) in me.core.finals.iter().flatten() {
            report.recoveries += m.recoveries;
            report.replays_completed += m.replays_completed;
            report.replayed_deliveries += m.replayed_deliveries;
            report.duplicates_dropped += m.duplicates_dropped;
            report.retransmissions += m.retransmissions;
            report.timings.merge(t);
            report.rank_metrics.push(*m);
        }
        Ok(report)
    }

    /// Run the launcher loop until every rank has finished (restarting
    /// crashed nodes), then tear everything down and return the per-rank
    /// results.
    pub fn wait(self, timeout: Duration) -> Result<Vec<Payload>, ClusterError> {
        self.wait_report(timeout).map(|report| report.results)
    }

    fn drain_dispatcher_mailbox(&mut self) {
        while let Ok(Some(DispatcherMsg::Finalized {
            rank,
            metrics,
            timings,
        })) = self.disp_mb.try_recv()
        {
            self.core.finalized(rank, metrics, timings);
        }
    }

    fn wait_inner(&mut self, timeout: Duration) -> Result<Vec<Payload>, ClusterError> {
        self.core.deadline = Some(self.start.elapsed() + timeout);
        // Threads on the fabric are ready the moment they are spawned.
        let launched = self.core.nodes();
        let mut events: VecDeque<Event> = launched
            .map(|(node, incarnation, _)| Event::Ready { node, incarnation })
            .collect();
        loop {
            // The fabric's liveness is the failure verdict (§4.7 trusts
            // a disconnect): it covers planned kills, external fault
            // handles and turbulence triggers alike, and it is always
            // about the incarnation currently registered.
            for (node, incarnation, up) in self.core.nodes() {
                if up && !self.fabric.is_alive(node) {
                    events.push_back(Event::Down {
                        node,
                        incarnation,
                        cause: "fabric slot dead".into(),
                    });
                }
            }
            self.drain_dispatcher_mailbox();
            events.push_back(Event::Tick);

            let mut killed = false;
            while let Some(ev) = events.pop_front() {
                for action in self.core.step(self.start.elapsed(), ev) {
                    match action {
                        Action::Spawn { node, incarnation } => {
                            self.spawn(node, incarnation);
                            events.push_back(Event::Ready { node, incarnation });
                        }
                        Action::Kill { node } => {
                            killed = true;
                            match node {
                                // Atomic: the daemon must never be seen
                                // dead while the co-located process slot
                                // is still alive.
                                NodeId::Computing(r) => {
                                    self.fabric.kill_group(&mvr_net::fail_stop_group(r))
                                }
                                other => self.fabric.kill(other),
                            }
                        }
                        Action::Fail(err) => {
                            self.teardown();
                            return Err(err);
                        }
                        Action::Done => {
                            self.drain_dispatcher_mailbox();
                            self.publish_health(false);
                            self.teardown();
                            return Ok(self
                                .core
                                .take_results()
                                .into_iter()
                                .map(|p| p.expect("all finished"))
                                .collect());
                        }
                    }
                }
            }
            if self.health.is_some() && self.core.health_due(self.start.elapsed()) {
                self.publish_health(true);
            }
            if killed {
                // Observe our own kill right away instead of sleeping on it.
                continue;
            }

            // Sleep until the next interesting instant: an exit arriving,
            // a respawn or planned kill coming due, the deadline, or the
            // next housekeeping tick.
            let idle = self.core.idle_for(self.start.elapsed(), POLL_TICK);
            let exit = match self.exit_rx.recv_timeout(idle) {
                Ok(e) => e,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("dispatcher holds a sender")
                }
            };
            match exit.outcome {
                Outcome::Finished(payload) => {
                    let NodeId::Computing(rank) = exit.node else {
                        unreachable!("only ranks finish")
                    };
                    events.push_back(Event::Result { rank, payload })
                }
                Outcome::Failed(detail) => events.push_back(Event::Failed {
                    node: exit.node,
                    detail,
                }),
                // A crash report names no incarnation and may be stale;
                // it only wakes the loop — the liveness scan above is
                // the verdict.
                Outcome::Killed => {}
            }
        }
    }

    fn publish_health(&mut self, running: bool) {
        let Some(health) = &self.health else { return };
        let counters = self.el_events_ever.iter();
        let el_events: Vec<u64> = counters.map(|c| c.load(Ordering::Relaxed)).collect();
        let finals = self.core.finals.iter().enumerate();
        let rank_timings: Vec<(Rank, ProtocolTimings)> = finals
            .filter_map(|(r, f)| f.as_ref().map(|(_, t)| (Rank(r as u32), t.clone())))
            .collect();
        // Lock-free (atomic depth counter): safe to sample every tick.
        let depth = self.disp_mb.len();
        let extras = |page: &mut PromPage| put(page, "mvr_dispatcher_mailbox_depth", "", depth);
        let page = self
            .core
            .render_health(running, &rank_timings, &el_events, &[], extras);
        health.publish(page);
    }

    /// Launch reincarnation `incarnation` of `node` on the fabric.
    fn spawn(&mut self, node: NodeId, incarnation: u64) {
        match node {
            NodeId::Computing(rank) => {
                let slots = register_node(&self.fabric, rank);
                self.start_rank(rank, slots, incarnation);
            }
            // Relaunch a crashed checkpoint server (§4.3/§4.7). It
            // resumes from stable storage: every image acked before the
            // crash is served again, so ranks whose event logs were
            // truncated against those images stay recoverable. Only
            // ranks that never checkpointed restart from scratch —
            // §4.3's "at worst".
            NodeId::CheckpointServer(_) => self.handles.push(spawn_checkpoint_server_on(
                &self.fabric,
                self.cs_store.clone(),
                &self.exit_tx,
            )),
            // Revive a crashed event-logger replica on its surviving
            // ledger after absorbing its live same-shard peers, so it
            // returns holding every event the quorum ever acked.
            NodeId::EventLogger(flat) => {
                let addr = self.topology.el_addr(flat);
                let snapshots: Vec<EventLogStore> = self
                    .topology
                    .siblings(addr)
                    .filter(|peer| self.fabric.is_alive(*peer))
                    .map(|peer| match peer {
                        NodeId::EventLogger(f) => self.el_stores[f as usize].lock().clone(),
                        other => unreachable!("{other} is not an event logger"),
                    })
                    .collect();
                let caught_up = absorb_siblings(
                    &mut self.el_stores[flat as usize].lock(),
                    snapshots.len(),
                    snapshots.into_iter(),
                );
                self.el_events_ever[flat as usize].store(caught_up, Ordering::Relaxed);
                self.handles.push(spawn_el_replica(
                    &self.fabric,
                    self.topology,
                    flat,
                    self.el_events_ever[flat as usize].clone(),
                    self.el_stores[flat as usize].clone(),
                    &self.exit_tx,
                ));
                self.disp_rec.record(
                    0,
                    ProtoEvent::ElReplicaRevive {
                        shard: addr.shard,
                        replica: addr.replica,
                        caught_up,
                    },
                );
            }
            other => unreachable!("{other} is not a supervised node"),
        }
    }

    fn start_rank(&mut self, rank: Rank, slots: crate::node::NodeSlots, incarnation: u64) {
        let stream = stream_name(NodeId::Computing(rank), incarnation);
        let ncfg = NodeConfig {
            rank,
            topology: self.topology,
            protocol: self.cfg.protocol,
            restart: incarnation > 0,
            recorder: self.hub.stream_recorder(rank.0, &stream),
        };
        self.handles.extend(start_node(
            slots,
            ncfg,
            self.app.clone(),
            self.exit_tx.clone(),
        ));
    }

    fn teardown(&mut self) {
        self.fabric.clear_turbulence();
        // Kill everything; threads unwind on their mailbox errors.
        for r in self.topology.ranks() {
            self.fabric.kill_group(&mvr_net::fail_stop_group(r));
        }
        // The services (the ranks again, which is a no-op).
        for node in self.topology.nodes() {
            self.fabric.kill(node);
        }
        for i in 0..default_cms(self.cfg.world) {
            self.fabric.kill(NodeId::ChannelMemory(i));
        }
        self.fabric.kill(NodeId::CheckpointScheduler);
        self.fabric.kill(NodeId::Dispatcher);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One-shot convenience: launch, wait, return results.
pub fn run_cluster<A: MpiApp>(
    cfg: ClusterConfig,
    app: A,
    timeout: Duration,
) -> Result<Vec<Payload>, ClusterError> {
    Cluster::launch(cfg, app).wait(timeout)
}
