//! The supervision core — the paper's one dispatcher (§4.7: "launches
//! the different programs … and then monitors the execution potentially
//! re-launching the crashed programs"), as a sans-IO state machine in
//! the idiom of `mvr_core::V2Engine`.
//!
//! [`crate::Cluster`] (threads on the in-process fabric) and
//! [`crate::proc::run_proc`] (OS processes over TCP) only translate what
//! they observe into [`Event`]s and carry out the returned [`Action`]s;
//! every supervision *decision* lives here, once:
//!
//! - **one death, one verdict** — a `Down` about a slot already down
//!   (reaper and socket detector both saw it) or about an incarnation
//!   older than the one launched is ignored;
//! - **respawn with back-off** — `restart_delay × 2^attempt`, capped at
//!   64×, as a deadline, so overlapping crashes proceed concurrently;
//! - **restart budget** — an unfinished rank past `max_rank_restarts`
//!   fails the run; P4 crashes and crashes with `auto_restart` off fail
//!   it at once;
//! - **finished-rank revival** — under V2 a rank killed *after* it
//!   returned its result comes back (its volatile sender log still
//!   serves replaying peers); revivals never fail the run, they just
//!   stop once the budget is spent;
//! - **service revival** — the checkpoint server always (§4.3); an
//!   event-logger replica only when `el_replicas > 1` (§4.5 assumes the
//!   unreplicated EL reliable: a dead one stays dead and the system
//!   stalls at the pessimism gate rather than resume on an empty ledger);
//! - **the fault plan** — timed kills and the seeded
//!   [`ChaosConfig::plan`] flattened into one schedule; a kill whose
//!   victim's current incarnation has not reported *ready* is held until
//!   it does, so a fault never lands on a node that is not there yet;
//! - **the run's end** — every rank returned a result, the online
//!   invariant monitor tripped, or the deadline passed;
//! - **the health page** — one Prometheus vocabulary for both backends.

use crate::chaos::{ChaosEvent, ChaosReport};
use crate::deploy::{ClusterConfig, Topology};
use crate::node::RuntimeProtocol;
use mvr_core::{Metrics, NodeId, Payload, Rank};
use mvr_obs::{
    timing_families, window_families, HealthServer, InvariantMonitor, LogHistogram, PromPage,
    ProtoEvent, ProtocolTimings, Recorder, Violation, WindowRing,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;
use std::time::Duration;

/// How often the health page is re-rendered while the run is live.
const HEALTH_CADENCE: Duration = Duration::from_millis(100);

/// Why a run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// Not all ranks finished in time (includes a per-rank status dump).
    Timeout(String),
    /// An application rank failed with a non-crash error.
    AppFailed {
        /// The failing rank.
        rank: Rank,
        /// Its error.
        error: String,
    },
    /// A service thread (event logger, checkpoint server or scheduler,
    /// channel memory) panicked: a bug, reported at once.
    ServiceFailed {
        /// The failing service.
        node: NodeId,
        /// Its panic message.
        error: String,
    },
    /// A rank crashed while `auto_restart` was off: without the execution
    /// monitor's relaunch there is no recovery path, so the run fails
    /// immediately instead of idling until the timeout.
    RankLost {
        /// The crashed rank.
        rank: Rank,
    },
    /// A rank exceeded the `max_rank_restarts` bound on crash loops.
    RestartBudgetExhausted {
        /// The crash-looping rank.
        rank: Rank,
        /// Reincarnations performed for it before giving up.
        restarts: u32,
    },
    /// The online invariant monitor caught a protocol-invariant
    /// violation; the run halted at the first one.
    InvariantViolated {
        /// The first violation, with rank, clocks and detail.
        violation: Violation,
    },
}

impl Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Timeout(s) => write!(f, "cluster run timed out: {s}"),
            ClusterError::AppFailed { rank, error } => write!(f, "rank {rank} failed: {error}"),
            ClusterError::ServiceFailed { node, error } => write!(f, "{node} failed: {error}"),
            ClusterError::RankLost { rank } => {
                write!(f, "rank {rank} crashed and auto_restart is disabled")
            }
            ClusterError::RestartBudgetExhausted { rank, restarts } => write!(
                f,
                "rank {rank} exhausted its restart budget ({restarts} restarts)"
            ),
            ClusterError::InvariantViolated { violation } => {
                write!(f, "protocol invariant violated: {violation}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// What a launcher observed.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// `node`'s incarnation is up and doing its job (its flight-record
    /// stream is open, its threads run). Immediate on the fabric.
    Ready { node: NodeId, incarnation: u64 },
    /// A fail-stop verdict about one incarnation of `node`: fabric slot
    /// dead, child reaped, socket detector fired.
    Down {
        node: NodeId,
        incarnation: u64,
        cause: String,
    },
    /// A rank's application returned its result.
    Result { rank: Rank, payload: Payload },
    /// A rank's application failed with a real (non-crash) error, or a
    /// service thread panicked.
    Failed { node: NodeId, detail: String },
    /// Time passed.
    Tick,
}

/// What the launcher must do.
#[derive(Debug)]
pub(crate) enum Action {
    /// Launch `incarnation` of `node`; `restart` incarnations recover
    /// (ranks) or catch up from their peers (services).
    Spawn {
        node: NodeId,
        incarnation: u64,
        restart: bool,
    },
    /// Crash `node`'s current incarnation, fail-stop.
    Kill { node: NodeId },
    /// The run failed; tear down and report.
    Fail(ClusterError),
    /// Every rank returned its result; tear down and report.
    Done,
}

/// One planned fault: kill `target` once `at` has elapsed since launch
/// *and* its current incarnation is ready.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlannedKill {
    at: Duration,
    target: NodeId,
    /// The chaos plan scheduled it against a still-recovering rank.
    rekill: bool,
}

/// Flatten explicit timed kills and the seeded chaos plan into one
/// schedule ordered by time (ties keep plan order) — a pure function of
/// its inputs, so a pinned seed replays the identical fault sequence on
/// either backend.
fn flatten_plan(kills: &[(NodeId, Duration)], chaos: &[ChaosEvent]) -> Vec<PlannedKill> {
    let planned = |at, target, rekill| PlannedKill { at, target, rekill };
    let mut plan: Vec<_> = kills.iter().map(|&(n, at)| planned(at, n, false)).collect();
    let mut t = Duration::ZERO;
    for ev in chaos {
        t += ev.after;
        let ranks = ev.victims.iter().map(|v| NodeId::Computing(*v));
        let cs = ev
            .kill_checkpoint_server
            .then_some(NodeId::CheckpointServer(0));
        let el = ev.kill_el_replica.map(NodeId::EventLogger);
        plan.extend(ranks.chain(cs).chain(el).map(|n| planned(t, n, ev.rekill)));
    }
    plan.sort_by_key(|k| k.at);
    plan
}

struct Slot {
    incarnation: u64,
    /// Launched and not yet declared down.
    up: bool,
    /// The current incarnation reported ready and no kill is in flight.
    ready: bool,
    /// Respawns scheduled so far — drives back-off and the budget.
    restarts: u32,
    respawn_at: Option<Duration>,
    /// The application result, once the rank has finished.
    result: Option<Payload>,
}

/// The supervision state machine. See the module docs for the rules.
pub(crate) struct Supervisor {
    /// The deployment's rules: protocol, `auto_restart`,
    /// `restart_delay`, `max_rank_restarts`.
    policy: ClusterConfig,
    topology: Topology,
    slots: BTreeMap<NodeId, Slot>,
    /// Undelivered planned kills, ordered by time.
    plan: Vec<PlannedKill>,
    /// The seeded storm's plan and the kills delivered so far.
    chaos: ChaosReport,
    /// Rank reincarnations performed.
    pub restarts: u64,
    /// Service (EL replica / CS) reincarnations performed.
    pub service_restarts: u64,
    /// Accepted fail-stop verdicts `(node, cause)`, in detection order.
    pub detections: Vec<(String, String)>,
    /// End-of-run reports by rank; a later incarnation's overwrites an
    /// earlier one's, so the state of the one that completed wins.
    pub finals: Vec<Option<(Metrics, ProtocolTimings)>>,
    /// Fail the run with `Timeout` once this (since launch) has passed.
    pub deadline: Option<Duration>,
    recorder: Recorder,
    monitor: Option<Arc<InvariantMonitor>>,
    windows: WindowRing,
    next_health: Duration,
    over: bool,
}

impl Supervisor {
    /// A supervisor over a freshly launched deployment: every rank (and,
    /// under V2, every event-logger replica and the checkpoint server)
    /// is at incarnation 0, up, and not yet ready. `policy` is the
    /// launcher's own deployment description — the restart rules and the
    /// fault plan (`kills`, `chaos`) — and `topology` its validated node
    /// layout; `recorder` is the dispatcher's flight recorder;
    /// `monitor`, when given, is polled for violations on every step.
    pub fn new(
        policy: &ClusterConfig,
        topology: Topology,
        recorder: Recorder,
        monitor: Option<Arc<InvariantMonitor>>,
    ) -> Supervisor {
        let policy = policy.clone();
        // The baselines run no event logger and no checkpoint server.
        let v2 = policy.protocol == RuntimeProtocol::V2;
        let nodes = topology
            .nodes()
            .filter(|n| v2 || matches!(n, NodeId::Computing(_)));
        let fresh = || Slot {
            incarnation: 0,
            up: true,
            ready: false,
            restarts: 0,
            respawn_at: None,
            result: None,
        };
        let slots: BTreeMap<_, _> = nodes.map(|n| (n, fresh())).collect();
        let storm = policy.chaos.as_ref().map(|c| c.plan(&topology));
        let chaos = ChaosReport {
            plan: storm.unwrap_or_default(),
            ..Default::default()
        };
        let mut plan = flatten_plan(&policy.kills, &chaos.plan);
        // A fault aimed at a node this deployment does not have can
        // never become ready; drop it instead of holding it forever.
        plan.retain(|k| slots.contains_key(&k.target));
        Supervisor {
            finals: vec![None; topology.world() as usize],
            policy,
            topology,
            slots,
            plan,
            chaos,
            restarts: 0,
            service_restarts: 0,
            detections: Vec::new(),
            deadline: None,
            recorder,
            monitor,
            windows: WindowRing::with_defaults(0),
            next_health: Duration::ZERO,
            over: false,
        }
    }

    /// Feed one observation made at `now` (since launch); returns what
    /// to do about it. Every event also advances time: due kills fire,
    /// due respawns launch, the end of the run is noticed.
    pub fn step(&mut self, now: Duration, event: Event) -> Vec<Action> {
        if self.over {
            return Vec::new();
        }
        let failure = match event {
            Event::Ready { node, incarnation } => {
                if let Some(slot) = self.slots.get_mut(&node) {
                    slot.ready |= slot.up && incarnation == slot.incarnation;
                }
                None
            }
            Event::Down {
                node,
                incarnation,
                cause,
            } => self.on_down(now, node, incarnation, cause),
            Event::Result { rank, payload } => {
                if let Some(slot) = self.slots.get_mut(&NodeId::Computing(rank)) {
                    slot.result = Some(payload);
                }
                None
            }
            Event::Failed {
                node: NodeId::Computing(rank),
                detail,
            } => Some(ClusterError::AppFailed {
                rank,
                error: detail,
            }),
            Event::Failed { node, detail } => Some(ClusterError::ServiceFailed {
                node,
                error: detail,
            }),
            Event::Tick => None,
        };
        if let Some(err) = failure.or_else(|| self.violation()) {
            return vec![self.fail(err)];
        }

        // Planned kills that are due and whose victim is ready, in plan
        // order; the rest stay held.
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.plan.len() && self.plan[i].at <= now {
            let slot = self
                .slots
                .get_mut(&self.plan[i].target)
                .expect("known node");
            if !(slot.up && slot.ready) {
                i += 1;
                continue;
            }
            // One planned kill, one death: further kills of this victim
            // wait for its next incarnation.
            slot.ready = false;
            let kill = self.plan.remove(i);
            self.record_kill(&kill);
            out.push(Action::Kill { node: kill.target });
        }

        // Respawns whose back-off has elapsed.
        for (node, slot) in &mut self.slots {
            if slot.respawn_at.is_some_and(|t| t <= now) {
                slot.respawn_at = None;
                slot.incarnation += 1;
                slot.up = true;
                match node {
                    NodeId::Computing(_) => self.restarts += 1,
                    _ => self.service_restarts += 1,
                }
                out.push(Action::Spawn {
                    node: *node,
                    incarnation: slot.incarnation,
                    restart: true,
                });
            }
        }

        if self.ranks().all(|(_, s)| s.result.is_some()) {
            // A violation recorded by the last rank's finishing burst
            // must still fail the run.
            if let Some(err) = self.violation() {
                return vec![self.fail(err)];
            }
            self.over = true;
            out.push(Action::Done);
        } else if self.deadline.is_some_and(|d| now >= d) {
            let status: Vec<String> = self
                .ranks()
                .map(|(r, s)| {
                    let (finished, alive, restarts) = (s.result.is_some(), s.up, s.restarts);
                    format!("rank {r}: finished={finished} alive={alive} restarts={restarts}")
                })
                .collect();
            out.push(self.fail(ClusterError::Timeout(status.join("; "))));
        }
        out
    }

    /// One death, one verdict; then the restart policy.
    fn on_down(
        &mut self,
        now: Duration,
        node: NodeId,
        incarnation: u64,
        cause: String,
    ) -> Option<ClusterError> {
        let policy = &self.policy;
        let slot = self.slots.get_mut(&node)?;
        // Already adjudicated (detector and reaper both observe a
        // death), or about an incarnation older than the one launched
        // (the synthetic disconnect a reincarnation's hello raises about
        // its predecessor): acting on it would kill the healthy
        // replacement and turn one failure into a respawn storm.
        if !slot.up || incarnation < slot.incarnation {
            return None;
        }
        slot.up = false;
        slot.ready = false;
        self.detections.push((node.to_string(), cause));
        let revive = match node {
            // Finished, but its sender log still serves replaying peers:
            // bring it back (it re-runs deterministically to the same
            // result). Never a run failure — once the budget is spent
            // the revivals just stop.
            NodeId::Computing(_) if slot.result.is_some() => {
                policy.protocol == RuntimeProtocol::V2
                    && policy.auto_restart
                    && slot.restarts < policy.max_rank_restarts
            }
            NodeId::Computing(rank) => {
                if policy.protocol == RuntimeProtocol::P4 {
                    let error = "node crashed under MPICH-P4 (no fault tolerance)".into();
                    return Some(ClusterError::AppFailed { rank, error });
                }
                if !policy.auto_restart {
                    return Some(ClusterError::RankLost { rank });
                }
                let restarts = slot.restarts;
                if restarts >= policy.max_rank_restarts {
                    return Some(ClusterError::RestartBudgetExhausted { rank, restarts });
                }
                true
            }
            // §4.5: the unreplicated event logger is assumed reliable. A
            // dead one stays dead — respawned empty it would ack events
            // it never stored.
            NodeId::EventLogger(_) => policy.auto_restart && self.topology.el_replicas() > 1,
            _ => policy.auto_restart,
        };
        if revive {
            slot.respawn_at = Some(now + policy.restart_delay * (1u32 << slot.restarts.min(6)));
            slot.restarts += 1;
            if let NodeId::Computing(rank) = node {
                let attempt = slot.restarts as u64;
                let event = ProtoEvent::RespawnScheduled {
                    rank: rank.0,
                    attempt,
                };
                self.recorder.record(0, event);
            }
        }
        None
    }

    fn record_kill(&mut self, kill: &PlannedKill) {
        let event = match kill.target {
            NodeId::Computing(r) => {
                self.chaos.rank_kills += 1;
                ProtoEvent::ChaosKill {
                    victim: r.0,
                    rekill: kill.rekill,
                }
            }
            NodeId::EventLogger(_) => {
                self.chaos.el_kills += 1;
                ProtoEvent::ServiceKill {
                    service: kill.target.to_string(),
                }
            }
            _ => {
                self.chaos.cs_kills += 1;
                ProtoEvent::ServiceKill {
                    service: "cs".into(),
                }
            }
        };
        self.recorder.record(0, event);
    }

    fn violation(&self) -> Option<ClusterError> {
        let violation = self.monitor.as_ref()?.violation()?;
        Some(ClusterError::InvariantViolated { violation })
    }

    /// End the run in failure, leaving a `Divergence` record for triage.
    fn fail(&mut self, err: ClusterError) -> Action {
        self.over = true;
        let detail = err.to_string();
        self.recorder.record(0, ProtoEvent::Divergence { detail });
        Action::Fail(err)
    }

    fn ranks(&self) -> impl Iterator<Item = (u32, &Slot)> {
        self.slots.iter().filter_map(|(n, s)| match n {
            NodeId::Computing(r) => Some((r.0, s)),
            _ => None,
        })
    }

    /// The next instant (since launch) at which [`step`](Self::step)
    /// has something to do without a new observation: a respawn or
    /// planned kill coming due, or the deadline. (Kills already due are
    /// held for readiness: an event, not the clock, releases them.)
    fn next_wake(&self, now: Duration) -> Option<Duration> {
        let respawns = self.slots.values().filter_map(|s| s.respawn_at);
        let kill = self.plan.iter().map(|k| k.at).find(|at| *at > now);
        respawns.chain(kill).chain(self.deadline).min()
    }

    /// How long a launcher may wait for its next observation at `now`:
    /// until the core's next timer, at most its housekeeping `tick`.
    pub fn idle_for(&self, now: Duration, tick: Duration) -> Duration {
        let wake = self.next_wake(now);
        wake.map_or(tick, |at| at.saturating_sub(now).min(tick))
    }

    /// Every supervised node: `(node, current incarnation, believed up)`.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, u64, bool)> + '_ {
        self.slots.iter().map(|(n, s)| (*n, s.incarnation, s.up))
    }

    /// Current incarnation of `node` (0 for unknown nodes).
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.slots.get(&node).map_or(0, |s| s.incarnation)
    }

    /// Per-rank results in rank order; `None` where a rank has not
    /// finished.
    pub fn take_results(&mut self) -> Vec<Option<Payload>> {
        let is_rank = |n: &NodeId| matches!(n, NodeId::Computing(_));
        let ranks = self.slots.iter_mut().filter(|(n, _)| is_rank(n));
        ranks.map(|(_, s)| s.result.take()).collect()
    }

    /// Note a rank's end-of-run report.
    pub fn finalized(&mut self, rank: Rank, metrics: Metrics, timings: ProtocolTimings) {
        if let Some(cell) = self.finals.get_mut(rank.idx()) {
            *cell = Some((metrics, timings));
        }
    }

    /// What the fault plan did, when a chaos storm was configured.
    pub fn chaos_report(&self) -> Option<ChaosReport> {
        (!self.chaos.plan.is_empty()).then(|| self.chaos.clone())
    }

    /// Whether the live health page is due for a refresh at `now`.
    pub fn health_due(&mut self, now: Duration) -> bool {
        let due = now >= self.next_health;
        if due {
            self.next_health = now + HEALTH_CADENCE;
        }
        due
    }

    /// Render the Prometheus text health page — the one vocabulary both
    /// backends serve. `rank_timings` are the cumulative protocol
    /// timings per rank (finishing incarnations in-process, live
    /// telemetry over sockets), `el_events` the unique events per
    /// event-logger replica (flat-indexed), `more_intervals` further
    /// histograms to export next to the four protocol ones; `extras`
    /// appends the launcher's own families.
    pub fn render_health(
        &mut self,
        running: bool,
        rank_timings: &[(Rank, ProtocolTimings)],
        el_events: &[u64],
        more_intervals: &[(&str, &LogHistogram)],
        extras: impl FnOnce(&mut PromPage),
    ) -> String {
        let mut page = PromPage::new("mpich-v2 runtime live health");
        let p = &mut page;
        let budget = self.policy.max_rank_restarts;
        put(p, "mvr_up", "", u8::from(running));
        put(p, "mvr_world", "", self.topology.world());
        put(p, "mvr_restarts_total", "", self.restarts);
        put(p, "mvr_service_restarts_total", "", self.service_restarts);
        put(p, "mvr_restart_budget_per_rank", "", budget);
        for (r, s) in self.ranks() {
            let l = &format!("rank=\"{r}\"");
            let left = budget.saturating_sub(s.restarts);
            put(p, "mvr_rank_alive", l, u8::from(s.up));
            put(p, "mvr_rank_finished", l, u8::from(s.result.is_some()));
            put(p, "mvr_rank_incarnations", l, s.restarts);
            put(p, "mvr_rank_restart_budget_remaining", l, left);
        }
        for (i, events) in el_events.iter().enumerate() {
            put(p, "mvr_el_events_total", &format!("el=\"{i}\""), events);
        }
        // A shard's unique-event count is the max across its replicas:
        // each counter is monotone over the same dedup domain, and the
        // max is what a read quorum would reconstruct.
        let replicas = self.topology.el_replicas() as usize;
        for (shard, chunk) in el_events.chunks(replicas).enumerate() {
            let (l, unique) = (&format!("shard=\"{shard}\""), chunk.iter().max());
            put(p, "mvr_el_shard_unique_events", l, unique.unwrap_or(&0));
        }
        // Per-shard ack RTT: each rank's histogram folds into the shard
        // the consistent hash assigns it to.
        let shards = self.topology.el_shards() as usize;
        let mut per_shard = vec![LogHistogram::default(); shards];
        let mut timings = ProtocolTimings::new();
        for (rank, t) in rank_timings {
            per_shard[self.topology.shard_of(*rank) as usize].merge(&t.el_ack_rtt);
            timings.merge(t);
        }
        for (shard, h) in per_shard.iter().enumerate() {
            let (l, s) = (&format!("shard=\"{shard}\""), h.summary());
            put(p, "mvr_el_shard_ack_rtt_count", l, s.count);
            put(p, "mvr_el_shard_ack_rtt_p99_ns", l, s.p99);
        }
        put(
            p,
            "mvr_monitor_enabled",
            "",
            u8::from(self.monitor.is_some()),
        );
        if let Some(m) = &self.monitor {
            let tripped = u8::from(m.violation().is_some());
            put(p, "mvr_monitor_records_total", "", m.records_seen());
            put(p, "mvr_monitor_violations", "", tripped);
        }
        extras(p);
        // Windowed view: advance the ring on the dispatcher's shared
        // epoch clock, then publish the retained windows next to the
        // cumulative families.
        let now_ns = self.recorder.now_ns();
        self.windows.advance(now_ns, &timings);
        let mut intervals = vec![
            ("gate_wait", &timings.gate_wait),
            ("el_ack_rtt", &timings.el_ack_rtt),
            ("ckpt_store", &timings.ckpt_store),
            ("replay", &timings.replay),
        ];
        intervals.extend_from_slice(more_intervals);
        timing_families(p, &intervals);
        let closed: Vec<_> = self.windows.closed().collect();
        window_families(p, &closed, &self.windows.current(now_ns, &timings));
        page.finish()
    }
}

/// Bind the live health endpoint `cfg` asks for and leave its bound
/// address in `proc.health_addr_file` when that is asked for too.
pub(crate) fn bind_health(cfg: &ClusterConfig) -> std::io::Result<Option<HealthServer>> {
    let Some(addr) = &cfg.health_addr else {
        return Ok(None);
    };
    let server = HealthServer::bind(addr)?;
    if let Some(path) = &cfg.proc.health_addr_file {
        if let Err(e) = std::fs::write(path, server.local_addr().to_string()) {
            eprintln!("health addr file {}: {e}", path.display());
        }
    }
    Ok(Some(server))
}

/// Every family of the health page, as `name type help` — the in-process
/// and socket pages differ only in which of the last five they carry.
const FAMILIES: &str = "\
mvr_up gauge 1 while the deployment is running, 0 once it has finished.
mvr_world gauge Number of computing ranks in the deployment.
mvr_restarts_total counter Computing-rank restarts performed since boot.
mvr_service_restarts_total counter Service-node (EL/CS) restarts performed since boot.
mvr_restart_budget_per_rank gauge Maximum restarts allowed per rank before the run fails.
mvr_rank_alive gauge 1 while the rank's current incarnation is live.
mvr_rank_finished gauge 1 once the rank has returned its result.
mvr_rank_incarnations counter Reincarnations scheduled for the rank.
mvr_rank_restart_budget_remaining gauge Restarts left in the rank's budget.
mvr_el_events_total counter Unique events held by the event-logger replica's ledger.
mvr_el_shard_unique_events counter Unique events a read quorum of the shard would reconstruct.
mvr_el_shard_ack_rtt_count counter Ack-RTT samples folded into the shard.
mvr_el_shard_ack_rtt_p99_ns gauge 99th-percentile event-log ack RTT (ns) for the shard.
mvr_monitor_enabled gauge 1 when the online invariant monitor is attached.
mvr_monitor_records_total counter Flight records the invariant monitor has consumed.
mvr_monitor_violations gauge 1 once the monitor has caught an invariant violation.
mvr_dispatcher_mailbox_depth gauge Messages waiting in the dispatcher mailbox.
mvr_proc_child gauge 1 while the node's child process is spawned and connected.
mvr_proc_detections counter Child-failure detections recorded since boot.
mvr_telemetry_records_total counter Flight records the child offered to its telemetry sink.
mvr_telemetry_dropped_total counter Records the child's bounded telemetry buffer dropped.
";

/// Append one sample of a [`FAMILIES`] family to `page`.
pub(crate) fn put(page: &mut PromPage, name: &str, labels: &str, value: impl Display) {
    let declared = FAMILIES.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let family = (parts.next()?, parts.next()?, parts.next()?);
        (family.0 == name).then_some(family)
    });
    let (name, kind, help) = declared.expect("health family is declared in FAMILIES");
    page.sample(name, kind, help, labels, value);
}

/// Deterministic policy tests: scripted events in, actions out — no
/// threads, no sleeps, no clocks but the `now` each step is handed.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use mvr_obs::{RecorderConfig, RecorderHub, DISPATCHER_RANK};

    const MS: Duration = Duration::from_millis(1);
    const CS: NodeId = NodeId::CheckpointServer(0);

    fn cn(r: u32) -> NodeId {
        NodeId::Computing(Rank(r))
    }

    /// The default rules: V2, one unreplicated EL, auto-restart with no
    /// delay, a budget of 256.
    fn policy(world: u32) -> ClusterConfig {
        ClusterConfig {
            world,
            ..Default::default()
        }
    }

    /// A supervisor whose recorder can be read back through the hub.
    fn supervisor(
        mut policy: ClusterConfig,
        kills: &[(NodeId, Duration)],
    ) -> (Supervisor, Arc<RecorderHub>) {
        let hub = RecorderHub::new(RecorderConfig::enabled());
        let recorder = hub.recorder(DISPATCHER_RANK);
        policy.kills = kills.to_vec();
        let topology = policy.topology().expect("valid test topology");
        (Supervisor::new(&policy, topology, recorder, None), hub)
    }

    fn down(node: NodeId, incarnation: u64) -> Event {
        let cause = "test".into();
        Event::Down {
            node,
            incarnation,
            cause,
        }
    }

    fn ready(node: NodeId, incarnation: u64) -> Event {
        Event::Ready { node, incarnation }
    }

    fn finished(rank: u32) -> Event {
        Event::Result {
            rank: Rank(rank),
            payload: Payload::from_vec(vec![rank as u8]),
        }
    }

    /// The `(node, incarnation)` of every `Spawn` in `actions`; panics on
    /// anything else but kills.
    fn spawns(actions: &[Action]) -> Vec<(NodeId, u64)> {
        let spawn = |a: &Action| match a {
            Action::Spawn {
                node,
                incarnation,
                restart: true,
            } => Some((*node, *incarnation)),
            Action::Kill { .. } => None,
            other => panic!("unexpected action {other:?}"),
        };
        actions.iter().filter_map(spawn).collect()
    }

    fn kills(actions: &[Action]) -> Vec<NodeId> {
        let kill = |a: &Action| match a {
            Action::Kill { node } => Some(*node),
            _ => None,
        };
        actions.iter().filter_map(kill).collect()
    }

    fn respawns_recorded(hub: &RecorderHub) -> usize {
        let scheduled =
            |r: &mvr_obs::FlightRecord| matches!(r.event, ProtoEvent::RespawnScheduled { .. });
        hub.timeline().iter().filter(|r| scheduled(r)).count()
    }

    #[test]
    fn budget_exhaustion_fails_the_run() {
        let budget = ClusterConfig {
            max_rank_restarts: 2,
            ..policy(2)
        };
        let (mut sup, _hub) = supervisor(budget, &[]);
        assert_eq!(spawns(&sup.step(MS, down(cn(0), 0))), [(cn(0), 1)]);
        assert_eq!(spawns(&sup.step(2 * MS, down(cn(0), 1))), [(cn(0), 2)]);
        match sup.step(3 * MS, down(cn(0), 2)).as_slice() {
            [Action::Fail(ClusterError::RestartBudgetExhausted { rank, restarts: 2 })] => {
                assert_eq!(*rank, Rank(0))
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // The run is over: nothing further is acted on.
        assert!(sup.step(4 * MS, down(cn(1), 0)).is_empty());
    }

    #[test]
    fn backoff_doubles_per_crash_and_caps_at_64x() {
        let delay = 10 * MS;
        let slow = ClusterConfig {
            restart_delay: delay,
            ..policy(1)
        };
        let (mut sup, _hub) = supervisor(slow, &[]);
        let mut now = Duration::ZERO;
        for attempt in 0..9u32 {
            let backoff = delay * (1 << attempt.min(6));
            assert!(sup.step(now, down(cn(0), attempt as u64)).is_empty());
            assert_eq!(sup.next_wake(now), Some(now + backoff), "attempt {attempt}");
            assert!(sup.step(now + backoff - MS, Event::Tick).is_empty());
            now += backoff;
            let respawn = sup.step(now, Event::Tick);
            assert_eq!(spawns(&respawn), [(cn(0), attempt as u64 + 1)]);
        }
        assert_eq!(sup.restarts, 9);
    }

    #[test]
    fn stale_incarnation_verdict_after_respawn_is_ignored() {
        // The historical 6-respawn storm: a reincarnation's hello made
        // the transport synthesize a disconnect about the OLD
        // incarnation, and each such verdict killed the replacement.
        let (mut sup, hub) = supervisor(policy(2), &[]);
        assert_eq!(spawns(&sup.step(MS, down(cn(1), 0))), [(cn(1), 1)]);
        for i in 0..6 {
            assert!(sup.step((2 + i) * MS, down(cn(1), 0)).is_empty());
        }
        assert_eq!((sup.restarts, respawns_recorded(&hub)), (1, 1));
        // A verdict about the live incarnation still counts.
        assert_eq!(spawns(&sup.step(9 * MS, down(cn(1), 1))), [(cn(1), 2)]);
    }

    #[test]
    fn reaper_and_detector_reporting_one_death_yield_one_respawn() {
        let slow = ClusterConfig {
            restart_delay: 5 * MS,
            ..policy(2)
        };
        let (mut sup, hub) = supervisor(slow, &[]);
        assert!(sup.step(MS, down(cn(0), 0)).is_empty()); // the detector …
        assert!(sup.step(2 * MS, down(cn(0), 0)).is_empty()); // … and the reaper
        assert_eq!(spawns(&sup.step(6 * MS, Event::Tick)), [(cn(0), 1)]);
        assert!(sup.step(20 * MS, Event::Tick).is_empty());
        assert_eq!((sup.restarts, sup.detections.len()), (1, 1));
        assert_eq!(respawns_recorded(&hub), 1);
    }

    #[test]
    fn p4_crash_fails_fast() {
        let p4 = ClusterConfig {
            protocol: RuntimeProtocol::P4,
            ..policy(2)
        };
        let (mut sup, _hub) = supervisor(p4, &[]);
        let actions = sup.step(MS, down(cn(1), 0));
        assert!(
            matches!(actions.as_slice(), [Action::Fail(ClusterError::AppFailed { rank, .. })] if *rank == Rank(1)),
            "{actions:?}"
        );
    }

    #[test]
    fn crash_without_auto_restart_is_rank_lost() {
        let manual = ClusterConfig {
            auto_restart: false,
            ..policy(2)
        };
        let (mut sup, _hub) = supervisor(manual, &[]);
        let actions = sup.step(MS, down(cn(0), 0));
        assert!(
            matches!(actions.as_slice(), [Action::Fail(ClusterError::RankLost { rank })] if *rank == Rank(0)),
            "{actions:?}"
        );
    }

    #[test]
    fn kills_are_held_until_ready_and_fire_in_plan_order() {
        let plan = [(cn(1), 5 * MS), (cn(0), 6 * MS), (cn(1), 7 * MS)];
        // Nobody ready: every kill comes due and is held.
        let (mut sup, _hub) = supervisor(policy(2), &plan);
        assert!(sup.step(10 * MS, Event::Tick).is_empty());
        assert_eq!(sup.next_wake(10 * MS), None, "only an event releases them");
        // Each victim's kill fires the moment it reports ready …
        assert_eq!(kills(&sup.step(11 * MS, ready(cn(0), 0))), [cn(0)]);
        assert_eq!(kills(&sup.step(12 * MS, ready(cn(1), 0))), [cn(1)]);
        // … one planned kill per death: the second waits for cn1's
        // reincarnation, and a stale ready does not release it.
        assert_eq!(spawns(&sup.step(13 * MS, down(cn(1), 0))), [(cn(1), 1)]);
        assert!(sup.step(14 * MS, ready(cn(1), 0)).is_empty());
        assert_eq!(kills(&sup.step(15 * MS, ready(cn(1), 1))), [cn(1)]);

        // Everyone ready up front (the in-process fabric): kills fire on
        // the clock, in plan order.
        let (mut sup, _hub) = supervisor(policy(2), &plan);
        for node in [cn(0), cn(1)] {
            sup.step(Duration::ZERO, ready(node, 0));
        }
        assert!(sup.step(4 * MS, Event::Tick).is_empty());
        assert_eq!(sup.next_wake(4 * MS), Some(5 * MS));
        assert_eq!(kills(&sup.step(10 * MS, Event::Tick)), [cn(1), cn(0)]);
    }

    #[test]
    fn finished_rank_is_revived_without_charging_the_budget() {
        let tight = ClusterConfig {
            max_rank_restarts: 1,
            ..policy(2)
        };
        let (mut sup, _hub) = supervisor(tight.clone(), &[]);
        assert!(sup.step(MS, finished(0)).is_empty());
        // Killed after its result: revived, its sender log is needed.
        assert_eq!(spawns(&sup.step(2 * MS, down(cn(0), 0))), [(cn(0), 1)]);
        // Budget spent: the revivals stop, but the run does not fail …
        assert!(sup.step(3 * MS, down(cn(0), 1)).is_empty());
        // … whereas an unfinished rank past its budget does fail it.
        assert_eq!(spawns(&sup.step(4 * MS, down(cn(1), 0))), [(cn(1), 1)]);
        let actions = sup.step(5 * MS, down(cn(1), 1));
        assert!(
            matches!(
                actions.as_slice(),
                [Action::Fail(ClusterError::RestartBudgetExhausted { .. })]
            ),
            "{actions:?}"
        );

        // Only V2 keeps a sender log worth reviving for.
        let v1 = ClusterConfig {
            protocol: RuntimeProtocol::V1,
            ..tight
        };
        let (mut sup, _hub) = supervisor(v1, &[]);
        sup.step(MS, finished(0));
        assert!(sup.step(2 * MS, down(cn(0), 0)).is_empty());
    }

    #[test]
    fn unreplicated_event_logger_stays_dead_replicas_and_cs_revive() {
        let el = NodeId::EventLogger;
        let (mut sup, _hub) = supervisor(policy(2), &[]);
        assert!(sup.step(MS, down(el(0), 0)).is_empty(), "R = 1: §4.5");
        assert_eq!(spawns(&sup.step(2 * MS, down(CS, 0))), [(CS, 1)]);

        let replicated = ClusterConfig {
            el_replicas: 3,
            ..policy(2)
        };
        let (mut sup, _hub) = supervisor(replicated, &[]);
        assert_eq!(spawns(&sup.step(MS, down(el(1), 0))), [(el(1), 1)]);
        assert_eq!((sup.restarts, sup.service_restarts), (0, 1));
    }

    #[test]
    fn run_ends_with_every_result_or_at_the_deadline() {
        let (mut sup, _hub) = supervisor(policy(2), &[]);
        sup.deadline = Some(50 * MS);
        assert!(sup.step(MS, finished(1)).is_empty());
        assert!(matches!(
            sup.step(2 * MS, finished(0)).as_slice(),
            [Action::Done]
        ));
        let results = sup.take_results();
        assert_eq!(
            results[1].as_ref().map(|p| p.as_slice().to_vec()),
            Some(vec![1])
        );

        let (mut sup, _hub) = supervisor(policy(2), &[]);
        sup.deadline = Some(50 * MS);
        sup.step(MS, finished(1));
        assert!(sup.step(49 * MS, Event::Tick).is_empty());
        match sup.step(50 * MS, Event::Tick).as_slice() {
            [Action::Fail(ClusterError::Timeout(status))] => {
                assert!(status.contains("rank 0: finished=false"), "{status}");
                assert!(status.contains("rank 1: finished=true"), "{status}");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn flattened_plan_is_a_pure_function_of_the_options() {
        let chaos = ChaosConfig {
            seed: 7,
            kills: 5,
            el_kill_pct: 50,
            cs_kill_pct: 30,
            ..Default::default()
        };
        let timed = [(cn(1), 10 * MS)];
        let topology = Topology::new(4, 1, 2).expect("valid");
        let a = flatten_plan(&timed, &chaos.plan(&topology));
        assert_eq!(a, flatten_plan(&timed, &chaos.plan(&topology)));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        let ranks = a
            .iter()
            .filter(|k| matches!(k.target, NodeId::Computing(_)));
        assert_eq!(ranks.count(), 5 + 1, "every storm kill plus the timed one");
        // A kill aimed at a node the deployment lacks is dropped.
        let (sup, _hub) = supervisor(policy(2), &[(cn(9), MS), (cn(1), MS)]);
        assert_eq!(sup.plan.len(), 1);
    }
}
