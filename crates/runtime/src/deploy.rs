//! The deployment description — §4.7's program file as one value.
//!
//! "It describes the run, with for each machine its role inside the
//! system and the list of options for that role": [`ClusterConfig`] is
//! that description, and both launchers — [`crate::Cluster`] (threads on
//! the in-process fabric) and [`crate::proc::run_proc`] (OS processes
//! over TCP) — run from it. This module is the only place that knows
//! what nodes a deployment has: [`Topology`] enumerates them and owns
//! the event-logger addressing rule, and [`ClusterConfig::validate`]
//! is where a backend refuses what it cannot honour.

use crate::chaos::ChaosConfig;
use crate::node::RuntimeProtocol;
use crate::services::SchedulerConfig;
use mvr_core::{ElAddr, NodeId, Rank};
use mvr_eventlog::{quorum_of, ShardMap};
use mvr_net::TurbulenceConfig;
use mvr_obs::RecorderConfig;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

/// A deployment description no backend (or not the chosen one) can
/// launch; the message names the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The two launchers a [`ClusterConfig`] can be handed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// [`crate::Cluster`]: every node a thread group on one fabric.
    InProcess,
    /// [`crate::proc::run_proc`]: every node an OS process over TCP.
    Socket,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::InProcess => "inproc",
            Backend::Socket => "socket",
        })
    }
}

/// Which nodes a deployment has, and how event-logger replicas are
/// addressed: `world` computing nodes, `el_shards × el_replicas`
/// event-logger replicas with flat index `shard × el_replicas + replica`
/// (ranks are partitioned over shards by the consistent-hash
/// [`ShardMap`]; every replica of a shard holds the whole shard ledger)
/// and one checkpoint server. All three counts are at least 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    world: u32,
    el_shards: u32,
    el_replicas: u32,
}

impl Topology {
    /// Check the three counts. Each must be at least 1 (and the replica
    /// total must fit the flat index).
    pub fn new(world: u32, el_shards: u32, el_replicas: u32) -> Result<Topology, ConfigError> {
        let counts = [
            ("world", world),
            ("el_shards", el_shards),
            ("el_replicas", el_replicas),
        ];
        if let Some((field, _)) = counts.iter().find(|(_, n)| *n == 0) {
            return Err(ConfigError(format!("{field} must be at least 1")));
        }
        if el_shards.checked_mul(el_replicas).is_none() {
            return Err(ConfigError(
                "el_shards × el_replicas overflows the flat event-logger index".into(),
            ));
        }
        Ok(Topology {
            world,
            el_shards,
            el_replicas,
        })
    }

    /// Number of computing nodes.
    pub fn world(&self) -> u32 {
        self.world
    }

    /// Number of event-logger shards.
    pub fn el_shards(&self) -> u32 {
        self.el_shards
    }

    /// Replicas per event-logger shard.
    pub fn el_replicas(&self) -> u32 {
        self.el_replicas
    }

    /// Event-logger replicas in total (the flat index range).
    pub fn el_total(&self) -> u32 {
        self.el_shards * self.el_replicas
    }

    /// Replica acks that make a logged event durable (majority).
    pub fn quorum(&self) -> u32 {
        quorum_of(self.el_replicas)
    }

    /// Every rank, in order.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.world).map(Rank)
    }

    /// Every supervised node: the computing nodes, then the event-logger
    /// replicas by flat index, then the checkpoint server.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        let ranks = self.ranks().map(NodeId::Computing);
        let loggers = (0..self.el_total()).map(NodeId::EventLogger);
        ranks.chain(loggers).chain([NodeId::CheckpointServer(0)])
    }

    /// The node hosting replica `addr`.
    pub fn el_node(&self, addr: ElAddr) -> NodeId {
        NodeId::EventLogger(addr.flat(self.el_replicas))
    }

    /// The replica address behind flat index `flat`.
    pub fn el_addr(&self, flat: u32) -> ElAddr {
        ElAddr::from_flat(flat, self.el_replicas)
    }

    /// The shard holding `rank`'s reception events.
    pub fn shard_of(&self, rank: Rank) -> u32 {
        if self.el_shards == 1 {
            return 0;
        }
        ShardMap::new(self.el_shards).shard_for(rank)
    }

    /// Every replica of `shard`, by replica index.
    pub fn replicas_of(&self, shard: u32) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.el_replicas).map(move |replica| self.el_node(ElAddr { shard, replica }))
    }

    /// The other replicas of `addr`'s shard.
    pub fn siblings(&self, addr: ElAddr) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.el_node(addr);
        self.replicas_of(addr.shard).filter(move |n| *n != me)
    }
}

/// What only the socket backend's re-executed processes need. The
/// in-process launcher refuses the detector, rotation and injection
/// settings (see [`ClusterConfig::validate`]); `app_spec` and `exe`
/// describe the child command line and `binds` first-launch ports, none
/// of which a thread has.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcLaunch {
    /// Application spec handed to rank children (`"ring 500"`).
    pub app_spec: String,
    /// Binary to re-exec as children (usually `current_exe`).
    pub exe: PathBuf,
    /// Fail-stop detector read-timeout override for every endpoint.
    pub fail_after: Option<Duration>,
    /// Declared first-launch bind addresses from a program file's
    /// `host:port` entries ([`crate::progfile::ProgramFile::bind_map`]).
    /// Reincarnations always bind a fresh ephemeral port.
    pub binds: Vec<(NodeId, String)>,
    /// Write the health endpoint's bound address (`host:port`) to this
    /// file once listening — how tooling discovers an ephemeral port.
    pub health_addr_file: Option<PathBuf>,
    /// Rotate children's durable JSONL streams after this many records
    /// per segment (0 = never). Every segment keeps the `.jsonl`
    /// extension, so the merge picks it up like any other input.
    pub rotate_records: u64,
    /// Rotate children's durable JSONL streams once a segment exceeds
    /// this many bytes (0 = never).
    pub rotate_bytes: u64,
    /// Per-rank recorder-epoch shifts in nanoseconds — injected clock
    /// skew for exercising the skew-corrected merge. A positive shift
    /// moves the rank's epoch later, so its timestamps read early.
    pub epoch_skew: Vec<(Rank, i64)>,
    /// Per-rank injected clock-drift rates in parts-per-billion — the
    /// rank's recorder clock runs fast (positive) or slow (negative).
    pub epoch_drift: Vec<(Rank, i64)>,
    /// Make this rank record a deliberate pessimism-gate violation at
    /// startup (live-monitor end-to-end probe).
    pub inject_violation: Option<Rank>,
}

impl Default for ProcLaunch {
    fn default() -> Self {
        ProcLaunch {
            app_spec: String::new(),
            exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("mpirun")),
            fail_after: None,
            binds: Vec::new(),
            health_addr_file: None,
            rotate_records: 0,
            rotate_bytes: 0,
            epoch_skew: Vec::new(),
            epoch_drift: Vec::new(),
            inject_violation: None,
        }
    }
}

/// Deployment parameters (the "program file" of §4.7): what both
/// launchers run from.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of computing nodes / MPI processes.
    pub world: u32,
    /// Protocol stack (V2 default; V1/P4 are the paper's baselines and
    /// run in process only).
    pub protocol: RuntimeProtocol,
    /// Number of event-logger shards (ranks are partitioned across them
    /// by the consistent-hash [`mvr_eventlog::ShardMap`]).
    pub el_shards: u32,
    /// Replicas per event-logger shard. Above 1, each shard's ledger is
    /// held R-way, daemons fan writes out to every replica, and the
    /// pessimism gate opens on a majority quorum of acks — so a single
    /// replica crash neither stalls the gate nor ends the run (the
    /// supervisor revives the replica and it catches up from a peer).
    pub el_replicas: u32,
    /// Enable the checkpoint subsystem with this scheduler configuration.
    pub checkpointing: Option<SchedulerConfig>,
    /// Automatically reincarnate killed nodes.
    pub auto_restart: bool,
    /// Detection + respawn latency before a reincarnation. Applied as a
    /// *scheduled* deadline, not a blocking sleep, and doubled per repeat
    /// crash of the same rank (capped at 64×).
    pub restart_delay: Duration,
    /// Maximum reincarnations of a single rank before the run fails with
    /// [`crate::ClusterError::RestartBudgetExhausted`].
    pub max_rank_restarts: u32,
    /// Timed fail-stop kills, as time since launch, of ranks
    /// (`mpirun --kill r@ms`), event-logger replicas by flat index
    /// (`--el-kill`) and the checkpoint server (`--cs-kill`): fabric
    /// kills in process, real `SIGKILL`s over sockets. Executed, like
    /// the chaos storm, by the supervisor's fault plan: a kill waits for
    /// its victim's current incarnation to be ready.
    pub kills: Vec<(NodeId, Duration)>,
    /// Seeded randomized crash storm driven against the deployment.
    pub chaos: Option<ChaosConfig>,
    /// Seeded fabric-level turbulence (per-link delays, crash-on-Nth
    /// send/receive triggers). In process only: there is no shared
    /// fabric to install it on across processes.
    pub turbulence: Option<TurbulenceConfig>,
    /// Flight-recorder settings for every engine and the dispatcher.
    /// Disabled by default — the fast path is one relaxed atomic load
    /// per would-be record. In process only:
    /// over sockets recording is exactly "`obs_dir` is set" and the
    /// per-process recorders take no tuning.
    pub obs: RecorderConfig,
    /// Directory for the run's flight-recorder output; setting it turns
    /// recording on. A failing run (timeout, app failure, lost rank,
    /// exhausted restart budget, invariant violation) leaves its merged
    /// timeline there as `crash.jsonl`, with the triage note on stderr.
    /// Over sockets every process also streams its records there as they
    /// happen (one `write(2)` each, so a `SIGKILL` loses nothing) and a
    /// completed run merges them into `merged.jsonl`; in process the
    /// records of a completed run stay in memory for the caller
    /// ([`crate::Cluster::recorder_hub`]).
    pub obs_dir: Option<PathBuf>,
    /// Run the online invariant monitor: every flight record is checked
    /// live against the pessimism-gate, watermark-monotonicity and
    /// exactly-once invariants, and the run halts with
    /// [`crate::ClusterError::InvariantViolated`] on the first
    /// violation. In process it implies flight recording (the monitor
    /// consumes the records); over sockets it watches the children's
    /// telemetry, which flows only when `obs_dir` is set.
    pub monitor: bool,
    /// Serve a live Prometheus-style text health page on this address
    /// (e.g. `"127.0.0.1:0"`) for the duration of the run: protocol
    /// latency histograms, EL counters, restart-budget state and
    /// per-rank liveness/incarnations.
    pub health_addr: Option<String>,
    /// Fast-path capacity (messages) of each SPSC fabric ring, applied
    /// to every mailbox registered after launch. `None` keeps the fabric
    /// default (256). Tiny capacities force the overflow spill lane —
    /// used by the backpressure chaos tests. In process only.
    pub ring_capacity: Option<usize>,
    /// Wall-clock budget of the whole run. [`crate::proc::run_proc`]
    /// runs under it; [`crate::Cluster::wait_report`] takes its budget
    /// as an argument (hand it this field).
    pub timeout: Duration,
    /// What only re-executed processes need.
    pub proc: ProcLaunch,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            world: 4,
            protocol: RuntimeProtocol::V2,
            el_shards: 1,
            el_replicas: 1,
            checkpointing: None,
            auto_restart: true,
            restart_delay: Duration::ZERO,
            max_rank_restarts: 256,
            kills: Vec::new(),
            chaos: None,
            turbulence: None,
            obs: RecorderConfig::default(),
            obs_dir: None,
            monitor: false,
            health_addr: None,
            ring_capacity: None,
            timeout: Duration::from_secs(120),
            proc: ProcLaunch::default(),
        }
    }
}

impl ClusterConfig {
    /// The default deployment of `world` ranks whose rank processes run
    /// `app_spec`.
    pub fn new(world: u32, app_spec: impl Into<String>) -> ClusterConfig {
        ClusterConfig {
            world,
            proc: ProcLaunch {
                app_spec: app_spec.into(),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The deployment's node layout, or why it has none.
    pub fn topology(&self) -> Result<Topology, ConfigError> {
        Topology::new(self.world, self.el_shards, self.el_replicas)
    }

    /// Check the description against `backend`: the topology must be
    /// valid, and every field the backend cannot honour must be at its
    /// default — a setting is acted on or refused, never dropped.
    pub fn validate(&self, backend: Backend) -> Result<Topology, ConfigError> {
        let topology = self.topology()?;
        let p = &self.proc;
        let refused: &[(&str, bool)] = match backend {
            Backend::InProcess => &[
                ("proc.fail_after", p.fail_after.is_some()),
                ("proc.rotate_records", p.rotate_records != 0),
                ("proc.rotate_bytes", p.rotate_bytes != 0),
                ("proc.epoch_skew", !p.epoch_skew.is_empty()),
                ("proc.epoch_drift", !p.epoch_drift.is_empty()),
                ("proc.inject_violation", p.inject_violation.is_some()),
            ],
            Backend::Socket => &[
                ("protocol (v2 only)", self.protocol != RuntimeProtocol::V2),
                ("turbulence", self.turbulence.is_some()),
                ("ring_capacity", self.ring_capacity.is_some()),
                ("obs (set obs_dir)", self.obs != RecorderConfig::default()),
            ],
        };
        match refused.iter().find(|(_, set)| *set) {
            Some((field, _)) => Err(ConfigError(format!(
                "the {backend} backend cannot honour {field}"
            ))),
            None => Ok(topology),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::gateway::{host_of, Gateway, GatewayRole};
    use crate::supervisor::Supervisor;
    use mvr_net::{Fabric, MemNet, Transport};
    use mvr_obs::{RecorderHub, DISPATCHER_RANK};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn zero_counts_are_rejected_naming_the_field() {
        for (w, s, r, field) in [
            (0, 1, 1, "world"),
            (2, 0, 1, "el_shards"),
            (2, 1, 0, "el_replicas"),
        ] {
            let err = Topology::new(w, s, r).expect_err("zero count");
            assert!(err.0.contains(field), "{err} does not name {field}");
        }
        assert!(
            Topology::new(1, u32::MAX, 2).is_err(),
            "flat index overflow"
        );
    }

    #[test]
    fn event_logger_addressing_round_trips() {
        for (shards, replicas) in [(1, 1), (1, 3), (3, 1), (2, 3)] {
            let t = Topology::new(4, shards, replicas).expect("valid");
            assert_eq!(t.el_total(), shards * replicas);
            let mut seen = Vec::new();
            for shard in 0..shards {
                let of_shard: Vec<_> = t.replicas_of(shard).collect();
                assert_eq!(of_shard.len() as u32, replicas);
                for (replica, node) in of_shard.iter().enumerate() {
                    let addr = ElAddr {
                        shard,
                        replica: replica as u32,
                    };
                    let NodeId::EventLogger(flat) = *node else {
                        panic!("{node} is not an event logger");
                    };
                    assert_eq!((t.el_node(addr), t.el_addr(flat)), (*node, addr));
                    let mut family: Vec<_> = t.siblings(addr).chain([*node]).collect();
                    family.sort();
                    assert_eq!(family, of_shard);
                }
                seen.extend(of_shard);
            }
            let loggers: Vec<_> = (0..t.el_total()).map(NodeId::EventLogger).collect();
            assert_eq!(seen, loggers, "shards tile the flat range in order");
            for rank in t.ranks() {
                assert!(t.shard_of(rank) < shards);
            }
            assert_eq!(t.quorum(), replicas / 2 + 1);
        }
    }

    /// The three consumers of the node enumeration agree: what
    /// [`Topology::nodes`] lists is what the supervisor supervises and
    /// what every process's gateway can reach.
    #[test]
    fn topology_supervisor_and_gateways_agree_on_the_node_set() {
        let grid = [1u32, 4]
            .into_iter()
            .flat_map(|w| (1..=3).flat_map(move |s| (1..=3).map(move |r| (w, s, r))));
        for (world, el_shards, el_replicas) in grid {
            let label = format!("world {world}, el {el_shards}x{el_replicas}");
            let cfg = ClusterConfig {
                world,
                el_shards,
                el_replicas,
                ..Default::default()
            };
            let topo = cfg.topology().expect("valid");
            let nodes: BTreeSet<NodeId> = topo.nodes().collect();
            assert_eq!(nodes.len() as u32, world + el_shards * el_replicas + 1);
            let ranks: BTreeSet<NodeId> = topo.ranks().map(NodeId::Computing).collect();

            let hub = RecorderHub::new(RecorderConfig::default());
            let sup = Supervisor::new(&cfg, topo, hub.recorder(DISPATCHER_RANK), None);
            let slots: BTreeSet<NodeId> = sup.nodes().map(|(n, ..)| n).collect();
            assert_eq!(slots, nodes, "{label}: supervisor slots");

            // Every node a fabric could hold, and then some: what a
            // gateway registered is what answers `is_alive`.
            let beyond = (0..world + 2)
                .map(|r| NodeId::Computing(Rank(r)))
                .chain((0..topo.el_total() + 2).map(NodeId::EventLogger))
                .chain((0..2).map(NodeId::CheckpointServer))
                .chain([NodeId::CheckpointScheduler, NodeId::Dispatcher]);
            let beyond: Vec<NodeId> = beyond.collect();
            let net = MemNet::new();
            let reachable = |me: NodeId, role: GatewayRole| -> BTreeSet<NodeId> {
                let fabric = Fabric::new();
                let transport: Arc<dyn Transport> = Arc::new(net.attach(me));
                let _gateway = Gateway::start(transport, &fabric, role, topo);
                let registered = beyond.iter().filter(|n| fabric.is_alive(**n));
                registered.map(|n| host_of(*n)).collect()
            };
            for &node in &nodes {
                match node {
                    // A rank reaches every other node and the supervisor.
                    NodeId::Computing(r) => {
                        let mut all = reachable(node, GatewayRole::Rank(r));
                        assert!(all.remove(&NodeId::Dispatcher), "{label}: {node}");
                        assert!(all.insert(node), "{label}: {node} is local, not remote");
                        assert_eq!(all, nodes, "{label}: {node}");
                    }
                    // A service answers daemons and nobody else.
                    NodeId::EventLogger(f) => {
                        let daemons = reachable(node, GatewayRole::EventLogger(f));
                        assert_eq!(daemons, ranks, "{label}: {node}");
                    }
                    _ => {
                        let daemons = reachable(node, GatewayRole::CheckpointServer);
                        assert_eq!(daemons, ranks, "{label}: {node}");
                    }
                }
            }
            let daemons = reachable(NodeId::Dispatcher, GatewayRole::Supervisor);
            assert_eq!(daemons, ranks, "{label}: supervisor");
        }
    }

    #[test]
    fn each_backend_refuses_what_it_cannot_honour() {
        let ok = ClusterConfig::new(2, "ring 5");
        assert!(ok.validate(Backend::InProcess).is_ok());
        assert!(ok.validate(Backend::Socket).is_ok());

        type Set = fn(&mut ClusterConfig);
        let refusals: [(Backend, Set, &str); 6] = [
            (
                Backend::Socket,
                |c| c.protocol = RuntimeProtocol::P4,
                "protocol",
            ),
            (
                Backend::Socket,
                |c| c.turbulence = Some(TurbulenceConfig::delays(1, 5)),
                "turbulence",
            ),
            (
                Backend::Socket,
                |c| c.ring_capacity = Some(2),
                "ring_capacity",
            ),
            (
                Backend::Socket,
                |c| c.obs = RecorderConfig::enabled(),
                "obs",
            ),
            (
                Backend::InProcess,
                |c| c.proc.fail_after = Some(Duration::from_millis(50)),
                "fail_after",
            ),
            (
                Backend::InProcess,
                |c| c.proc.epoch_drift.push((Rank(0), 10)),
                "epoch_drift",
            ),
        ];
        for (backend, set, field) in refusals {
            let mut cfg = ok.clone();
            set(&mut cfg);
            let err = cfg.validate(backend).expect_err(field);
            assert!(
                err.0.contains(field) && err.0.contains(&backend.to_string()),
                "{err}"
            );
        }
        let mut none = ok.clone();
        none.el_replicas = 0;
        for backend in [Backend::InProcess, Backend::Socket] {
            assert!(none
                .validate(backend)
                .expect_err("zero")
                .0
                .contains("el_replicas"));
        }
    }
}
