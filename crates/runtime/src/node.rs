//! A computing node: one shared node core — the [`V2Engine`] with its
//! routing, checkpoint-arming and finish state behind one lock — driven
//! by two threads. The communication daemon thread drains the node
//! mailbox (peer data, event-logger acks, checkpoint traffic, `RESTART`
//! handshakes); the MPI-process thread runs the user application and
//! makes its `send` / `recv` / `probe` / checkpoint / finish calls on the
//! core directly, under the daemon's [`Identity`]. The process↔daemon
//! mailbox pair carries `Init` once and, after that, only the wake-up of
//! a process parked on a receive the engine could not answer.
//!
//! §4.4 puts the daemon between the MPI process and the wire ("the MPI
//! process does not connect directly to all the other computing nodes.
//! This is the job of a communication daemon running on the same
//! machine"); here that separation is the lock, not a hop. §4.6.1's
//! checkpoint handshake keeps its shape: the daemon side orders, the
//! process supplies its image at a quiescent point — between two MPI
//! calls, under the lock (our cooperative substitution for Condor).

use crate::channel::DaemonChannel;
use crate::deploy::Topology;
use crate::messages::{DaemonMsg, DispatcherMsg, ProcReply, ProcRequest};
use mvr_ckpt::CkptPacket;
use mvr_core::engine::{Input, Output};
use mvr_core::{
    CkptReply, CkptRequest, ElReply, ElRequest, NodeId, NodeImage, Payload, Rank, ReceptionEvent,
    SchedMsg, V2Engine,
};
use mvr_eventlog::ElPacket;
use mvr_mpi::{Mpi, MpiError, MpiResult};
use mvr_net::{Fabric, Identity, Mailbox, RecvError, SendError};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a restarting daemon waits for the checkpoint server's image
/// reply before degrading to a from-scratch restart. Covers the window
/// where the CS died *after* accepting the request (its relaunch starts
/// with an empty store and would never answer the stale query).
const CS_FETCH_TIMEOUT: Duration = Duration::from_millis(250);

/// Upper bound on one batched drain of the daemon mailbox. Bounds the
/// latency of the post-drain event flush during a sustained flood; an
/// oversize backlog simply takes another (already-woken) pass.
const DAEMON_DRAIN_BATCH: usize = 128;

/// Send to a reliable service, retrying transient `Disconnected` errors
/// with exponential backoff. A dead service being relaunched by the
/// dispatcher (§4.7) looks, briefly, exactly like a broken deployment;
/// the retries (≈50 ms total) bridge the relaunch gap. `SenderDead`
/// (we ourselves were killed) is never retried.
fn send_service_retrying<M: Send + 'static>(
    identity: &Identity,
    to: NodeId,
    msg: M,
    attempts: u32,
) -> Result<(), SendError> {
    let mut delay = Duration::from_micros(250);
    let mut last = SendError::Disconnected(to);
    // `send_reclaim` hands the message back on failure, so retries move
    // the same value instead of cloning per attempt (a checkpoint Put
    // carries the whole image blob — cloning it three times was real
    // work even with refcounted segments).
    let mut msg = msg;
    for i in 0..attempts {
        match identity.send_reclaim(to, msg) {
            Ok(()) => return Ok(()),
            Err((SendError::SenderDead, _)) => return Err(SendError::SenderDead),
            Err((e @ SendError::Disconnected(_), m)) => {
                last = e;
                msg = m;
                if i + 1 < attempts {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(20));
                }
            }
        }
    }
    Err(last)
}

/// The application interface: a deterministic MPI program with
/// serializable state.
///
/// Contract (the piecewise-determinism assumption of §4.1): given the
/// same sequence of deliveries and probe outcomes, `run` must perform the
/// same MPI calls with the same arguments. Call
/// [`Mpi::checkpoint_site`] at iteration boundaries so daemon-ordered
/// checkpoints can be taken; on restart `run` is re-invoked with the
/// restored state.
pub trait MpiApp: Send + Sync + 'static {
    /// Execute the program; return the final result bytes.
    fn run(&self, mpi: &mut Mpi<DaemonChannel>, restored: Option<Payload>) -> MpiResult<Payload>;
}

impl<F> MpiApp for F
where
    F: Fn(&mut Mpi<DaemonChannel>, Option<Payload>) -> MpiResult<Payload> + Send + Sync + 'static,
{
    fn run(&self, mpi: &mut Mpi<DaemonChannel>, restored: Option<Payload>) -> MpiResult<Payload> {
        self(mpi, restored)
    }
}

// Lets launchers resolve an app once (e.g. from a CLI spec) and hand
// the same `Arc` to either the in-process or the multi-process backend.
impl MpiApp for Arc<dyn MpiApp> {
    fn run(&self, mpi: &mut Mpi<DaemonChannel>, restored: Option<Payload>) -> MpiResult<Payload> {
        (**self).run(mpi, restored)
    }
}

/// How a node incarnation ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The application completed with this result.
    Finished(Payload),
    /// The incarnation was crashed (fail-stop); the dispatcher restarts it.
    Killed,
    /// The application failed with a real error.
    Failed(String),
}

/// Exit report from a node incarnation to the dispatcher.
#[derive(Clone, Debug)]
pub struct NodeExit {
    /// Reporting rank.
    pub rank: Rank,
    /// What happened.
    pub outcome: Outcome,
}

/// Which protocol stack the deployment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeProtocol {
    /// MPICH-V2 (the paper's contribution): full fault tolerance.
    V2,
    /// MPICH-V1 baseline: Channel Memory logging; restarts replay from
    /// scratch via the CM (no checkpoint images in this hosting).
    V1,
    /// MPICH-P4 baseline: no fault tolerance; crashes are fatal.
    P4,
}

/// Static node parameters.
#[derive(Clone)]
pub struct NodeConfig {
    /// This node's rank.
    pub rank: Rank,
    /// The deployment's node layout: world size, and (V2) which
    /// event-logger replicas hold this rank's events and how many of
    /// their acks open the pessimism gate.
    pub topology: Topology,
    /// Protocol stack.
    pub protocol: RuntimeProtocol,
    /// Whether this is a restart (fetch image, download events, recover).
    pub restart: bool,
    /// Flight recorder this incarnation writes protocol events into.
    /// The dispatcher mints one per incarnation from the deployment's
    /// [`mvr_obs::RecorderHub`] so dumps merge across restarts.
    pub recorder: mvr_obs::Recorder,
}

/// The fabric registrations of one node incarnation, created *before* the
/// threads start so peers never race a half-registered node.
pub struct NodeSlots {
    daemon_mb: Mailbox<DaemonMsg>,
    daemon_id: Identity,
    proc_mb: Mailbox<ProcReply>,
    proc_id: Identity,
}

/// Register a (fresh or reincarnated) node on the fabric.
pub fn register_node(fabric: &Fabric, rank: Rank) -> NodeSlots {
    let (daemon_mb, daemon_id) = fabric.register::<DaemonMsg>(NodeId::Computing(rank));
    let (proc_mb, proc_id) = fabric.register::<ProcReply>(NodeId::Process(rank));
    NodeSlots {
        daemon_mb,
        daemon_id,
        proc_mb,
        proc_id,
    }
}

/// Start the daemon and process threads of a registered node.
pub fn start_node(
    slots: NodeSlots,
    cfg: NodeConfig,
    app: Arc<dyn MpiApp>,
    exit_tx: mpsc::Sender<NodeExit>,
) -> Vec<std::thread::JoinHandle<()>> {
    let NodeSlots {
        daemon_mb,
        daemon_id,
        proc_mb,
        proc_id,
    } = slots;
    let rank = cfg.rank;
    let daemon_exit_tx = exit_tx.clone();
    let proc_obs = cfg.recorder.clone();

    let daemon = std::thread::Builder::new()
        .name(format!("daemon-{rank}"))
        .spawn(move || {
            // A kill unwinds silently (the dispatcher handles the
            // restart). A replay divergence is a bug in the application
            // or the protocol — report it so the dispatcher fails the
            // run instead of leaving the MPI process blocked forever on
            // a daemon that no longer exists.
            match cfg.protocol {
                RuntimeProtocol::V2 => {
                    // A panicking daemon (an engine invariant tripping)
                    // leaves its fabric slots registered and alive: peers
                    // keep sending into a mailbox nobody drains and the
                    // run strands until the dispatcher timeout. Catch the
                    // unwind and fail the run immediately instead.
                    let obs = cfg.recorder.clone();
                    let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        daemon_main(daemon_mb, daemon_id, cfg)
                    }));
                    if obs.trace_stderr() {
                        eprintln!("[dmn r{}] daemon exit: {:?}", rank.0, end);
                    }
                    let failure = match end {
                        Ok(Err(NodeEnd::Failed(detail))) => detail,
                        Ok(_) => return,
                        Err(panic) => record_panic(&obs, "daemon", panic.as_ref()),
                    };
                    let _ = daemon_exit_tx.send(NodeExit {
                        rank,
                        outcome: Outcome::Failed(failure),
                    });
                }
                RuntimeProtocol::V1 => {
                    let world = cfg.topology.world();
                    let cms = crate::baseline::default_cms(world);
                    crate::baseline::daemon_main_v1(daemon_mb, daemon_id, cfg.rank, world, cms)
                }
                RuntimeProtocol::P4 => crate::baseline::daemon_main_p4(
                    daemon_mb,
                    daemon_id,
                    cfg.rank,
                    cfg.topology.world(),
                ),
            }
        })
        .expect("spawn daemon thread");

    let process = std::thread::Builder::new()
        .name(format!("mpi-{rank}"))
        .spawn(move || {
            let chan = DaemonChannel::new(rank, proc_id, proc_mb);
            let run = || -> MpiResult<Payload> {
                let (mut mpi, restored) = Mpi::init(chan)?;
                let out = app.run(&mut mpi, restored)?;
                mpi.finalize()?;
                Ok(out)
            };
            // The engine runs on this thread too: an invariant tripping
            // inside an MPI call must fail the run like one tripping on
            // the daemon thread does, not strand it until the timeout.
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(Ok(p)) => Outcome::Finished(p),
                Ok(Err(MpiError::Killed)) => Outcome::Killed,
                Ok(Err(e)) => Outcome::Failed(e.to_string()),
                Err(panic) => {
                    Outcome::Failed(record_panic(&proc_obs, "MPI process", panic.as_ref()))
                }
            };
            // The dispatcher may already be gone during teardown.
            let _ = exit_tx.send(NodeExit { rank, outcome });
        })
        .expect("spawn MPI process thread");

    vec![daemon, process]
}

/// Describe a node thread's panic and leave a `Divergence` record of it
/// in the incarnation's timeline.
fn record_panic(obs: &mvr_obs::Recorder, who: &str, panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("opaque panic payload");
    let detail = format!("{who} panicked: {what}");
    obs.record(
        0,
        mvr_obs::ProtoEvent::Divergence {
            detail: detail.clone(),
        },
    );
    detail
}

/// Why a node incarnation stops being driven.
#[derive(Debug)]
pub(crate) enum NodeEnd {
    /// The incarnation was killed (mailbox closed / identity stale).
    Killed,
    /// A bug in the application or the protocol — the application
    /// violated piecewise determinism during a replay, or a channel call
    /// arrived by a path V2 does not have — reported to the dispatcher as
    /// a run failure.
    Failed(String),
}

thread_local! {
    /// Whether this thread is inside [`NodeHandle::with`]; read by debug
    /// assertions only.
    static HOLDS_NODE_LOCK: Cell<bool> = const { Cell::new(false) };
}

/// Structural invariant of the two-driver node: a thread never blocks on
/// a mailbox while it holds the node lock (the other driver would stall
/// behind it, and the wake-up it waits for could never be produced).
pub(crate) fn debug_assert_parkable() {
    debug_assert!(
        !HOLDS_NODE_LOCK.get(),
        "parking on a mailbox with the node lock held"
    );
}

/// The shared handle to a V2 node's core: what the daemon thread serves
/// the node mailbox into, and what the MPI process receives in `InitOk`
/// to make its channel calls on.
#[derive(Clone)]
pub struct NodeHandle(Arc<Mutex<NodeCore>>);

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NodeHandle")
    }
}

impl NodeHandle {
    fn new(core: NodeCore) -> Self {
        NodeHandle(Arc::new(Mutex::new(core)))
    }

    /// Run `f` on the core under the node lock — the only way to reach
    /// the core, so the lock's scope is always one closure. On success
    /// the engine's output queue must have been pumped dry: the next
    /// driver to take the lock starts from a quiet engine.
    pub(crate) fn with<T>(
        &self,
        f: impl FnOnce(&mut NodeCore) -> Result<T, NodeEnd>,
    ) -> Result<T, NodeEnd> {
        let mut core = self.0.lock();
        if cfg!(debug_assertions) {
            HOLDS_NODE_LOCK.set(true);
        }
        let out = f(&mut core);
        if cfg!(debug_assertions) {
            HOLDS_NODE_LOCK.set(false);
        }
        debug_assert!(
            out.is_err() || core.engine.outputs_pending() == 0,
            "node lock released with unpumped engine outputs"
        );
        out
    }
}

/// The node core: the protocol engine plus everything needed to act on
/// its outputs. Thread-free — both drivers (the daemon thread for the
/// node mailbox, the MPI process for its own channel calls) enter it
/// through [`NodeHandle::with`], and every fabric send it makes goes out
/// under the daemon's one [`Identity`], so per-destination FIFO, the
/// fail-stop fence and send-count triggers see a single sender.
pub(crate) struct NodeCore {
    engine: V2Engine,
    identity: Identity,
    rank: Rank,
    route: Routing,
    /// Restored process state to hand out at `Init`.
    restored_mpi: Option<Payload>,
    restored_app: Option<Payload>,
    /// The engine armed a checkpoint; the process commits its image at
    /// its next checkpoint site.
    ckpt_armed: Option<u64>,
    /// The process is parked in a receive it has not made yet: sends of
    /// its own still sit behind the pessimism gate (see `app_recv`).
    recv_deferred: bool,
    /// The process finalized (we only serve the protocol from now on).
    finalized: bool,
    /// The process is parked in `finalize` while sends of its run still
    /// sit behind the pessimism gate.
    finish_pending: bool,
}

/// Where a rank's node reaches the deployment's services — the one
/// place that rule is written: the recovery exchange and the node core
/// both read it.
struct Routing {
    /// Every replica of this rank's event-logger shard, flat-indexed by
    /// replica (§4.5: a daemon talks to exactly one shard).
    el_nodes: Vec<NodeId>,
    /// Replication factor (1 = the unreplicated single-EL deployment).
    el_replicas: u32,
    /// Replica acks that make a logged event durable.
    el_quorum: u32,
    cs_node: NodeId,
    sched_node: NodeId,
}

impl Routing {
    fn new(topology: &Topology, rank: Rank) -> Self {
        Routing {
            el_nodes: topology.replicas_of(topology.shard_of(rank)).collect(),
            el_replicas: topology.el_replicas(),
            el_quorum: topology.quorum(),
            cs_node: NodeId::CheckpointServer(0),
            sched_node: NodeId::CheckpointScheduler,
        }
    }
}

/// Union-merge several replicas' `DownloadEL` answers (each receiver-
/// clock ordered) into one deduplicated, ordered event list. Any
/// replica missed by a write quorum lacks at most the events the
/// others hold, so the union over a read quorum recovers every
/// quorum-acked event.
fn merge_downloads(mut lists: Vec<Vec<ReceptionEvent>>) -> Vec<ReceptionEvent> {
    if lists.len() <= 1 {
        return lists.pop().unwrap_or_default();
    }
    let mut merged: Vec<ReceptionEvent> = Vec::new();
    for list in lists {
        let mut out = Vec::with_capacity(merged.len() + list.len());
        let (mut i, mut j) = (0, 0);
        while i < merged.len() && j < list.len() {
            let (a, b) = (merged[i], list[j]);
            if a.receiver_clock == b.receiver_clock {
                out.push(a);
                i += 1;
                j += 1;
            } else if a.receiver_clock < b.receiver_clock {
                out.push(a);
                i += 1;
            } else {
                out.push(b);
                j += 1;
            }
        }
        out.extend_from_slice(&merged[i..]);
        out.extend_from_slice(&list[j..]);
        merged = out;
    }
    merged
}

/// The daemon thread: recover (on a restart), build the node core, then
/// serve the node mailbox into it until the incarnation ends.
fn daemon_main(
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
    cfg: NodeConfig,
) -> Result<(), NodeEnd> {
    let rank = cfg.rank;
    let topology = cfg.topology;
    let route = Routing::new(&topology, rank);
    let (el_replicas, el_quorum) = (route.el_replicas, route.el_quorum);

    // ---- startup / recovery (ROLLBACK + DownloadEL + RESTART1) ----
    let mut buffered: Vec<DaemonMsg> = Vec::new();
    let mut restored_mpi = None;
    let mut restored_app = None;

    let engine = if cfg.restart {
        // Fetch the latest image; a dead checkpoint server degrades to a
        // from-scratch restart ("may restart from scratch, at worst").
        let image: Option<NodeImage> = match send_service_retrying(
            &identity,
            route.cs_node,
            CkptPacket {
                from: rank,
                req: CkptRequest::GetLatest { rank },
            },
            4,
        ) {
            Ok(()) => {
                // Bounded wait: if the CS dies between accepting the
                // request and answering, its relaunched instance will
                // never reply to the stale query — degrade to scratch.
                let fetch_deadline = Instant::now() + CS_FETCH_TIMEOUT;
                loop {
                    let left = fetch_deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break None;
                    }
                    match mailbox.recv_timeout(left) {
                        Ok(DaemonMsg::Ckpt(CkptReply::Image {
                            clock: Some(_),
                            image,
                        })) => match NodeImage::decode_blob(&image) {
                            Ok(img) => break Some(img),
                            Err(_) => break None,
                        },
                        Ok(DaemonMsg::Ckpt(CkptReply::Image { clock: None, .. })) => break None,
                        Ok(other) => buffered.push(other),
                        Err(RecvError::Timeout) => break None,
                        Err(_) => return Err(NodeEnd::Killed),
                    }
                }
            }
            Err(SendError::SenderDead) => return Err(NodeEnd::Killed),
            Err(_) => None,
        };

        let mut engine = match image {
            Some(img) => {
                restored_mpi = Some(img.mpi_state);
                restored_app = Some(img.app_state);
                V2Engine::restore(img.engine)
            }
            None => V2Engine::fresh(rank, topology.world()),
        };
        // Attach the flight recorder before `begin_recovery` so the
        // RESTART1 / recovery-begin records land in the timeline.
        engine.set_recorder(cfg.recorder.clone());
        engine.set_el_replication(el_replicas, el_quorum);

        // DownloadEL(H_p): with replication, ask every replica of our
        // shard and union-merge a read quorum of answers — the write
        // quorum that acked each event intersects it, so the merge holds
        // every quorum-acked event even if one replica's copy is stale.
        // Up to R − Q replicas may be dead (mid-revival); unreplicated
        // (R = 1) the EL is the reliable component and a send failure
        // past the retry window means the deployment is broken.
        let after_clock = engine.clock();
        let mut asked = 0u32;
        for el_node in &route.el_nodes {
            if send_service_retrying(
                &identity,
                *el_node,
                ElPacket {
                    from: rank,
                    req: ElRequest::Download { rank, after_clock },
                },
                8,
            )
            .is_ok()
            {
                asked += 1;
            }
        }
        if asked < el_quorum {
            return Err(NodeEnd::Killed);
        }
        let mut answered: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut downloads: Vec<Vec<ReceptionEvent>> = Vec::new();
        while (answered.len() as u32) < el_quorum.min(asked) {
            match mailbox.recv() {
                Ok(DaemonMsg::El {
                    from,
                    reply: ElReply::Events(ev),
                }) => {
                    if answered.insert(from.replica) {
                        downloads.push(ev);
                    }
                }
                Ok(other) => buffered.push(other),
                Err(_) => return Err(NodeEnd::Killed),
            }
        }
        engine.begin_recovery(merge_downloads(downloads));
        engine
    } else {
        let mut engine = V2Engine::fresh(rank, topology.world());
        engine.set_recorder(cfg.recorder.clone());
        engine.set_el_replication(el_replicas, el_quorum);
        engine
    };

    let mut core = NodeCore::new(engine, identity, route);
    core.restored_mpi = restored_mpi;
    core.restored_app = restored_app;
    let node = NodeHandle::new(core);

    // Emit the RESTART1 broadcast (and any immediate outputs), then
    // what arrived during the recovery exchange.
    node.with(|core| {
        core.pump()?;
        buffered
            .into_iter()
            .try_for_each(|msg| core.on_daemon_msg(&node, msg))
    })?;

    // ---- main select loop ----
    // `recv_many` blocks for the first message, then drains the backlog
    // in one batched pass — one wakeup and one lock hold amortize across
    // a burst — and ships what the pass left pending before going back
    // to sleep (see `ship_pending`).
    let mut batch: Vec<DaemonMsg> = Vec::with_capacity(DAEMON_DRAIN_BATCH);
    loop {
        debug_assert_parkable();
        mailbox
            .recv_many(&mut batch, DAEMON_DRAIN_BATCH)
            .map_err(|_| NodeEnd::Killed)?;
        node.with(|core| {
            batch
                .drain(..)
                .try_for_each(|msg| core.on_daemon_msg(&node, msg))?;
            core.ship_pending()
        })?;
    }
}

impl NodeCore {
    fn new(engine: V2Engine, identity: Identity, route: Routing) -> Self {
        NodeCore {
            rank: engine.rank(),
            engine,
            identity,
            route,
            restored_mpi: None,
            restored_app: None,
            ckpt_armed: None,
            recv_deferred: false,
            finalized: false,
            finish_pending: false,
        }
    }

    // --- the daemon driver: the node mailbox ------------------------------

    /// One message from the node mailbox. `node` is this core's own
    /// handle, handed to the process in `InitOk`.
    fn on_daemon_msg(&mut self, node: &NodeHandle, msg: DaemonMsg) -> Result<(), NodeEnd> {
        match msg {
            DaemonMsg::Peer { from, msg } => self.feed(Input::Peer { from, msg })?,
            DaemonMsg::Proc(ProcRequest::Init) => {
                let reply = ProcReply::InitOk {
                    rank: self.rank,
                    size: self.engine.world(),
                    restored_mpi_state: self.restored_mpi.take(),
                    restored_app_state: self.restored_app.take(),
                    node: Some(node.clone()),
                };
                self.to_proc(reply)?;
            }
            // Every other channel call is made on the core directly. One
            // arriving here means the process never got its handle: fail
            // the run rather than leave it parked on a reply nobody sends.
            DaemonMsg::Proc(other) => {
                return Err(self.fail(format!(
                    "V2 daemon received {other:?} on its mailbox: channel calls run on the node core"
                )));
            }
            DaemonMsg::El {
                from,
                reply: ElReply::Ack { up_to },
            } => {
                // Replicated: per-replica acks feed the engine's quorum
                // tracker; the gate only opens on the quorum watermark.
                // Unreplicated: byte-identical to the single-ack path.
                self.feed(if self.route.el_replicas > 1 {
                    Input::ElReplicaAck {
                        replica: from.replica,
                        up_to,
                    }
                } else {
                    Input::ElAck { up_to }
                })?;
            }
            DaemonMsg::El {
                reply: ElReply::Events(_),
                ..
            } => { /* stale download reply */ }
            DaemonMsg::Ckpt(CkptReply::Stored { clock, .. }) => {
                self.feed(Input::CheckpointStored)?;
                let _ = self.identity.send(
                    self.route.sched_node,
                    SchedMsg::CheckpointDone {
                        rank: self.rank,
                        clock,
                    },
                );
            }
            DaemonMsg::Ckpt(CkptReply::Image { .. }) => { /* stale fetch reply */ }
            DaemonMsg::Sched(SchedMsg::StatusRequest) => {
                let m = self.engine.metrics();
                let status = SchedMsg::Status {
                    rank: self.rank,
                    logged_bytes: self.engine.logged_bytes(),
                    sent_bytes: m.bytes_sent,
                    recv_bytes: m.bytes_delivered,
                    el_batches: m.el_batches_sent,
                    el_events: m.el_events_batched,
                    el_acks: m.el_acks_received,
                    el_max_batch: m.el_max_batch_events,
                    timings: self.engine.timings().summary(),
                };
                let _ = self.identity.send(self.route.sched_node, status);
            }
            DaemonMsg::Sched(SchedMsg::CheckpointOrder) => {
                if !self.finalized {
                    self.feed(Input::CheckpointOrder)?;
                }
            }
            DaemonMsg::Sched(_) => {}
            DaemonMsg::Cm(_) => { /* V1-only traffic; ignore under V2 */ }
        }
        self.pump()?;
        if self.engine.gated_send_count() == 0 {
            if self.recv_deferred {
                // The receive that stood back for the gate: made now, on
                // the parked process's behalf, its answer travels as the
                // ordinary wake-up.
                self.recv_deferred = false;
                self.feed(Input::AppRecv)?;
                self.pump()?;
            }
            if self.finish_pending {
                self.finish_pending = false;
                self.complete_finish()?;
                self.to_proc(ProcReply::Done)?;
            }
        }
        Ok(())
    }

    /// Pump where no inline call is being answered: an answer for the
    /// process, if the engine produced one, can then only be for a
    /// process parked on it, so it goes to the reply mailbox.
    fn pump(&mut self) -> Result<(), NodeEnd> {
        match self.pump_outputs()? {
            Some(reply) => self.to_proc(reply),
            None => Ok(()),
        }
    }

    /// Ship delivered-but-unshipped reception events. Called by whichever
    /// driver is about to leave the node idle — the daemon after its
    /// drain, the process before it parks and when an inline delivery
    /// emptied the receive buffer — so an idle node never sits on
    /// unlogged events, while a backlog being consumed batches up to the
    /// engine's own flush points (a send gating, the size bound).
    fn ship_pending(&mut self) -> Result<(), NodeEnd> {
        if self.engine.pending_event_count() > 0 {
            self.feed(Input::FlushEvents)?;
            self.pump()?;
        }
        Ok(())
    }

    // --- the process driver: its own channel calls ------------------------

    /// `PIbsend`. The engine decides between wire and gate; either way
    /// the call returns without waiting.
    pub(crate) fn app_send(&mut self, dst: Rank, bytes: Payload) -> Result<(), NodeEnd> {
        self.feed(Input::AppSend {
            dst,
            payload: bytes,
        })?;
        self.pump_outputs()
            .map(|answer| debug_assert!(answer.is_none()))
    }

    /// `PIbrecv`. `Some` when the receive buffer (or the replay plan)
    /// could answer on the spot; `None` when the wait is now registered
    /// and the caller must park on its reply mailbox, which the daemon
    /// driver fills with exactly one `Msg`.
    ///
    /// A receive made while sends of this process wait behind the gate
    /// stands back until they have left, buffered messages or not: every
    /// delivery moves the watermark the gate waits for, so a process
    /// consuming a backlog between its sends (a forwarder under sustained
    /// inflow) would hold them until the inflow pauses. Standing back
    /// costs no batching — a delivery behind a gated send ships its event
    /// alone anyway — and a forwarder pays per message what a ping-pong
    /// does: one logger round trip, one wake-up.
    pub(crate) fn app_recv(&mut self) -> Result<Option<(Rank, Payload)>, NodeEnd> {
        self.check_live()?;
        if self.engine.gated_send_count() > 0 {
            self.recv_deferred = true;
            return Ok(None);
        }
        self.feed(Input::AppRecv)?;
        match self.pump_outputs()? {
            Some(ProcReply::Msg { from, payload }) => {
                if self.engine.recv_backlog() == 0 {
                    self.ship_pending()?;
                }
                Ok(Some((from, payload)))
            }
            None => {
                self.ship_pending()?;
                Ok(None)
            }
            Some(other) => unreachable!("a receive answered with {other:?}"),
        }
    }

    /// `PInprobe`. `None` only during a replay whose logged probe
    /// succeeded on a message not re-sent yet: the answer arrives as a
    /// `Probe` on the reply mailbox.
    pub(crate) fn app_probe(&mut self) -> Result<Option<bool>, NodeEnd> {
        self.check_live()?;
        self.feed(Input::AppProbe)?;
        match self.pump_outputs()? {
            Some(ProcReply::Probe(pending)) => Ok(Some(pending)),
            None => Ok(None),
            Some(other) => unreachable!("a probe answered with {other:?}"),
        }
    }

    /// Checkpoint-site poll: arm an ordered checkpoint if the protocol is
    /// quiescent right now. The process is between two MPI calls and
    /// holds the lock, so "now" is a call boundary by construction.
    pub(crate) fn app_ckpt_poll(&mut self) -> Result<bool, NodeEnd> {
        if self.ckpt_armed.is_none() {
            self.ckpt_armed = self.engine.try_arm_checkpoint();
            // Arming may have force-flushed pending events.
            self.pump()?;
        }
        Ok(self.ckpt_armed.is_some())
    }

    /// Snapshot the engine next to the process's serialized state and
    /// send the image to the checkpoint server.
    pub(crate) fn app_ckpt_commit(
        &mut self,
        mpi_state: Payload,
        app_state: Payload,
    ) -> Result<(), NodeEnd> {
        let clock = self
            .ckpt_armed
            .take()
            .expect("commit without armed checkpoint");
        let image = NodeImage {
            engine: self.engine.snapshot(),
            mpi_state,
            app_state,
        };
        debug_assert_eq!(image.engine.clock, clock);
        // Best-effort with a short retry: a CS mid-relaunch gets a second
        // chance; a lost image only costs replay depth. The transfer is
        // "overlapped": the process continues immediately; durability is
        // acked to the engine later.
        match send_service_retrying(
            &self.identity,
            self.route.cs_node,
            CkptPacket {
                from: self.rank,
                req: CkptRequest::Put {
                    rank: self.rank,
                    clock,
                    // Zero-copy: segments alias the sender log's own
                    // buffers; nothing is serialized here.
                    image: image.encode_blob(),
                },
            },
            3,
        ) {
            Err(SendError::SenderDead) => Err(NodeEnd::Killed),
            _ => Ok(()),
        }
    }

    /// `PIiFinish`. `true` when the run is complete; `false` when sends
    /// of the run still sit behind the gate — the caller parks until the
    /// daemon driver, releasing the last of them, posts `Done`.
    pub(crate) fn app_finish(&mut self) -> Result<bool, NodeEnd> {
        // Ship any still-pending reception events before going into
        // serve-only mode: the event log must cover every delivery the
        // finished run consumed.
        self.feed(Input::FlushEvents)?;
        self.pump()?;
        self.finalized = true;
        if self.engine.gated_send_count() > 0 {
            self.finish_pending = true;
            return Ok(false);
        }
        self.complete_finish().map(|()| true)
    }

    // --- shared by both drivers -------------------------------------------

    /// A recv or probe the engine answers from its buffer makes no fabric
    /// send, so nothing else would stop a killed incarnation's process
    /// from consuming its backlog; fail-stop means it stops now.
    fn check_live(&self) -> Result<(), NodeEnd> {
        if self.identity.is_live() {
            Ok(())
        } else {
            Err(NodeEnd::Killed)
        }
    }

    /// Feed one input to the engine. The outputs stay queued for the
    /// caller's pump.
    fn feed(&mut self, input: Input) -> Result<(), NodeEnd> {
        self.engine
            .handle(input)
            .map_err(|e| self.fail(format!("replay divergence: {e}")))
    }

    /// End the incarnation as a run failure, on the record.
    fn fail(&self, detail: String) -> NodeEnd {
        self.engine.recorder().record(
            0,
            mvr_obs::ProtoEvent::Divergence {
                detail: detail.clone(),
            },
        );
        NodeEnd::Failed(detail)
    }

    /// Every send of the process's run has left the gate, so the final
    /// metrics are final — one gate-wait sample per deferred send. The
    /// node keeps serving the protocol afterwards: peers may still need
    /// our sender log for their recovery.
    fn complete_finish(&mut self) -> Result<(), NodeEnd> {
        let clock = self.engine.clock();
        self.engine
            .recorder()
            .record(clock, mvr_obs::ProtoEvent::Finish { clock });
        match self.identity.send(
            NodeId::Dispatcher,
            DispatcherMsg::Finalized {
                rank: self.rank,
                metrics: *self.engine.metrics(),
                timings: self.engine.timings().clone(),
            },
        ) {
            // A killed incarnation's run did not finish.
            Err(SendError::SenderDead) => Err(NodeEnd::Killed),
            // The dispatcher may already be gone during teardown.
            _ => Ok(()),
        }
    }

    fn to_proc(&self, reply: ProcReply) -> Result<(), NodeEnd> {
        match self.identity.send(NodeId::Process(self.rank), reply) {
            Ok(()) => Ok(()),
            // The process died with us (kill) — unwind.
            Err(SendError::SenderDead) => Err(NodeEnd::Killed),
            // Process gone but we are alive: teardown race; keep serving.
            Err(SendError::Disconnected(_)) => {
                if self.engine.recorder().trace_stderr() {
                    eprintln!("[dmn r{}] DROP proc reply (process slot dead)", self.rank.0);
                }
                Ok(())
            }
        }
    }

    /// Perform every queued engine output. Returns the one output that
    /// is an answer to the MPI process (a delivery or a probe verdict —
    /// the process makes one blocking call at a time, so there is at most
    /// one) for the driver to route: inline to a calling process, over
    /// the reply mailbox to a parked one.
    fn pump_outputs(&mut self) -> Result<Option<ProcReply>, NodeEnd> {
        let mut answer = None;
        while let Some(out) = self.engine.pop_output() {
            match out {
                Output::Transmit { to, msg } => {
                    let data_clock = match &msg {
                        mvr_core::PeerMsg::Data(d) => Some(d.id.sender_clock),
                        _ => None,
                    };
                    match self.identity.send(
                        NodeId::Computing(to),
                        DaemonMsg::Peer {
                            from: self.rank,
                            msg,
                        },
                    ) {
                        Ok(()) => {}
                        Err(SendError::SenderDead) => return Err(NodeEnd::Killed),
                        // Dead peer: the message stays in SAVED; its
                        // restart will pull it via RESTART1. Retract the
                        // optimistic HS advance so no checkpoint records a
                        // transmission that never happened (the restart
                        // handshake heals live state, but a persisted
                        // inflated mark would suppress the healing
                        // re-sends after our own restart).
                        Err(SendError::Disconnected(_)) => {
                            if let Some(h) = data_clock {
                                self.engine.on_transmit_dropped(to, h);
                            }
                        }
                    }
                }
                Output::LogEvents(batch) => {
                    // Fan the batch out to every replica of our shard; a
                    // write is durable once a quorum *acks* it — the
                    // gate enforces that, so a sub-quorum fan-out (some
                    // replicas dead mid-revival) is tolerable here: the
                    // gate simply stays closed until the revived
                    // replica's catch-up announcement re-acks. Only a
                    // fan-out that reached no replica at all (R = 1:
                    // the one EL dead past the retry window) breaks the
                    // deployment's reliability assumption; halt.
                    let mut stored = 0u32;
                    let last = self.route.el_nodes.len() - 1;
                    let mut batch = Some(batch);
                    for (i, el_node) in self.route.el_nodes.iter().enumerate() {
                        // The last replica takes the batch by move, so
                        // the unreplicated hot path stays clone-free.
                        let b = if i == last {
                            batch.take().expect("batch moved early")
                        } else {
                            batch.as_ref().expect("batch moved early").clone()
                        };
                        match send_service_retrying(
                            &self.identity,
                            *el_node,
                            ElPacket {
                                from: self.rank,
                                req: ElRequest::Log(b),
                            },
                            8,
                        ) {
                            Ok(()) => stored += 1,
                            Err(SendError::SenderDead) => return Err(NodeEnd::Killed),
                            // A dead replica mid-revival: the quorum
                            // below decides whether we can proceed.
                            Err(SendError::Disconnected(_)) => {}
                        }
                    }
                    if stored == 0 {
                        return Err(NodeEnd::Killed);
                    }
                }
                Output::Deliver { from, payload } => {
                    debug_assert!(answer.is_none(), "two answers for one process call");
                    answer = Some(ProcReply::Msg { from, payload });
                }
                Output::ProbeAnswer(b) => {
                    debug_assert!(answer.is_none(), "two answers for one process call");
                    answer = Some(ProcReply::Probe(b));
                }
                Output::ElTruncate { up_to } => {
                    // Best-effort storage reclamation on every replica.
                    for el_node in &self.route.el_nodes {
                        let _ = self.identity.send(
                            *el_node,
                            ElPacket {
                                from: self.rank,
                                req: ElRequest::Truncate {
                                    rank: self.rank,
                                    up_to,
                                },
                            },
                        );
                    }
                }
                Output::ReplayComplete => {}
            }
        }
        Ok(answer)
    }
}

/// The node core driven by hand, thread-free: a [`Fabric`] whose peer,
/// event-logger, checkpoint-server, dispatcher and process slots are
/// plain mailboxes the test reads. The test plays both drivers — the
/// daemon side through `on_daemon_msg` + `ship_pending` (one drain pass),
/// the process side through the `app_*` entries — and every step either
/// returns or leaves a message in a stub; nothing blocks.
#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::{DataMsg, ElAddr, MsgId, PeerMsg};

    const ME: Rank = Rank(1);
    const PEER: Rank = Rank(0);

    struct Rig {
        fabric: Fabric,
        node: NodeHandle,
        proc_mb: Mailbox<ProcReply>,
        peer_mb: Mailbox<DaemonMsg>,
        el_mb: Mailbox<ElPacket>,
        cs_mb: Mailbox<CkptPacket>,
        disp_mb: Mailbox<DispatcherMsg>,
    }

    fn rig() -> Rig {
        let fabric = Fabric::new();
        let topology = Topology::new(2, 1, 1).expect("valid topology");
        let slots = register_node(&fabric, ME);
        let (peer_mb, _) = fabric.register(NodeId::Computing(PEER));
        let (el_mb, _) = fabric.register(NodeId::EventLogger(0));
        let (cs_mb, _) = fabric.register(NodeId::CheckpointServer(0));
        let (disp_mb, _) = fabric.register(NodeId::Dispatcher);
        let engine = V2Engine::fresh(ME, 2);
        Rig {
            fabric,
            node: NodeHandle::new(NodeCore::new(
                engine,
                slots.daemon_id,
                Routing::new(&topology, ME),
            )),
            proc_mb: slots.proc_mb,
            peer_mb,
            el_mb,
            cs_mb,
            disp_mb,
        }
    }

    fn body(h: u64) -> Payload {
        Payload::from_vec(h.to_le_bytes().to_vec())
    }

    fn drained<M>(mb: &Mailbox<M>) -> Vec<M> {
        std::iter::from_fn(|| mb.try_recv().expect("stub alive")).collect()
    }

    impl Rig {
        /// One pass of the daemon thread's loop over `msgs`.
        fn daemon_drain(&self, msgs: Vec<DaemonMsg>) {
            self.node
                .with(|core| {
                    msgs.into_iter()
                        .try_for_each(|m| core.on_daemon_msg(&self.node, m))?;
                    core.ship_pending()
                })
                .expect("node alive");
        }

        fn data(h: u64) -> DaemonMsg {
            DaemonMsg::Peer {
                from: PEER,
                msg: PeerMsg::Data(DataMsg {
                    id: MsgId::new(PEER, h),
                    dst: ME,
                    payload: body(h),
                }),
            }
        }

        fn recv(&self) -> Option<(Rank, Payload)> {
            self.node.with(|c| c.app_recv()).expect("node alive")
        }

        /// Every `Log` batch the event-logger stub holds, in ship order.
        fn logged(&self) -> Vec<Vec<ReceptionEvent>> {
            drained(&self.el_mb)
                .into_iter()
                .filter_map(|p| match p.req {
                    ElRequest::Log(batch) => Some(batch.events),
                    _ => None,
                })
                .collect()
        }

        /// What the event logger would answer for everything up to `up_to`.
        fn ack(&self, up_to: u64) {
            self.daemon_drain(vec![DaemonMsg::El {
                from: ElAddr {
                    shard: 0,
                    replica: 0,
                },
                reply: ElReply::Ack { up_to },
            }]);
        }

        /// Data messages the peer stub received, by sender clock.
        fn wire(&self) -> Vec<u64> {
            drained(&self.peer_mb)
                .into_iter()
                .filter_map(|m| match m {
                    DaemonMsg::Peer {
                        msg: PeerMsg::Data(d),
                        ..
                    } => Some(d.id.sender_clock),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn a_backlog_is_received_inline_in_arrival_order_and_logged_in_batches() {
        let r = rig();
        r.daemon_drain((1..=64).map(Rig::data).collect());
        assert!(r.logged().is_empty(), "nothing delivered, nothing to log");
        for h in 1..=64 {
            assert_eq!(r.recv(), Some((PEER, body(h))));
        }
        assert!(
            drained(&r.proc_mb).is_empty(),
            "an inline receive must not also cross the reply mailbox"
        );
        // The engine flushes at its 32-event bound; the last delivery
        // empties the buffer on exactly such a bound, so nothing is left
        // for the process-side ship.
        let batches = r.logged();
        assert_eq!(batches.len(), 64usize.div_ceil(32));
        let clocks: Vec<u64> = batches.iter().flatten().map(|e| e.receiver_clock).collect();
        assert_eq!(
            clocks,
            (1..=64).collect::<Vec<u64>>(),
            "shipped once, in order"
        );
        // A 65th arrival after the backlog drained: one more batch, shipped
        // by the process because its delivery left the node idle.
        r.daemon_drain(vec![Rig::data(65)]);
        assert_eq!(r.recv(), Some((PEER, body(65))));
        assert_eq!(r.logged().len(), 1);
    }

    #[test]
    fn a_receive_on_an_empty_buffer_parks_and_is_woken_exactly_once() {
        let r = rig();
        assert_eq!(r.recv(), None, "nothing buffered: the wait is registered");
        assert!(drained(&r.proc_mb).is_empty());
        // Two arrivals in one drain: the first answers the parked receive
        // over the reply mailbox, the second waits in the buffer.
        r.daemon_drain(vec![Rig::data(1), Rig::data(2)]);
        let woken = drained(&r.proc_mb);
        assert!(
            matches!(&woken[..], [ProcReply::Msg { from: PEER, payload }] if *payload == body(1)),
            "exactly one wake-up, carrying the first arrival: {woken:?}"
        );
        assert_eq!(r.logged().len(), 1, "the daemon ships after its drain");
        // The second is taken inline — and only inline.
        assert_eq!(r.recv(), Some((PEER, body(2))));
        assert!(drained(&r.proc_mb).is_empty());
        // The same for a probe: answered on the spot, never by mailbox.
        assert_eq!(r.node.with(|c| c.app_probe()).unwrap(), Some(false));
        r.daemon_drain(vec![Rig::data(3)]);
        assert_eq!(r.node.with(|c| c.app_probe()).unwrap(), Some(true));
        assert!(drained(&r.proc_mb).is_empty());
    }

    #[test]
    fn a_send_behind_unacked_events_leaves_only_after_the_ack() {
        let r = rig();
        r.node.with(|c| c.app_send(PEER, body(100))).unwrap();
        assert_eq!(r.wire(), [1], "no delivery yet: straight to the wire");
        r.daemon_drain(vec![Rig::data(1)]);
        assert!(r.recv().is_some());
        assert_eq!(r.logged().len(), 1, "shipped when the buffer emptied");
        r.node.with(|c| c.app_send(PEER, body(101))).unwrap();
        r.node.with(|c| c.app_send(PEER, body(102))).unwrap();
        assert!(r.wire().is_empty(), "the gate holds both sends");
        r.ack(2);
        assert_eq!(r.wire(), [3, 4], "released by the ack, in order");
    }

    #[test]
    fn a_forwarder_with_a_backlog_forwards_each_message_at_its_own_ack() {
        let r = rig();
        r.daemon_drain((1..=8).map(Rig::data).collect());
        assert_eq!(r.recv(), Some((PEER, body(1))));
        r.node.with(|c| c.app_send(PEER, body(101))).unwrap();
        assert!(r.wire().is_empty(), "the forward waits for event 1's ack");
        // Seven messages are buffered, yet the receive stands back: taking
        // one would move the watermark the gated forward waits for.
        assert_eq!(r.recv(), None);
        assert_eq!(r.logged().len(), 1, "only the delivery made so far");
        assert!(drained(&r.proc_mb).is_empty());
        // The ack releases the forward first, then makes the receive.
        r.ack(1);
        assert_eq!(r.wire(), [2], "forwarded with 6 messages still buffered");
        let woken = drained(&r.proc_mb);
        assert!(
            matches!(&woken[..], [ProcReply::Msg { from: PEER, payload }] if *payload == body(2)),
            "exactly one wake-up, carrying the next message: {woken:?}"
        );
        // With nothing gated the backlog is taken inline again.
        r.ack(3);
        assert_eq!(r.recv(), Some((PEER, body(3))));
        assert!(drained(&r.proc_mb).is_empty());
    }

    #[test]
    fn finish_completes_only_after_gated_sends_drain() {
        let r = rig();
        r.daemon_drain(vec![Rig::data(1)]);
        assert!(r.recv().is_some());
        r.node.with(|c| c.app_send(PEER, body(7))).unwrap();
        assert!(
            !r.node.with(|c| c.app_finish()).unwrap(),
            "a send of the run is still gated: the process must park"
        );
        assert!(drained(&r.disp_mb).is_empty());
        assert!(drained(&r.proc_mb).is_empty());
        r.ack(1);
        assert_eq!(r.wire(), [2]);
        assert_eq!(drained(&r.disp_mb).len(), 1, "finalized once");
        assert!(matches!(&drained(&r.proc_mb)[..], [ProcReply::Done]));

        // With nothing gated the finish completes inline.
        let r = rig();
        assert!(r.node.with(|c| c.app_finish()).unwrap());
        assert_eq!(drained(&r.disp_mb).len(), 1);
        assert!(drained(&r.proc_mb).is_empty());
    }

    #[test]
    fn a_checkpoint_is_armed_and_snapshotted_inline_at_a_quiescent_call_boundary() {
        let r = rig();
        r.daemon_drain(vec![Rig::data(1)]);
        assert!(r.recv().is_some());
        r.node.with(|c| c.app_send(PEER, body(9))).unwrap();
        r.daemon_drain(vec![DaemonMsg::Sched(SchedMsg::CheckpointOrder)]);
        assert!(
            !r.node.with(|c| c.app_ckpt_poll()).unwrap(),
            "gate closed and a send queued: not a quiescent point"
        );
        r.ack(1);
        assert!(r.node.with(|c| c.app_ckpt_poll()).unwrap());
        r.node
            .with(|c| c.app_ckpt_commit(body(1), body(2)))
            .unwrap();
        let puts = drained(&r.cs_mb);
        let [CkptPacket {
            req: CkptRequest::Put { rank, clock, image },
            ..
        }] = &puts[..]
        else {
            panic!("expected one image upload, got {puts:?}");
        };
        let image = NodeImage::decode_blob(image).expect("image decodes");
        assert_eq!((*rank, *clock), (ME, 2));
        assert_eq!(image.engine.clock, 2, "one delivery + one send");
        assert_eq!((image.mpi_state, image.app_state), (body(1), body(2)));
        assert!(!r.node.with(|c| c.app_ckpt_poll()).unwrap(), "consumed");
    }

    #[test]
    fn a_killed_incarnation_stops_consuming_its_backlog() {
        let r = rig();
        r.daemon_drain((1..=4).map(Rig::data).collect());
        assert!(r.recv().is_some());
        r.fabric.kill_group(&mvr_net::fail_stop_group(ME));
        assert!(matches!(
            r.node.with(|c| c.app_recv()),
            Err(NodeEnd::Killed)
        ));
        assert!(matches!(
            r.node.with(|c| c.app_send(PEER, body(0))),
            Err(NodeEnd::Killed)
        ));
    }
}
