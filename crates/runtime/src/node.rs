//! A computing node: one shared node core — the protocol engine with
//! everything needed to act on its outputs, and the node mailbox it
//! drains, behind one lock — driven by two threads, whichever protocol
//! the node runs (V2's core is here, the V1/P4 baselines' in
//! [`crate::baseline`]). The MPI-process thread runs the user
//! application and makes its `send` / `recv` / `probe` / checkpoint /
//! finish calls on the core directly, under the daemon's [`Identity`].
//! The node mailbox (peer data, event-logger acks, checkpoint and
//! Channel Memory traffic, `RESTART` handshakes) is drained by whichever
//! thread a push wakes: the MPI process while it waits for the answer to
//! one of its calls — it is then the mailbox's registered waiter
//! ([`Waiter::Process`]), drains what arrives into the core itself and
//! takes its answer from the core's slot — and the communication daemon
//! thread otherwise, i.e. for what arrives while the process computes.
//! An answer the daemon's drain produces for a parked process is left in
//! the same slot, and the daemon rings the process directly. A message
//! thus costs one thread wake-up, whoever takes it.
//!
//! §4.4 puts the daemon between the MPI process and the wire ("the MPI
//! process does not connect directly to all the other computing nodes.
//! This is the job of a communication daemon running on the same
//! machine"); here that separation is the lock, not a hop. §4.6.1's
//! checkpoint handshake keeps its shape: the daemon side orders, the
//! process supplies its image at a quiescent point — between two MPI
//! calls, under the lock (our cooperative substitution for Condor).

use crate::baseline::{P4Core, V1Core};
use crate::channel::DaemonChannel;
use crate::deploy::Topology;
use crate::messages::{DaemonMsg, DispatcherMsg};
use mvr_ckpt::CkptPacket;
use mvr_core::engine::{Input, Output};
use mvr_core::{
    CkptReply, CkptRequest, ElReply, ElRequest, EventBatch, Metrics, NodeId, NodeImage, Payload,
    PeerMsg, Rank, ReceptionEvent, SchedMsg, V2Engine,
};
use mvr_eventlog::{merge_downloads, ElPacket};
use mvr_mpi::{Mpi, MpiError, MpiResult};
use mvr_net::{Fabric, Identity, MailSignal, Mailbox, RecvError, SendError, Waiter};
use mvr_obs::ProtocolTimings;
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

/// How long a restarting node waits for its event-logger replicas'
/// `DownloadEL` answers before asking the silent ones again.
const EL_DOWNLOAD_RETRY: Duration = Duration::from_millis(20);

/// Upper bound on one batched drain of the node mailbox. Bounds the
/// latency of the post-drain event flush during a sustained flood; an
/// oversize backlog simply takes another (already-woken) pass.
const DRAIN_BATCH: usize = 128;

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

/// A panic's message, as far as its payload carries one.
pub(crate) fn panic_detail(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("opaque panic payload")
}

/// Exit report from a node incarnation (a rank's threads, or a service
/// thread) to the dispatcher.
#[derive(Clone, Debug)]
pub struct NodeExit {
    /// Reporting node.
    pub node: NodeId,
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

/// The fabric registration of one node incarnation, created *before* the
/// threads start so peers never race a half-registered node.
pub struct NodeSlots {
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
}

/// Register a (fresh or reincarnated) node on the fabric: one mailbox,
/// which both threads drain, and one identity, under which every send of
/// the node goes out.
pub fn register_node(fabric: &Fabric, rank: Rank) -> NodeSlots {
    let (mailbox, identity) = fabric.register::<DaemonMsg>(NodeId::Computing(rank));
    NodeSlots { mailbox, identity }
}

/// What the daemon hands its MPI process once the node's core exists
/// (§4.4 `PIiInit`).
pub(crate) struct NodeInit {
    /// World size.
    pub(crate) size: u32,
    /// The MPI-library and application state restored from a
    /// checkpoint, if any.
    pub(crate) restored: Option<(Payload, Payload)>,
    /// The node core the process drives for every later call.
    pub(crate) node: NodeHandle,
}

/// Where the MPI process finds its node: the daemon leaves the
/// [`NodeInit`] here and rings the process, which parks meanwhile on the
/// node mailbox's signal — the one it parks on for every later answer.
#[derive(Clone)]
pub(crate) struct Handover {
    signal: MailSignal<DaemonMsg>,
    init: Arc<Mutex<Option<NodeInit>>>,
}

impl Handover {
    fn new(signal: MailSignal<DaemonMsg>) -> Self {
        Handover {
            signal,
            init: Arc::default(),
        }
    }

    fn give(&self, init: NodeInit) {
        *self.init.lock() = Some(init);
        self.signal.ring(Waiter::Process);
    }

    /// The process side: park until the daemon hands the node over.
    pub(crate) fn take(&self) -> Result<NodeInit, NodeEnd> {
        loop {
            if let Some(init) = self.init.lock().take() {
                return Ok(init);
            }
            debug_assert_parkable();
            self.signal
                .wait(Waiter::Process)
                .map_err(|_| NodeEnd::Killed)?;
        }
    }
}

/// Start the daemon and process threads of a registered node.
pub fn start_node(
    slots: NodeSlots,
    cfg: NodeConfig,
    app: Arc<dyn MpiApp>,
    exit_tx: mpsc::Sender<NodeExit>,
) -> Vec<std::thread::JoinHandle<()>> {
    let NodeSlots { mailbox, identity } = slots;
    let handover = Handover::new(mailbox.signal());
    let proc_handover = handover.clone();
    let rank = cfg.rank;
    let daemon_exit_tx = exit_tx.clone();
    let proc_obs = cfg.recorder.clone();

    let daemon = std::thread::Builder::new()
        .name(format!("daemon-{rank}"))
        .spawn(move || {
            // A kill unwinds silently (the dispatcher handles the
            // restart). A replay divergence is a bug in the application
            // or the protocol, and so is a panicking daemon (an engine
            // invariant tripping), which would leave its fabric slots
            // registered and alive: peers would keep sending into a
            // mailbox nobody drains and the run would strand until the
            // dispatcher timeout. Report either so the dispatcher fails
            // the run immediately.
            let obs = cfg.recorder.clone();
            let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                daemon_main(mailbox, identity, cfg, &handover)
            }));
            let failure = match end {
                Ok(Err(NodeEnd::Failed(detail))) => detail,
                Ok(_) => return,
                Err(panic) => record_panic(&obs, "daemon", panic.as_ref()),
            };
            let _ = daemon_exit_tx.send(NodeExit {
                node: NodeId::Computing(rank),
                outcome: Outcome::Failed(failure),
            });
        })
        .expect("spawn daemon thread");

    let process = std::thread::Builder::new()
        .name(format!("mpi-{rank}"))
        .spawn(move || {
            let chan = DaemonChannel::new(rank, proc_handover);
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
            let _ = exit_tx.send(NodeExit {
                node: NodeId::Computing(rank),
                outcome,
            });
        })
        .expect("spawn MPI process thread");

    vec![daemon, process]
}

/// Describe a node thread's panic and leave a `Divergence` record of it
/// in the incarnation's timeline.
fn record_panic(obs: &mvr_obs::Recorder, who: &str, panic: &(dyn std::any::Any + Send)) -> String {
    let detail = format!("{who} panicked: {}", panic_detail(panic));
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
    /// violated piecewise determinism during a replay — reported to the
    /// dispatcher as a run failure.
    Failed(String),
}

thread_local! {
    /// Whether this thread is inside [`NodeHandle::with`]; read by debug
    /// assertions only.
    static HOLDS_NODE_LOCK: Cell<bool> = const { Cell::new(false) };
}

/// Structural invariant of the two-driver node: a thread never blocks on
/// the node mailbox while it holds the node lock (the other driver would
/// stall behind it, and the wake-up it waits for could never be
/// produced).
pub(crate) fn debug_assert_parkable() {
    debug_assert!(
        !HOLDS_NODE_LOCK.get(),
        "parking on a mailbox with the node lock held"
    );
}

/// The shared handle to a node's core: what both threads drain the node
/// mailbox into, and what the MPI process is handed at init to make its
/// channel calls on.
#[derive(Clone)]
pub(crate) struct NodeHandle {
    core: Arc<Mutex<dyn NodeCore>>,
    /// The node mailbox's waiting side; the mailbox itself is in the
    /// core's [`Port`], under the lock.
    signal: MailSignal<DaemonMsg>,
}

/// Give the node mailbox's waiter role back to the daemon when the
/// process stops waiting, however it stops (an answer, a kill, a panic).
struct HandBack<'a>(&'a MailSignal<DaemonMsg>);

impl Drop for HandBack<'_> {
    fn drop(&mut self) {
        self.0.register(Waiter::Daemon);
    }
}

impl NodeHandle {
    fn new(core: impl NodeCore + 'static, signal: MailSignal<DaemonMsg>) -> Self {
        NodeHandle {
            core: Arc::new(Mutex::new(core)),
            signal,
        }
    }

    /// Run `f` on the core under the node lock — the only way to reach
    /// the core, so the lock's scope is always one closure. On success
    /// the engine's output queue must have been pumped dry: the next
    /// driver to take the lock starts from a quiet engine.
    ///
    /// A killed incarnation's core is never entered again: a receive or
    /// probe answered from a buffer makes no fabric send, so nothing else
    /// would stop its process from consuming its backlog.
    pub(crate) fn with<T>(
        &self,
        f: impl FnOnce(&mut dyn NodeCore) -> Result<T, NodeEnd>,
    ) -> Result<T, NodeEnd> {
        let mut core = self.core.lock();
        if !core.port().identity.is_live() {
            return Err(NodeEnd::Killed);
        }
        if cfg!(debug_assertions) {
            HOLDS_NODE_LOCK.set(true);
        }
        let out = f(&mut *core);
        if cfg!(debug_assertions) {
            HOLDS_NODE_LOCK.set(false);
        }
        debug_assert!(
            out.is_err() || core.outputs_pending() == 0,
            "node lock released with unpumped engine outputs"
        );
        out
    }

    /// Make one of the process's calls that can wait (`f`: a receive, a
    /// probe or a finish) and return its answer. When the core cannot
    /// answer on the spot, the process becomes the node mailbox's
    /// registered waiter and drains what arrives into the core itself
    /// until the answer is in the slot — or the daemon, having drained
    /// the message that made it, rings.
    pub(crate) fn call(
        &self,
        f: impl FnOnce(&mut dyn NodeCore) -> Result<(), NodeEnd>,
    ) -> Result<Answer, NodeEnd> {
        let inline = self.with(|core| {
            f(core)?;
            let answer = core.port_mut().answer.take();
            if answer.is_none() {
                // In the lock hold that registered the wait: from here
                // on, an arrival wakes the process, not the daemon.
                self.signal.register(Waiter::Process);
            }
            Ok(answer)
        })?;
        if let Some(answer) = inline {
            return Ok(answer);
        }
        let _hand_back = HandBack(&self.signal);
        loop {
            debug_assert_parkable();
            self.signal
                .wait(Waiter::Process)
                .map_err(|_| NodeEnd::Killed)?;
            if let Some(answer) = self.process_pass()? {
                return Ok(answer);
            }
        }
    }

    /// One pass of a parked process: drain the node mailbox, and take the
    /// answer if it is there now.
    fn process_pass(&self) -> Result<Option<Answer>, NodeEnd> {
        self.with(|core| {
            drain(core)?;
            Ok(core.port_mut().answer.take())
        })
    }

    /// One pass of the daemon driver: drain the node mailbox, and ring
    /// the process if the drain left the answer it is parked on.
    fn daemon_pass(&self) -> Result<(), NodeEnd> {
        let answered = self.with(|core| {
            drain(core)?;
            Ok(core.port().answer.is_some())
        })?;
        if answered {
            self.signal.ring(Waiter::Process);
        }
        Ok(())
    }
}

/// One drain pass, by either driver: serve up to [`DRAIN_BATCH`] node
/// mailbox messages into the core, then ship what must not wait while
/// the node idles.
fn drain(core: &mut dyn NodeCore) -> Result<(), NodeEnd> {
    for _ in 0..DRAIN_BATCH {
        match core.port().mailbox.try_recv() {
            Ok(Some(msg)) => core.on_daemon_msg(msg)?,
            Ok(None) => break,
            Err(_) => return Err(NodeEnd::Killed),
        }
    }
    core.ship_pending()
}

/// The answer to one of the MPI process's calls that can wait (§4.4
/// `PIbrecv`, `PInprobe`, `PIiFinish`), left in its node's [`Port`].
#[derive(Debug)]
pub(crate) enum Answer {
    /// A delivery, for a receive.
    Msg {
        /// Original sender.
        from: Rank,
        /// MPI-layer bytes.
        payload: Payload,
    },
    /// A probe's verdict.
    Probe(bool),
    /// `finalize` completed.
    Done,
}

/// A protocol's node core. Thread-free — both drivers enter it through
/// [`NodeHandle::with`], for the process's own channel calls and for
/// either's drain of the node mailbox — and every fabric send it makes
/// goes out through its [`Port`], under the daemon's one [`Identity`], so
/// per-destination FIFO, the fail-stop fence and send-count triggers see
/// a single sender.
pub(crate) trait NodeCore: Send {
    /// One message from the node mailbox, drained by either driver.
    fn on_daemon_msg(&mut self, msg: DaemonMsg) -> Result<(), NodeEnd>;

    /// Called by whichever driver is about to leave the node idle: ship
    /// what must not wait (V2: delivered-but-unlogged reception events).
    fn ship_pending(&mut self) -> Result<(), NodeEnd> {
        Ok(())
    }

    /// `PIbsend`; returns without waiting.
    fn app_send(&mut self, dst: Rank, bytes: Payload) -> Result<(), NodeEnd>;

    /// `PIbrecv`. The three calls that can wait — this, `app_probe` and
    /// `app_finish` — leave their [`Answer`] in the port's slot: before
    /// returning when the core can answer on the spot, or — the wait is
    /// now registered — from whichever drain of the node mailbox later
    /// produces it.
    fn app_recv(&mut self) -> Result<(), NodeEnd>;

    /// `PInprobe`.
    fn app_probe(&mut self) -> Result<(), NodeEnd>;

    /// Checkpoint-site poll: whether a checkpoint is armed for the
    /// process to commit. The baselines never take one (V1 restarts from
    /// scratch, P4 not at all).
    fn app_ckpt_poll(&mut self) -> Result<bool, NodeEnd> {
        Ok(false)
    }

    /// Commit the process's serialized state into the armed checkpoint.
    fn app_ckpt_commit(&mut self, _mpi_state: Payload, _app_state: Payload) -> Result<(), NodeEnd> {
        unreachable!("commit without armed checkpoint")
    }

    /// `PIiFinish`.
    fn app_finish(&mut self) -> Result<(), NodeEnd>;

    /// The node's fabric port.
    fn port(&self) -> &Port;

    /// The node's fabric port, to take the answer from.
    fn port_mut(&mut self) -> &mut Port;

    /// Engine outputs not yet performed — zero whenever the lock is free.
    fn outputs_pending(&self) -> usize;
}

/// A node's one place on the fabric — the daemon's [`Identity`], the
/// sends every core makes with it, and the node mailbox — plus the slot
/// the answer to the process's pending call is left in.
pub(crate) struct Port {
    identity: Identity,
    mailbox: Mailbox<DaemonMsg>,
    pub(crate) rank: Rank,
    answer: Option<Answer>,
}

impl Port {
    pub(crate) fn new(identity: Identity, mailbox: Mailbox<DaemonMsg>, rank: Rank) -> Self {
        Port {
            identity,
            mailbox,
            rank,
            answer: None,
        }
    }

    /// Leave the answer to the process's pending call — the process makes
    /// one call at a time, so there is at most one — for it to take.
    pub(crate) fn answer(&mut self, answer: Answer) {
        debug_assert!(self.answer.is_none(), "two answers for one process call");
        self.answer = Some(answer);
    }

    /// Send `msg` to `to`. Only our own death ends the incarnation; a
    /// dead receiver (`Ok(false)`) is the caller's to judge.
    pub(crate) fn send<M: Send + 'static>(&self, to: NodeId, msg: M) -> Result<bool, NodeEnd> {
        match self.identity.send(to, msg) {
            Ok(()) => Ok(true),
            Err(SendError::SenderDead) => Err(NodeEnd::Killed),
            Err(SendError::Disconnected(_)) => Ok(false),
        }
    }

    /// Put a protocol message on the wire to a peer daemon; `Ok(false)`
    /// if the peer is dead.
    pub(crate) fn transmit(&self, to: Rank, msg: PeerMsg) -> Result<bool, NodeEnd> {
        self.send(
            NodeId::Computing(to),
            DaemonMsg::Peer {
                from: self.rank,
                msg,
            },
        )
    }

    /// Report the finished run and its final counters to the dispatcher
    /// (which may already be gone during teardown). The node keeps
    /// serving the protocol afterwards: peers may still need it.
    pub(crate) fn finalized(
        &self,
        metrics: Metrics,
        timings: ProtocolTimings,
    ) -> Result<(), NodeEnd> {
        let rank = self.rank;
        let msg = DispatcherMsg::Finalized {
            rank,
            metrics,
            timings,
        };
        self.send(NodeId::Dispatcher, msg).map(drop)
    }
}

/// The V2 node core: the protocol engine plus its routing, checkpoint
/// arming and finish state.
pub(crate) struct V2Core {
    engine: V2Engine,
    port: Port,
    route: Routing,
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

/// Build this incarnation's core and hand it to the process: the first
/// pass — over what V2's recovery exchange buffered, RESTART1 included —
/// ends by handing the node over in the same lock hold, so the process's
/// first call sees the core exactly as that pass left it.
fn open(
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
    cfg: &NodeConfig,
    handover: &Handover,
) -> Result<NodeHandle, NodeEnd> {
    let signal = mailbox.signal();
    let port = Port::new(identity, mailbox, cfg.rank);
    let world = cfg.topology.world();
    let mut buffered = Vec::new();
    let (node, restored) = match cfg.protocol {
        RuntimeProtocol::V2 => {
            let (core, restored) = V2Core::open(port, cfg, &mut buffered)?;
            (NodeHandle::new(core, signal), restored)
        }
        RuntimeProtocol::V1 => (NodeHandle::new(V1Core::new(port, world), signal), None),
        RuntimeProtocol::P4 => (NodeHandle::new(P4Core::new(port), signal), None),
    };
    let init = NodeInit {
        size: world,
        restored,
        node: node.clone(),
    };
    node.with(|core| {
        buffered
            .drain(..)
            .try_for_each(|msg| core.on_daemon_msg(msg))?;
        core.ship_pending()?;
        handover.give(init);
        Ok(())
    })?;
    Ok(node)
}

/// The daemon thread: open the node core, then drain the node mailbox
/// into it whenever a push wakes it — while the process computes; a
/// process waiting for an answer is the registered waiter and drains
/// itself — until the incarnation ends. An answer its drain produced
/// for the parked process is rung through directly.
fn daemon_main(
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
    cfg: NodeConfig,
    handover: &Handover,
) -> Result<(), NodeEnd> {
    let node = open(mailbox, identity, &cfg, handover)?;
    loop {
        debug_assert_parkable();
        node.signal
            .wait(Waiter::Daemon)
            .map_err(|_| NodeEnd::Killed)?;
        node.daemon_pass()?;
    }
}

impl V2Core {
    /// This incarnation's core, and the process state it restored. On a
    /// restart: ROLLBACK to the latest image, DownloadEL, and RESTART1
    /// queued for the first drain pass; what else arrives meanwhile is
    /// kept in `buffered` for that pass.
    fn open(
        port: Port,
        cfg: &NodeConfig,
        buffered: &mut Vec<DaemonMsg>,
    ) -> Result<(Self, Option<(Payload, Payload)>), NodeEnd> {
        let (rank, world) = (cfg.rank, cfg.topology.world());
        let route = Routing::new(&cfg.topology, rank);
        let (identity, mailbox) = (&port.identity, &port.mailbox);

        // Fetch the latest image; a dead checkpoint server degrades to a
        // from-scratch restart ("may restart from scratch, at worst").
        let get_latest = CkptPacket {
            from: rank,
            req: CkptRequest::GetLatest { rank },
        };
        let image = match cfg
            .restart
            .then(|| send_service_retrying(identity, route.cs_node, get_latest, 4))
        {
            Some(Ok(())) => {
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
                        })) => break NodeImage::decode_blob(&image).ok(),
                        Ok(DaemonMsg::Ckpt(CkptReply::Image { clock: None, .. })) => break None,
                        Ok(other) => buffered.push(other),
                        Err(RecvError::Timeout) => break None,
                        Err(_) => return Err(NodeEnd::Killed),
                    }
                }
            }
            Some(Err(SendError::SenderDead)) => return Err(NodeEnd::Killed),
            Some(Err(_)) | None => None,
        };
        let mut restored = None;
        let mut engine = match image {
            Some(img) => {
                restored = Some((img.mpi_state, img.app_state));
                V2Engine::restore(img.engine)
            }
            None => V2Engine::fresh(rank, world),
        };
        // Attach the flight recorder before `begin_recovery` so the
        // RESTART1 / recovery-begin records land in the timeline.
        engine.set_recorder(cfg.recorder.clone());
        engine.set_el_replication(route.el_replicas, route.el_quorum);

        if cfg.restart {
            // DownloadEL(H_p): with replication, ask every replica of our
            // shard and union-merge a read quorum of answers — the write
            // quorum that acked each event intersects it, so the merge
            // holds every quorum-acked event even if one replica's copy is
            // stale. Up to R − Q replicas may be dead (mid-revival);
            // unreplicated (R = 1) the EL is the reliable component and a
            // send failure past the retry window means the deployment is
            // broken.
            let after_clock = engine.clock();
            let download = ElPacket {
                from: rank,
                req: ElRequest::Download { rank, after_clock },
            };
            let asked = route
                .el_nodes
                .iter()
                .filter(|el_node| {
                    send_service_retrying(identity, **el_node, download.clone(), 8).is_ok()
                })
                .count() as u32;
            if asked < route.el_quorum {
                return Err(NodeEnd::Killed);
            }
            let mut answered: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
            let mut downloads: Vec<Vec<ReceptionEvent>> = Vec::new();
            while (answered.len() as u32) < route.el_quorum {
                match mailbox.recv_timeout(EL_DOWNLOAD_RETRY) {
                    Ok(DaemonMsg::El {
                        from,
                        reply: ElReply::Events(ev),
                    }) => {
                        if answered.insert(from.replica) {
                            downloads.push(ev);
                        }
                    }
                    Ok(other) => buffered.push(other),
                    // A replica asked may have died with the question in
                    // its mailbox, and its revival never saw it: ask
                    // every replica that has not answered again.
                    Err(RecvError::Timeout) => {
                        for (replica, el_node) in route.el_nodes.iter().enumerate() {
                            if !answered.contains(&(replica as u32)) {
                                let _ = identity.send(*el_node, download.clone());
                            }
                        }
                    }
                    Err(_) => return Err(NodeEnd::Killed),
                }
            }
            engine.begin_recovery(merge_downloads(downloads));
        }
        let core = V2Core {
            engine,
            port,
            route,
            ckpt_armed: None,
            recv_deferred: false,
            finalized: false,
            finish_pending: false,
        };
        Ok((core, restored))
    }
}

impl NodeCore for V2Core {
    // --- the daemon driver: the node mailbox ------------------------------

    fn on_daemon_msg(&mut self, msg: DaemonMsg) -> Result<(), NodeEnd> {
        match msg {
            DaemonMsg::Peer { from, msg } => self.feed(Input::Peer { from, msg })?,
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
                from,
                reply: ElReply::Revived { up_to },
            } => {
                // Only a replica is ever revived (R > 1).
                self.feed(Input::ElReplicaRevived {
                    replica: from.replica,
                    up_to,
                })?;
            }
            DaemonMsg::El {
                reply: ElReply::Events(_),
                ..
            } => { /* stale download reply */ }
            DaemonMsg::Ckpt(CkptReply::Stored { clock, .. }) => {
                self.feed(Input::CheckpointStored)?;
                let _ = self.port.identity.send(
                    self.route.sched_node,
                    SchedMsg::CheckpointDone {
                        rank: self.port.rank,
                        clock,
                    },
                );
            }
            DaemonMsg::Ckpt(CkptReply::Image { .. }) => { /* stale fetch reply */ }
            DaemonMsg::Sched(SchedMsg::StatusRequest) => {
                let m = self.engine.metrics();
                let status = SchedMsg::Status {
                    rank: self.port.rank,
                    logged_bytes: self.engine.logged_bytes(),
                    sent_bytes: m.bytes_sent,
                    recv_bytes: m.bytes_delivered,
                    el_batches: m.el_batches_sent,
                    el_events: m.el_events_batched,
                    el_acks: m.el_acks_received,
                    el_max_batch: m.el_max_batch_events,
                    timings: Box::new(self.engine.timings().summary()),
                };
                let _ = self.port.identity.send(self.route.sched_node, status);
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
                // the parked process's behalf; its answer, if the buffer
                // holds one, waits in the slot like any other.
                self.recv_deferred = false;
                self.feed(Input::AppRecv)?;
                self.pump()?;
            }
            if self.finish_pending {
                self.finish_pending = false;
                self.complete_finish()?;
                self.port.answer(Answer::Done);
            }
        }
        Ok(())
    }

    /// Ship delivered-but-unshipped reception events. Called by whichever
    /// driver is about to leave the node idle — the daemon after its
    /// drain, the process before it parks and when an inline delivery
    /// emptied the receive buffer — so an idle node never sits on
    /// unlogged events, while a backlog being consumed batches up to the
    /// engine's own flush points (a send gating, the size bound). Also
    /// performs what a restart queued (RESTART1) when no message of the
    /// first drain pass did.
    fn ship_pending(&mut self) -> Result<(), NodeEnd> {
        if self.engine.pending_event_count() > 0 {
            self.feed(Input::FlushEvents)?;
        }
        self.pump()
    }

    // --- the process driver: its own channel calls ------------------------

    /// The engine decides between wire and gate; either way the call
    /// returns without waiting.
    fn app_send(&mut self, dst: Rank, bytes: Payload) -> Result<(), NodeEnd> {
        self.feed(Input::AppSend {
            dst,
            payload: bytes,
        })?;
        self.pump()
    }

    /// Answered from the receive buffer or the replay plan when possible.
    ///
    /// A receive made while sends of this process wait behind the gate
    /// stands back until they have left, buffered messages or not: every
    /// delivery moves the watermark the gate waits for, so a process
    /// consuming a backlog between its sends (a forwarder under sustained
    /// inflow) would hold them until the inflow pauses. Standing back
    /// costs no batching — a delivery behind a gated send ships its event
    /// alone anyway — and a forwarder pays per message what a ping-pong
    /// does: one logger round trip, one wake-up.
    fn app_recv(&mut self) -> Result<(), NodeEnd> {
        if self.engine.gated_send_count() > 0 {
            self.recv_deferred = true;
            return Ok(());
        }
        self.feed(Input::AppRecv)?;
        self.pump()?;
        if self.port.answer.is_none() || self.engine.recv_backlog() == 0 {
            self.ship_pending()?;
        }
        Ok(())
    }

    /// Unanswered only during a replay whose logged probe succeeded on a
    /// message not re-sent yet.
    fn app_probe(&mut self) -> Result<(), NodeEnd> {
        self.feed(Input::AppProbe)?;
        self.pump()
    }

    /// Arm an ordered checkpoint if the protocol is quiescent right now.
    /// The process is between two MPI calls and holds the lock, so "now"
    /// is a call boundary by construction.
    fn app_ckpt_poll(&mut self) -> Result<bool, NodeEnd> {
        if self.ckpt_armed.is_none() {
            self.ckpt_armed = self.engine.try_arm_checkpoint();
            // Arming may have force-flushed pending events.
            self.pump()?;
        }
        Ok(self.ckpt_armed.is_some())
    }

    /// Snapshot the engine next to the process's serialized state and
    /// send the image to the checkpoint server.
    fn app_ckpt_commit(&mut self, mpi_state: Payload, app_state: Payload) -> Result<(), NodeEnd> {
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
            &self.port.identity,
            self.route.cs_node,
            CkptPacket {
                from: self.port.rank,
                req: CkptRequest::Put {
                    rank: self.port.rank,
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

    /// Parks while sends of the run still sit behind the gate: the drain
    /// that releases the last of them answers `Done`.
    fn app_finish(&mut self) -> Result<(), NodeEnd> {
        // Ship any still-pending reception events before going into
        // serve-only mode: the event log must cover every delivery the
        // finished run consumed.
        self.feed(Input::FlushEvents)?;
        self.pump()?;
        self.finalized = true;
        if self.engine.gated_send_count() > 0 {
            self.finish_pending = true;
            return Ok(());
        }
        self.complete_finish()?;
        self.port.answer(Answer::Done);
        Ok(())
    }

    fn port(&self) -> &Port {
        &self.port
    }

    fn port_mut(&mut self) -> &mut Port {
        &mut self.port
    }

    fn outputs_pending(&self) -> usize {
        self.engine.outputs_pending()
    }
}

impl V2Core {
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
    /// metrics are final — one gate-wait sample per deferred send.
    fn complete_finish(&mut self) -> Result<(), NodeEnd> {
        let clock = self.engine.clock();
        self.engine
            .recorder()
            .record(clock, mvr_obs::ProtoEvent::Finish { clock });
        self.port
            .finalized(*self.engine.metrics(), self.engine.timings().clone())
    }

    /// Perform every queued engine output; an answer to the MPI process
    /// (a delivery or a probe verdict) goes to the port's slot, whether
    /// the process is calling or parked.
    fn pump(&mut self) -> Result<(), NodeEnd> {
        while let Some(out) = self.engine.pop_output() {
            match out {
                Output::Transmit { to, msg } => {
                    let data_clock = match &msg {
                        PeerMsg::Data(d) => Some(d.id.sender_clock),
                        _ => None,
                    };
                    // Dead peer: the message stays in SAVED; its restart
                    // will pull it via RESTART1. Retract the optimistic
                    // HS advance so no checkpoint records a transmission
                    // that never happened (the restart handshake heals
                    // live state, but a persisted inflated mark would
                    // suppress the healing re-sends after our own
                    // restart).
                    if !self.port.transmit(to, msg)? {
                        if let Some(h) = data_clock {
                            self.engine.on_transmit_dropped(to, h);
                        }
                    }
                }
                Output::LogEvents(batch) => {
                    // Fan the batch out to every replica of our shard; a
                    // write is durable once a quorum *acks* it — the
                    // gate enforces that, so a sub-quorum fan-out (some
                    // replicas dead mid-revival) is tolerable here: the
                    // gate simply stays closed until the revived
                    // replica's catch-up announcement re-acks and has
                    // the engine re-ship it what it lacks. Only a fan-out
                    // that reached no replica at all (R = 1: the one EL
                    // dead past the retry window) breaks the
                    // deployment's reliability assumption; halt.
                    let mut stored = 0u32;
                    let last = self.route.el_nodes.len() - 1;
                    let mut batch = Some(batch);
                    for i in 0..=last {
                        // The last replica takes the batch by move, so
                        // the unreplicated hot path stays clone-free.
                        let b = if i == last {
                            batch.take().expect("batch moved early")
                        } else {
                            batch.as_ref().expect("batch moved early").clone()
                        };
                        if self.log_to(i as u32, b)? {
                            stored += 1;
                        }
                    }
                    if stored == 0 {
                        return Err(NodeEnd::Killed);
                    }
                }
                Output::ReshipEvents { replica, batch } => {
                    self.log_to(replica, batch)?;
                }
                Output::Deliver { from, payload } => {
                    self.port.answer(Answer::Msg { from, payload });
                }
                Output::ProbeAnswer(b) => self.port.answer(Answer::Probe(b)),
                Output::ElTruncate { up_to } => {
                    // Best-effort storage reclamation on every replica.
                    for el_node in &self.route.el_nodes {
                        let _ = self.port.identity.send(
                            *el_node,
                            ElPacket {
                                from: self.port.rank,
                                req: ElRequest::Truncate {
                                    rank: self.port.rank,
                                    up_to,
                                },
                            },
                        );
                    }
                }
                Output::ReplayComplete => {}
            }
        }
        Ok(())
    }

    /// Ship `batch` to `replica` of our shard; `Ok(false)` if it is dead
    /// (mid-revival: its announcement will have the engine re-ship).
    fn log_to(&self, replica: u32, batch: EventBatch) -> Result<bool, NodeEnd> {
        let el_node = self.route.el_nodes[replica as usize];
        let packet = ElPacket {
            from: self.port.rank,
            req: ElRequest::Log(batch),
        };
        match send_service_retrying(&self.port.identity, el_node, packet, 8) {
            Ok(()) => Ok(true),
            Err(SendError::SenderDead) => Err(NodeEnd::Killed),
            Err(SendError::Disconnected(_)) => Ok(false),
        }
    }
}

/// The node core driven by hand, thread-free: a [`Fabric`] whose peer,
/// event-logger, checkpoint-server, Channel Memory and dispatcher slots
/// are plain mailboxes the test reads. Arrivals are queued on the node
/// mailbox; the test plays both drivers — a daemon pass, or a parked
/// process's pass after its wait returned — and the process's `app_*`
/// calls, and every step either returns or leaves a message in a stub;
/// nothing blocks.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::CmPacket;
    use mvr_core::{CmReply, CmRequest, DataMsg, ElAddr, MsgId};

    const ME: Rank = Rank(1);
    const PEER: Rank = Rank(0);

    struct Rig {
        fabric: Fabric,
        node: NodeHandle,
        peer_mb: Mailbox<DaemonMsg>,
        el_mb: Mailbox<ElPacket>,
        cs_mb: Mailbox<CkptPacket>,
        cm_mb: Mailbox<CmPacket>,
        disp_mb: Mailbox<DispatcherMsg>,
    }

    fn topology() -> Topology {
        Topology::new(2, 1, 1).expect("valid topology")
    }

    fn config(protocol: RuntimeProtocol, restart: bool) -> NodeConfig {
        NodeConfig {
            rank: ME,
            topology: topology(),
            protocol,
            restart,
            recorder: mvr_obs::Recorder::disabled(),
        }
    }

    fn rig() -> Rig {
        rig_for(RuntimeProtocol::V2)
    }

    /// A fresh node of `protocol`, opened the way its daemon thread opens
    /// it: the process finds its node handed over without having asked.
    fn rig_for(protocol: RuntimeProtocol) -> Rig {
        let fabric = Fabric::new();
        let slots = register_node(&fabric, ME);
        let (peer_mb, _) = fabric.register(NodeId::Computing(PEER));
        let (el_mb, _) = fabric.register(NodeId::EventLogger(0));
        let (cs_mb, _) = fabric.register(NodeId::CheckpointServer(0));
        let (cm_mb, _) = fabric.register(NodeId::ChannelMemory(0));
        let (disp_mb, _) = fabric.register(NodeId::Dispatcher);
        let handover = Handover::new(slots.mailbox.signal());
        let node = open(
            slots.mailbox,
            slots.identity,
            &config(protocol, false),
            &handover,
        )
        .expect("node opens");
        let init = handover.init.lock().take();
        assert!(
            matches!(
                init,
                Some(NodeInit {
                    size: 2,
                    restored: None,
                    ..
                })
            ),
            "{protocol:?}: the node is handed over unasked"
        );
        Rig {
            fabric,
            node,
            peer_mb,
            el_mb,
            cs_mb,
            cm_mb,
            disp_mb,
        }
    }

    fn body(h: u64) -> Payload {
        Payload::from_vec(h.to_le_bytes().to_vec())
    }

    fn drained<M>(mb: &Mailbox<M>) -> Vec<M> {
        std::iter::from_fn(|| mb.try_recv().expect("stub alive")).collect()
    }

    fn data_msg(h: u64) -> DataMsg {
        DataMsg {
            id: MsgId::new(PEER, h),
            dst: ME,
            payload: body(h),
        }
    }

    fn delivery(answer: Answer) -> (Rank, Payload) {
        match answer {
            Answer::Msg { from, payload } => (from, payload),
            other => panic!("a receive answered with {other:?}"),
        }
    }

    impl Rig {
        /// Queue `msgs` on the node mailbox, in order.
        fn arrive(&self, msgs: Vec<DaemonMsg>) {
            for msg in msgs {
                self.fabric
                    .send_from_reliable(NodeId::Computing(ME), msg)
                    .expect("node alive");
            }
        }

        /// Queue `msgs`, then one pass of the daemon thread's loop.
        fn daemon_drain(&self, msgs: Vec<DaemonMsg>) {
            self.arrive(msgs);
            self.node.daemon_pass().expect("node alive");
        }

        fn data(h: u64) -> DaemonMsg {
            DaemonMsg::Peer {
                from: PEER,
                msg: PeerMsg::Data(data_msg(h)),
            }
        }

        fn ack_msg(up_to: u64) -> DaemonMsg {
            DaemonMsg::El {
                from: ElAddr {
                    shard: 0,
                    replica: 0,
                },
                reply: ElReply::Ack { up_to },
            }
        }

        /// Make a call that can wait; its answer if made on the spot.
        fn call(&self, f: impl FnOnce(&mut dyn NodeCore) -> Result<(), NodeEnd>) -> Option<Answer> {
            self.node
                .with(|core| {
                    f(core)?;
                    Ok(core.port_mut().answer.take())
                })
                .expect("node alive")
        }

        /// A receive: `Some` when answered inline.
        fn recv(&self) -> Option<(Rank, Payload)> {
            self.call(|c| c.app_recv()).map(delivery)
        }

        /// A probe: `Some` verdict when answered inline.
        fn probe(&self) -> Option<bool> {
            self.call(|c| c.app_probe()).map(|answer| match answer {
                Answer::Probe(pending) => pending,
                other => panic!("a probe answered with {other:?}"),
            })
        }

        /// A finish: whether it completed inline.
        fn finish(&self) -> bool {
            match self.call(|c| c.app_finish()) {
                Some(Answer::Done) => true,
                None => false,
                Some(other) => panic!("a finish answered with {other:?}"),
            }
        }

        /// The process's wait, played by hand: it is the registered waiter
        /// and a message is queued for it, so the wait returns at once;
        /// then its own drain pass.
        fn process_drain(&self) -> Option<Answer> {
            self.node.signal.register(Waiter::Process);
            let _hand_back = HandBack(&self.node.signal);
            self.node.signal.wait(Waiter::Process).expect("node alive");
            self.node.process_pass().expect("node alive")
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

        /// What the event logger would answer for everything up to
        /// `up_to`, drained by the daemon.
        fn ack(&self, up_to: u64) {
            self.daemon_drain(vec![Rig::ack_msg(up_to)]);
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

        /// The answer a daemon pass left for the parked process (and rang
        /// it for), as deliveries: at most one.
        fn woken(&self) -> Vec<(Rank, Payload)> {
            self.left_answer().map(delivery).into_iter().collect()
        }

        fn left_answer(&self) -> Option<Answer> {
            self.node
                .with(|core| Ok(core.port_mut().answer.take()))
                .expect("node alive")
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
            r.left_answer().is_none(),
            "an inline receive leaves nothing behind"
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
        assert!(r.left_answer().is_none());
        // Two arrivals in one daemon drain: the first answers the parked
        // receive through the slot, the second waits in the buffer.
        r.daemon_drain(vec![Rig::data(1), Rig::data(2)]);
        assert_eq!(
            r.woken(),
            [(PEER, body(1))],
            "exactly one answer, carrying the first arrival"
        );
        assert_eq!(r.logged().len(), 1, "the daemon ships after its drain");
        // The second is taken inline — and only inline.
        assert_eq!(r.recv(), Some((PEER, body(2))));
        assert!(r.left_answer().is_none());
        // The same for a probe: answered on the spot.
        assert_eq!(r.probe(), Some(false));
        r.daemon_drain(vec![Rig::data(3)]);
        assert_eq!(r.probe(), Some(true));
        assert!(r.left_answer().is_none());
    }

    #[test]
    fn a_parked_receive_answered_by_the_process_s_own_drain_crosses_no_fabric_send() {
        let r = rig();
        assert_eq!(r.recv(), None);
        r.arrive(vec![Rig::data(1)]);
        let answer = r.process_drain().map(delivery);
        assert_eq!(answer, Some((PEER, body(1))), "taken from the slot");
        // The only send the drain made is the reception event's batch —
        // "whoever is about to leave the node idle ships".
        assert_eq!(r.logged().len(), 1);
        assert!(r.wire().is_empty());
        assert!(drained(&r.cs_mb).is_empty());
        assert!(drained(&r.cm_mb).is_empty());
        assert!(drained(&r.disp_mb).is_empty());
        assert!(r.left_answer().is_none(), "nothing left for anyone");
    }

    #[test]
    fn two_arrivals_in_one_process_drain_leave_the_second_for_an_inline_receive() {
        let r = rig();
        assert_eq!(r.recv(), None);
        r.arrive(vec![Rig::data(1), Rig::data(2)]);
        assert_eq!(r.process_drain().map(delivery), Some((PEER, body(1))));
        assert_eq!(r.recv(), Some((PEER, body(2))), "buffered by the drain");
        assert!(r.left_answer().is_none());
        let clocks: Vec<u64> = r
            .logged()
            .iter()
            .flatten()
            .map(|e| e.receiver_clock)
            .collect();
        assert_eq!(clocks, [1, 2], "each delivery logged once, in order");
    }

    #[test]
    fn an_ack_drained_by_the_process_releases_the_gated_send_before_the_deferred_receive() {
        let r = rig();
        r.daemon_drain(vec![Rig::data(1)]);
        assert_eq!(r.recv(), Some((PEER, body(1))));
        assert_eq!(r.logged().len(), 1);
        r.node.with(|c| c.app_send(PEER, body(101))).unwrap();
        assert!(r.wire().is_empty(), "gated on event 1's ack");
        assert_eq!(r.recv(), None, "the receive stands back for the gate");
        // The next message and the ack arrive while the process waits.
        r.arrive(vec![Rig::data(2), Rig::ack_msg(1)]);
        let answer = r.process_drain().map(delivery);
        assert_eq!(r.wire(), [2], "the gated send left");
        assert_eq!(answer, Some((PEER, body(2))), "then the receive was made");
        // Its reception event is stamped after the send: clock 1 was the
        // first delivery, 2 the send, 3 this delivery.
        let clocks: Vec<u64> = r
            .logged()
            .iter()
            .flatten()
            .map(|e| e.receiver_clock)
            .collect();
        assert_eq!(clocks, [3]);
    }

    #[test]
    fn a_kill_wakes_a_process_parked_on_the_node_mailbox() {
        let r = rig();
        assert_eq!(r.recv(), None);
        r.node.signal.register(Waiter::Process);
        let _hand_back = HandBack(&r.node.signal);
        r.fabric.kill_group(&mvr_net::fail_stop_group(ME));
        assert!(
            r.node.signal.wait(Waiter::Process).is_err(),
            "the kill wakes the parked process, with nothing queued"
        );
        assert!(matches!(r.node.process_pass(), Err(NodeEnd::Killed)));
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
        assert!(r.left_answer().is_none());
        // The ack releases the forward first, then makes the receive.
        r.ack(1);
        assert_eq!(r.wire(), [2], "forwarded with 6 messages still buffered");
        assert_eq!(
            r.woken(),
            [(PEER, body(2))],
            "exactly one answer, carrying the next message"
        );
        // With nothing gated the backlog is taken inline again.
        r.ack(3);
        assert_eq!(r.recv(), Some((PEER, body(3))));
        assert!(r.left_answer().is_none());
    }

    #[test]
    fn finish_completes_only_after_gated_sends_drain() {
        let r = rig();
        r.daemon_drain(vec![Rig::data(1)]);
        assert!(r.recv().is_some());
        r.node.with(|c| c.app_send(PEER, body(7))).unwrap();
        assert!(
            !r.finish(),
            "a send of the run is still gated: the process must park"
        );
        assert!(drained(&r.disp_mb).is_empty());
        assert!(r.left_answer().is_none());
        r.ack(1);
        assert_eq!(r.wire(), [2]);
        assert_eq!(drained(&r.disp_mb).len(), 1, "finalized once");
        assert!(matches!(r.left_answer(), Some(Answer::Done)));
    }

    #[test]
    fn every_protocol_finishes_inline_when_nothing_is_gated() {
        for protocol in [
            RuntimeProtocol::V2,
            RuntimeProtocol::V1,
            RuntimeProtocol::P4,
        ] {
            let r = rig_for(protocol);
            assert!(r.finish(), "{protocol:?}");
            assert!(
                matches!(
                    &drained(&r.disp_mb)[..],
                    [DispatcherMsg::Finalized { rank: ME, .. }]
                ),
                "{protocol:?}: finalized once"
            );
            assert!(r.left_answer().is_none(), "{protocol:?}: no second `Done`");
        }
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
    fn an_eager_frame_is_one_buffer_from_send_through_log_and_wire_to_receive() {
        use mvr_mpi::wire::{encode_eager, Context, MpiFrame};
        let r = rig();
        // Sent: the frame the MPI layer built is what the fabric delivers.
        let frame = encode_eager(Context::PointToPoint, 7, &[5; 100]);
        r.node.with(|c| c.app_send(PEER, frame.clone())).unwrap();
        let delivered: Vec<Payload> = drained(&r.peer_mb)
            .into_iter()
            .filter_map(|m| match m {
                DaemonMsg::Peer {
                    msg: PeerMsg::Data(d),
                    ..
                } => Some(d.payload),
                _ => None,
            })
            .collect();
        let [wire] = &delivered[..] else {
            panic!("one data message expected, got {delivered:?}");
        };
        assert_eq!(wire.as_ptr(), frame.as_ptr(), "no copy onto the wire");
        // Logged: the sender-log entry is that same buffer (seen through
        // the checkpoint image, which shares it too).
        r.daemon_drain(vec![DaemonMsg::Sched(SchedMsg::CheckpointOrder)]);
        assert!(r.node.with(|c| c.app_ckpt_poll()).unwrap());
        r.node
            .with(|c| c.app_ckpt_commit(body(1), body(2)))
            .unwrap();
        let image = match &drained(&r.cs_mb)[..] {
            [CkptPacket {
                req: CkptRequest::Put { image, .. },
                ..
            }] => NodeImage::decode_blob(image).expect("image decodes"),
            other => panic!("expected one image upload, got {other:?}"),
        };
        let saved = image.engine.saved.get(PEER, 1).expect("logged");
        assert_eq!(saved.as_ptr(), frame.as_ptr(), "the log holds the frame");
        assert_eq!(saved.len(), frame.len());
        // Received: the body the receive hands the MPI layer decodes as a
        // view into the frame the fabric delivered.
        let mut data = data_msg(1);
        data.payload = frame.clone();
        r.daemon_drain(vec![DaemonMsg::Peer {
            from: PEER,
            msg: PeerMsg::Data(data),
        }]);
        let (_, got) = r.recv().expect("received inline");
        assert_eq!(got.as_ptr(), frame.as_ptr());
        let MpiFrame::Eager { body, .. } = MpiFrame::decode(&got).unwrap() else {
            panic!("an eager frame");
        };
        assert_eq!(&body[..], &[5; 100][..]);
        assert_eq!(
            body.as_ptr(),
            got[got.len() - 100..].as_ptr(),
            "no copy out"
        );
    }

    #[test]
    fn a_restarted_core_hands_over_its_restored_state_only_after_restart1() {
        let fabric = Fabric::new();
        let slots = register_node(&fabric, ME);
        let handover = Handover::new(slots.mailbox.signal());
        let (_cs_mb, _) = fabric.register::<CkptPacket>(NodeId::CheckpointServer(0));
        let (_el_mb, services) = fabric.register::<ElPacket>(NodeId::EventLogger(0));
        // RESTART1 must leave before the process can see its node.
        let restart1_sent = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (sent, h) = (restart1_sent.clone(), handover.clone());
        fabric.register_sink(NodeId::Computing(PEER), move |m: DaemonMsg| {
            if let DaemonMsg::Peer {
                msg: PeerMsg::Restart1 { .. },
                ..
            } = m
            {
                assert!(h.init.lock().is_none(), "handed over before RESTART1");
                sent.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        });
        // The services' answers, queued on one lane so the recovery
        // exchange meets them in the order it asks.
        let image = NodeImage {
            engine: V2Engine::fresh(ME, 2).snapshot(),
            mpi_state: body(1),
            app_state: body(2),
        };
        for reply in [
            DaemonMsg::Ckpt(CkptReply::Image {
                clock: Some(0),
                image: image.encode_blob(),
            }),
            DaemonMsg::El {
                from: ElAddr {
                    shard: 0,
                    replica: 0,
                },
                reply: ElReply::Events(Vec::new()),
            },
        ] {
            services.send(NodeId::Computing(ME), reply).unwrap();
        }
        open(
            slots.mailbox,
            slots.identity,
            &config(RuntimeProtocol::V2, true),
            &handover,
        )
        .expect("recovers");
        assert!(restart1_sent.load(std::sync::atomic::Ordering::SeqCst));
        let init = handover.take().expect("handed over");
        assert_eq!(
            init.restored,
            Some((body(1), body(2))),
            "the image's process state"
        );
    }

    #[test]
    fn p4_takes_a_backlog_inline_in_arrival_order_without_a_reply() {
        let r = rig_for(RuntimeProtocol::P4);
        r.daemon_drain((1..=64).map(Rig::data).collect());
        for h in 1..=64 {
            assert_eq!(r.recv(), Some((PEER, body(h))));
        }
        assert!(r.left_answer().is_none(), "no answer left behind");
        r.node.with(|c| c.app_send(PEER, body(9))).unwrap();
        assert_eq!(r.wire(), [1], "a send goes straight to the wire");
    }

    #[test]
    fn p4_parks_a_receive_on_an_empty_buffer_and_answers_probes_inline() {
        let r = rig_for(RuntimeProtocol::P4);
        assert_eq!(r.recv(), None, "nothing buffered: the wait is registered");
        // The parked process drains the arrival itself.
        r.arrive(vec![Rig::data(1), Rig::data(2)]);
        assert_eq!(r.process_drain().map(delivery), Some((PEER, body(1))));
        assert_eq!(r.recv(), Some((PEER, body(2))));
        assert_eq!(r.probe(), Some(false));
        r.daemon_drain(vec![Rig::data(3)]);
        assert_eq!(r.probe(), Some(true));
        assert!(r.left_answer().is_none());
    }

    #[test]
    fn v1_receives_through_its_channel_memory_and_drops_stale_answers() {
        let r = rig_for(RuntimeProtocol::V1);
        let cm_msg = |seq: u64, h: u64| {
            DaemonMsg::Cm(CmReply::Msg {
                seq,
                msg: data_msg(h),
            })
        };
        assert_eq!(r.recv(), None, "a V1 receive always waits on the CM");
        let pulls = drained(&r.cm_mb);
        assert!(
            matches!(
                &pulls[..],
                [CmPacket {
                    owner: ME,
                    from: ME,
                    req: CmRequest::Pull { seq: 0 }
                }]
            ),
            "exactly one pull, of reception 0: {pulls:?}"
        );
        // An answer to a previous incarnation's pull crossing the restart.
        r.daemon_drain(vec![cm_msg(5, 5)]);
        assert!(r.left_answer().is_none(), "stale answer dropped");
        r.daemon_drain(vec![cm_msg(0, 1)]);
        assert_eq!(r.woken(), [(PEER, body(1))], "exactly one answer");
        // A send is pushed to the destination's Channel Memory.
        r.node.with(|c| c.app_send(PEER, body(9))).unwrap();
        let pushes = drained(&r.cm_mb);
        assert!(
            matches!(
                &pushes[..],
                [CmPacket {
                    owner: PEER,
                    req: CmRequest::Push(_),
                    ..
                }]
            ),
            "{pushes:?}"
        );
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
