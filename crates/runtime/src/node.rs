//! A computing node: the communication daemon thread (hosting the
//! [`V2Engine`]) and the MPI-process thread (running the user
//! application), connected by the process↔daemon mailbox pair.
//!
//! Mirrors §4.4: "the MPI process does not connect directly to all the
//! other computing nodes. This is the job of a communication daemon
//! running on the same machine"; and §4.6.1 for the checkpoint handshake
//! (the daemon triggers, the process supplies its image at a quiescent
//! point — our cooperative substitution for Condor).

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
                    match end {
                        Ok(Err(DaemonEnd::ReplayDivergence(err))) => {
                            let detail = format!("replay divergence: {err}");
                            obs.record(
                                0,
                                mvr_obs::ProtoEvent::Divergence {
                                    detail: detail.clone(),
                                },
                            );
                            let _ = daemon_exit_tx.send(NodeExit {
                                rank,
                                outcome: Outcome::Failed(detail),
                            });
                        }
                        Ok(_) => {}
                        Err(panic) => {
                            let what = panic
                                .downcast_ref::<String>()
                                .map(String::as_str)
                                .or_else(|| panic.downcast_ref::<&str>().copied())
                                .unwrap_or("opaque panic payload");
                            let detail = format!("daemon panicked: {what}");
                            obs.record(
                                0,
                                mvr_obs::ProtoEvent::Divergence {
                                    detail: detail.clone(),
                                },
                            );
                            let _ = daemon_exit_tx.send(NodeExit {
                                rank,
                                outcome: Outcome::Failed(detail),
                            });
                        }
                    }
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
            let result: MpiResult<Payload> = (|| {
                let (mut mpi, restored) = Mpi::init(chan)?;
                let out = app.run(&mut mpi, restored)?;
                mpi.finalize()?;
                Ok(out)
            })();
            let outcome = match result {
                Ok(p) => Outcome::Finished(p),
                Err(MpiError::Killed) => Outcome::Killed,
                Err(e) => Outcome::Failed(e.to_string()),
            };
            // The dispatcher may already be gone during teardown.
            let _ = exit_tx.send(NodeExit { rank, outcome });
        })
        .expect("spawn MPI process thread");

    vec![daemon, process]
}

/// Errors that terminate a daemon.
#[derive(Debug)]
enum DaemonEnd {
    /// The incarnation was killed (mailbox closed / identity stale).
    Killed,
    /// The application violated piecewise determinism during a replay —
    /// a bug in the application or the protocol, reported to the
    /// dispatcher as a run failure.
    ReplayDivergence(String),
}

struct Daemon {
    engine: V2Engine,
    identity: Identity,
    rank: Rank,
    /// Every replica of this rank's event-logger shard, flat-indexed by
    /// replica (§4.5: a daemon talks to exactly one shard).
    el_nodes: Vec<NodeId>,
    /// Replica acks needed before shipped events count as durable.
    /// Replication factor (1 = the unreplicated single-EL deployment).
    el_replicas: u32,
    cs_node: NodeId,
    sched_node: NodeId,
    /// Restored process state to hand out at `Init`.
    restored_mpi: Option<Payload>,
    restored_app: Option<Payload>,
    /// `TakeCheckpoint` emitted; waiting for the process to reach a site.
    ckpt_armed: Option<u64>,
    /// The process finalized (we only serve the protocol from now on).
    finalized: bool,
    /// The process is blocked in `finalize` while sends of its run still
    /// sit behind the pessimism gate.
    finish_pending: bool,
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

fn daemon_main(
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
    cfg: NodeConfig,
) -> Result<(), DaemonEnd> {
    let rank = cfg.rank;
    let topology = cfg.topology;
    let (el_replicas, el_quorum) = (topology.el_replicas(), topology.quorum());
    let el_nodes: Vec<NodeId> = topology.replicas_of(topology.shard_of(rank)).collect();
    let cs_node = NodeId::CheckpointServer(0);
    let sched_node = NodeId::CheckpointScheduler;

    // ---- startup / recovery (ROLLBACK + DownloadEL + RESTART1) ----
    let mut buffered: Vec<DaemonMsg> = Vec::new();
    let mut restored_mpi = None;
    let mut restored_app = None;

    let engine = if cfg.restart {
        // Fetch the latest image; a dead checkpoint server degrades to a
        // from-scratch restart ("may restart from scratch, at worst").
        let image: Option<NodeImage> = match send_service_retrying(
            &identity,
            cs_node,
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
                        Err(_) => return Err(DaemonEnd::Killed),
                    }
                }
            }
            Err(SendError::SenderDead) => return Err(DaemonEnd::Killed),
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
        for el_node in &el_nodes {
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
            return Err(DaemonEnd::Killed);
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
                Err(_) => return Err(DaemonEnd::Killed),
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

    let mut d = Daemon {
        engine,
        identity,
        rank,
        el_nodes,
        el_replicas,
        cs_node,
        sched_node,
        restored_mpi,
        restored_app,
        ckpt_armed: None,
        finalized: false,
        finish_pending: false,
    };

    // Emit the RESTART1 broadcast (and any immediate outputs).
    d.pump_outputs()?;
    for msg in buffered {
        d.handle(msg)?;
    }

    // ---- main select loop ----
    // `recv_many` blocks for the first message, then drains the backlog
    // in one batched pass — one wakeup amortizes across a burst. Under a
    // lazy policy the events of a burst of deliveries ship as one batch,
    // and an idle daemon never sits on unlogged events (the latency
    // bound of the lazy-flush protocol — see DESIGN.md).
    let mut batch: Vec<DaemonMsg> = Vec::with_capacity(DAEMON_DRAIN_BATCH);
    loop {
        mailbox
            .recv_many(&mut batch, DAEMON_DRAIN_BATCH)
            .map_err(|_| DaemonEnd::Killed)?;
        for msg in batch.drain(..) {
            d.handle(msg)?;
        }
        if d.engine.pending_event_count() > 0 {
            d.engine
                .handle(Input::FlushEvents)
                .expect("flush cannot diverge");
            d.pump_outputs()?;
        }
    }
}

impl Daemon {
    fn handle(&mut self, msg: DaemonMsg) -> Result<(), DaemonEnd> {
        match msg {
            DaemonMsg::Peer { from, msg } => {
                self.engine
                    .handle(Input::Peer { from, msg })
                    .map_err(|e| DaemonEnd::ReplayDivergence(e.to_string()))?;
            }
            DaemonMsg::Proc(req) => self.handle_proc(req)?,
            DaemonMsg::El {
                from,
                reply: ElReply::Ack { up_to },
            } => {
                // Replicated: per-replica acks feed the engine's quorum
                // tracker; the gate only opens on the quorum watermark.
                // Unreplicated: byte-identical to the single-ack path.
                let input = if self.el_replicas > 1 {
                    Input::ElReplicaAck {
                        replica: from.replica,
                        up_to,
                    }
                } else {
                    Input::ElAck { up_to }
                };
                self.engine.handle(input).expect("ack cannot diverge");
            }
            DaemonMsg::El {
                reply: ElReply::Events(_),
                ..
            } => { /* stale download reply */ }
            DaemonMsg::Ckpt(CkptReply::Stored { clock, .. }) => {
                self.engine
                    .handle(Input::CheckpointStored)
                    .expect("store ack cannot diverge");
                let _ = self.identity.send(
                    self.sched_node,
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
                let _ = self.identity.send(self.sched_node, status);
            }
            DaemonMsg::Sched(SchedMsg::CheckpointOrder) => {
                if !self.finalized {
                    self.engine
                        .handle(Input::CheckpointOrder)
                        .expect("order cannot diverge");
                }
            }
            DaemonMsg::Sched(_) => {}
            DaemonMsg::Cm(_) => { /* V1-only traffic; ignore under V2 */ }
        }
        self.pump_outputs()?;
        if self.finish_pending && self.engine.gated_send_count() == 0 {
            self.finish()?;
        }
        Ok(())
    }

    /// Complete the process's `finalize`: every send of its run has left
    /// the gate, so the final metrics are final — one gate-wait sample
    /// per deferred send — and the process may return.
    fn finish(&mut self) -> Result<(), DaemonEnd> {
        self.finish_pending = false;
        let clock = self.engine.clock();
        self.engine
            .recorder()
            .record(clock, mvr_obs::ProtoEvent::Finish { clock });
        let _ = self.identity.send(
            NodeId::Dispatcher,
            DispatcherMsg::Finalized {
                rank: self.rank,
                metrics: *self.engine.metrics(),
                timings: self.engine.timings().clone(),
            },
        );
        // Keep serving the protocol afterwards: peers may still need our
        // sender log for their recovery.
        self.to_proc(ProcReply::Done)
    }

    fn handle_proc(&mut self, req: ProcRequest) -> Result<(), DaemonEnd> {
        match req {
            ProcRequest::Init => {
                let reply = ProcReply::InitOk {
                    rank: self.rank,
                    size: self.engine.world(),
                    restored_mpi_state: self.restored_mpi.take(),
                    restored_app_state: self.restored_app.take(),
                };
                self.to_proc(reply)?;
            }
            ProcRequest::Bsend { dst, bytes } => {
                self.engine
                    .handle(Input::AppSend {
                        dst,
                        payload: bytes,
                    })
                    .map_err(|e| DaemonEnd::ReplayDivergence(e.to_string()))?;
            }
            ProcRequest::Brecv => {
                self.engine
                    .handle(Input::AppRecv)
                    .map_err(|e| DaemonEnd::ReplayDivergence(e.to_string()))?;
            }
            ProcRequest::Nprobe => {
                self.engine
                    .handle(Input::AppProbe)
                    .map_err(|e| DaemonEnd::ReplayDivergence(e.to_string()))?;
            }
            ProcRequest::CkptPoll => {
                if self.ckpt_armed.is_none() {
                    if let Some(clock) = self.engine.try_arm_checkpoint() {
                        self.ckpt_armed = Some(clock);
                    }
                }
                self.to_proc(ProcReply::CkptPending(self.ckpt_armed.is_some()))?;
            }
            ProcRequest::CkptCommit {
                mpi_state,
                app_state,
            } => {
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
                // Best-effort with a short retry: a CS mid-relaunch gets
                // a second chance; a lost image only costs replay depth.
                let _ = send_service_retrying(
                    &self.identity,
                    self.cs_node,
                    CkptPacket {
                        from: self.rank,
                        req: CkptRequest::Put {
                            rank: self.rank,
                            clock,
                            // Zero-copy: segments alias the sender log's
                            // own buffers; nothing is serialized here.
                            image: image.encode_blob(),
                        },
                    },
                    3,
                );
                // The transfer is "overlapped": the process continues
                // immediately; durability is acked to the engine later.
                self.to_proc(ProcReply::CkptCommitted)?;
            }
            ProcRequest::Finish => {
                // Ship any still-pending reception events before going
                // into serve-only mode: the event log must cover every
                // delivery the finished run consumed.
                self.engine
                    .handle(Input::FlushEvents)
                    .expect("flush cannot diverge");
                self.finalized = true;
                // `handle` completes the finish once no send of the run
                // is left behind the gate.
                self.finish_pending = true;
            }
        }
        Ok(())
    }

    fn to_proc(&self, reply: ProcReply) -> Result<(), DaemonEnd> {
        match self.identity.send(NodeId::Process(self.rank), reply) {
            Ok(()) => Ok(()),
            // The process died with us (kill) — unwind.
            Err(SendError::SenderDead) => Err(DaemonEnd::Killed),
            // Process gone but we are alive: teardown race; keep serving.
            Err(SendError::Disconnected(_)) => {
                if self.engine.recorder().trace_stderr() {
                    eprintln!("[dmn r{}] DROP proc reply (process slot dead)", self.rank.0);
                }
                Ok(())
            }
        }
    }

    fn pump_outputs(&mut self) -> Result<(), DaemonEnd> {
        for out in self.engine.drain_outputs() {
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
                        Err(SendError::SenderDead) => return Err(DaemonEnd::Killed),
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
                    let last = self.el_nodes.len() - 1;
                    let mut batch = Some(batch);
                    for (i, el_node) in self.el_nodes.iter().enumerate() {
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
                            Err(SendError::SenderDead) => return Err(DaemonEnd::Killed),
                            // A dead replica mid-revival: the quorum
                            // below decides whether we can proceed.
                            Err(SendError::Disconnected(_)) => {}
                        }
                    }
                    if stored == 0 {
                        return Err(DaemonEnd::Killed);
                    }
                }
                Output::Deliver { from, payload } => {
                    self.to_proc(ProcReply::Msg { from, payload })?;
                }
                Output::ProbeAnswer(b) => self.to_proc(ProcReply::Probe(b))?,
                Output::ElTruncate { up_to } => {
                    // Best-effort storage reclamation on every replica.
                    for el_node in &self.el_nodes {
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
        Ok(())
    }
}
