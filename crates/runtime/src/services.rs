//! The auxiliary service threads of a deployment: event loggers, the
//! checkpoint server and the checkpoint scheduler (Fig. 3), and the V1
//! baseline's Channel Memories.
//!
//! Every service thread starts through [`spawn_service`]: a panic in a
//! service is reported to the supervisor as [`Outcome::Failed`], the way
//! a node thread reports one, so a bug fails the run at once instead of
//! stranding it until its timeout.

use crate::baseline::CmPacket;
use crate::deploy::Topology;
use crate::messages::DaemonMsg;
use crate::node::{panic_detail, NodeExit, Outcome};
use mvr_ckpt::{CheckpointStore, CkptPacket, NodeStatus, Policy, Scheduler};
use mvr_core::baseline::v1::ChannelMemory;
use mvr_core::{CmReply, NodeId, Rank, SchedMsg};
use mvr_eventlog::{ElPacket, EventLogStore};
use mvr_net::{Fabric, Identity, Mailbox, RecvError};
use parking_lot::Mutex;
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Spawn service `node`'s thread, named `name`, running `body`. A panic
/// in `body` is caught and sent on `failures` as `Outcome::Failed`: a dead
/// service leaves its fabric slot registered with nobody draining it, so
/// without the report its peers would wait for answers until the run
/// times out.
pub fn spawn_service(
    name: String,
    node: NodeId,
    failures: &mpsc::Sender<NodeExit>,
    body: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    let failures = failures.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                let detail = format!("{node} panicked: {}", panic_detail(panic.as_ref()));
                // The supervisor may already be gone during teardown.
                let _ = failures.send(NodeExit {
                    node,
                    outcome: Outcome::Failed(detail),
                });
            }
        })
        .unwrap_or_else(|e| panic!("spawn {node}: {e}"))
}

/// A reviving replica's catch-up, on both backends: absorb the ledger of
/// EVERY live same-shard sibling into its own before it serves again,
/// stopping once all `siblings` have answered (or `snapshots` ends, at
/// a deadline over sockets), and return the events it holds afterwards.
/// One donor is not enough: with overlapping EL crash windows the
/// siblings may hold different subsets, and an ack watermark computed
/// over a ledger with holes would falsely claim the missing events
/// durable. The union over all live siblings is hole-free whenever at
/// most R − Q replicas are down at once (any event's write set of ≥ Q
/// intersects the ≥ Q live ones).
pub fn absorb_siblings(
    store: &mut EventLogStore,
    siblings: usize,
    snapshots: impl Iterator<Item = EventLogStore>,
) -> u64 {
    for snap in snapshots.take(siblings) {
        store.absorb(&snap);
    }
    store.total_logged()
}

/// Spawn event-logger replica `flat` of `topology` on a shared ledger. The ledger [`EventLogStore`] outlives the service thread —
/// the dispatcher keeps the `Arc` so a killed replica's events survive
/// its thread, and a revival absorbs a live peer's ledger into the same
/// store before respawning on it. Replies are stamped with the replica's
/// address so daemons can attribute acks to replicas for quorum
/// accounting.
pub fn spawn_el_replica(
    fabric: &Fabric,
    topology: Topology,
    flat: u32,
    counter: Arc<AtomicU64>,
    store: Arc<Mutex<EventLogStore>>,
    failures: &mpsc::Sender<NodeExit>,
) -> JoinHandle<()> {
    let seat = fabric.register::<ElPacket>(NodeId::EventLogger(flat));
    serve_el_replica(seat, topology, flat, counter, store, failures)
}

/// [`spawn_el_replica`] on a mailbox registered earlier: a replica that
/// peers can reach before it is ready to answer (a process announces its
/// address, then catches up from a sibling) registers first, so their
/// requests wait in the mailbox instead of being dropped, and serves
/// once it is caught up.
pub fn serve_el_replica(
    (mb, identity): (Mailbox<ElPacket>, Identity),
    topology: Topology,
    flat: u32,
    counter: Arc<AtomicU64>,
    store: Arc<Mutex<EventLogStore>>,
    failures: &mpsc::Sender<NodeExit>,
) -> JoinHandle<()> {
    let addr = topology.el_addr(flat);
    // Unreplicated deployments keep the historical thread names.
    let name = if topology.el_replicas() == 1 {
        format!("el-{}", addr.shard)
    } else {
        addr.to_string()
    };
    spawn_service(name, NodeId::EventLogger(flat), failures, move || {
        let _ = mvr_eventlog::run_event_logger_on(
            mb,
            move |rank, reply| {
                identity
                    .send(NodeId::Computing(rank), DaemonMsg::El { from: addr, reply })
                    .is_ok()
            },
            counter,
            store,
        );
    })
}

/// Spawn every event-logger replica of `topology`, flat-indexed. The
/// second return value holds one live counter per replica exposing its
/// cumulative *unique*-event count — the conservation tests fold these
/// into the merged cluster view ([`mvr_eventlog::merged_unique_events`]) to
/// check that crash recovery never double-logged a logical delivery.
/// The third holds each replica's shared ledger for crash-surviving
/// revival.
#[allow(clippy::type_complexity)]
pub fn spawn_event_loggers(
    fabric: &Fabric,
    topology: Topology,
    failures: &mpsc::Sender<NodeExit>,
) -> (
    Vec<JoinHandle<()>>,
    Vec<Arc<AtomicU64>>,
    Vec<Arc<Mutex<EventLogStore>>>,
) {
    let total = topology.el_total() as usize;
    let counters: Vec<Arc<AtomicU64>> = (0..total).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let stores: Vec<Arc<Mutex<EventLogStore>>> = (0..total)
        .map(|_| Arc::new(Mutex::new(EventLogStore::new())))
        .collect();
    let handles = (0..total as u32)
        .map(|flat| {
            spawn_el_replica(
                fabric,
                topology,
                flat,
                counters[flat as usize].clone(),
                stores[flat as usize].clone(),
                failures,
            )
        })
        .collect();
    (handles, counters, stores)
}

/// Spawn the checkpoint server serving a shared store — the *stable
/// storage* that survives crashes of the server process itself. The
/// dispatcher passes the same store to every CS incarnation, so images
/// acked before a crash are served after the relaunch (and event-log
/// truncation against those images stays sound; see §4.3 notes in
/// `mvr_ckpt::service`). Incarnations serialize on the store lock: a
/// relaunch blocks until the killed predecessor has drained out.
pub fn spawn_checkpoint_server_on(
    fabric: &Fabric,
    store: Arc<Mutex<CheckpointStore>>,
    failures: &mpsc::Sender<NodeExit>,
) -> JoinHandle<()> {
    let node = NodeId::CheckpointServer(0);
    let (mb, identity) = fabric.register::<CkptPacket>(node);
    spawn_service("ckpt-server".into(), node, failures, move || {
        let mut store = store.lock();
        mvr_ckpt::run_checkpoint_server_on(mb, &mut store, move |rank, reply| {
            identity
                .send(NodeId::Computing(rank), DaemonMsg::Ckpt(reply))
                .is_ok()
        });
    })
}

/// Checkpoint-scheduler configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Selection policy.
    pub policy: Policy,
    /// Pause between scheduling rounds (the paper's Fig. 11 setup
    /// checkpoints continuously: use a tiny interval).
    pub interval: Duration,
    /// How long to gather status replies each round.
    pub gather_window: Duration,
    /// How long to wait for the ordered checkpoint to complete.
    pub completion_timeout: Duration,
    /// RNG seed for the random policy.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: Policy::RoundRobin,
            interval: Duration::from_millis(5),
            gather_window: Duration::from_millis(3),
            completion_timeout: Duration::from_millis(500),
            seed: 1,
        }
    }
}

/// Spawn the checkpoint scheduler (§4.6.2): periodically gathers daemon
/// statuses, picks a victim by policy, orders a checkpoint, and waits for
/// its completion before ordering the next.
pub fn spawn_checkpoint_scheduler(
    fabric: &Fabric,
    world: u32,
    cfg: SchedulerConfig,
    failures: &mpsc::Sender<NodeExit>,
) -> JoinHandle<()> {
    let node = NodeId::CheckpointScheduler;
    let (mb, identity) = fabric.register::<SchedMsg>(node);
    spawn_service("ckpt-scheduler".into(), node, failures, move || {
        let mut sched = Scheduler::new(cfg.policy, world, cfg.seed);
        let mut last_status: Vec<NodeStatus> = Vec::new();
        loop {
            // Pause between rounds; a kill during the pause is
            // detected by the next mailbox operation.
            match mb.recv_timeout(cfg.interval) {
                Err(RecvError::Timeout) => {}
                Err(RecvError::Killed) => return,
                Ok(_) => {} // stray message between rounds
            }
            // Gather statuses.
            for r in 0..world {
                let _ = identity.send(
                    NodeId::Computing(Rank(r)),
                    DaemonMsg::Sched(SchedMsg::StatusRequest),
                );
            }
            let deadline = std::time::Instant::now() + cfg.gather_window;
            let mut statuses: Vec<NodeStatus> = Vec::new();
            loop {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break;
                }
                match mb.recv_timeout(left) {
                    Ok(SchedMsg::Status {
                        rank,
                        logged_bytes,
                        sent_bytes,
                        recv_bytes,
                        el_batches,
                        el_events,
                        el_acks,
                        el_max_batch,
                        timings,
                    }) => {
                        statuses.push(NodeStatus {
                            rank,
                            logged_bytes,
                            sent_bytes,
                            recv_bytes,
                            el_batches,
                            el_events,
                            el_acks,
                            el_max_batch,
                            timings: *timings,
                        });
                    }
                    Ok(_) => {}
                    Err(RecvError::Timeout) => break,
                    Err(RecvError::Killed) => return,
                }
            }
            if !statuses.is_empty() {
                last_status = statuses.clone();
            }
            // Order one checkpoint and await completion.
            let Some(victim) = sched.pick(&statuses) else {
                continue;
            };
            if identity
                .send(
                    NodeId::Computing(victim),
                    DaemonMsg::Sched(SchedMsg::CheckpointOrder),
                )
                .is_err()
            {
                continue; // victim currently dead
            }
            let deadline = std::time::Instant::now() + cfg.completion_timeout;
            loop {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break; // victim stalled or died: move on
                }
                match mb.recv_timeout(left) {
                    Ok(SchedMsg::CheckpointDone { rank, .. }) if rank == victim => {
                        let st = last_status.iter().find(|s| s.rank == victim).copied();
                        sched.on_checkpoint_done(victim, st.as_ref());
                        break;
                    }
                    Ok(_) => {}
                    Err(RecvError::Timeout) => break,
                    Err(RecvError::Killed) => return,
                }
            }
        }
    })
}

/// Spawn the Channel Memory services. Each CM node hosts the repositories
/// of every rank mapped to it.
pub fn spawn_channel_memories(
    fabric: &Fabric,
    cms: u32,
    failures: &mpsc::Sender<NodeExit>,
) -> Vec<JoinHandle<()>> {
    (0..cms.max(1))
        .map(|i| {
            let node = NodeId::ChannelMemory(i);
            let (mb, identity) = fabric.register::<CmPacket>(node);
            spawn_service(format!("cm-{i}"), node, failures, move || {
                let mut repos: std::collections::BTreeMap<Rank, ChannelMemory> = Default::default();
                loop {
                    let pkt = match mb.recv() {
                        Ok(p) => p,
                        Err(RecvError::Killed) | Err(RecvError::Timeout) => return,
                    };
                    let repo = repos
                        .entry(pkt.owner)
                        .or_insert_with(|| ChannelMemory::new(pkt.owner));
                    for reply in repo.handle(pkt.req) {
                        // Push acks return to the pusher; messages and
                        // probe answers to the owner.
                        let to = match &reply {
                            CmReply::PushAck => pkt.from,
                            _ => pkt.owner,
                        };
                        let _ = identity.send(NodeId::Computing(to), DaemonMsg::Cm(reply));
                    }
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{Cluster, ClusterError};
    use crate::{ClusterConfig, DaemonChannel};
    use mvr_core::Payload;
    use mvr_mpi::{Mpi, MpiResult, Source, Tag};
    use std::time::Instant;

    #[test]
    fn a_panicking_service_is_reported_as_failed() {
        let (failures, failed) = mpsc::channel();
        let node = NodeId::EventLogger(3);
        let handle = spawn_service("doomed".into(), node, &failures, || panic!("ledger bug"));
        assert!(handle.join().is_ok(), "the panic is caught");
        let exit = failed
            .recv_timeout(Duration::from_secs(5))
            .expect("reported");
        assert_eq!(exit.node, node);
        assert!(
            matches!(&exit.outcome, Outcome::Failed(d) if d.contains("ledger bug")),
            "{exit:?}"
        );
        // A service that returns normally reports nothing.
        spawn_service("fine".into(), node, &failures, || {})
            .join()
            .unwrap();
        assert!(failed.try_recv().is_err());
    }

    #[test]
    fn a_panicking_service_fails_the_run_well_before_its_timeout() {
        // Both ranks wait for a message nobody sends: only the failure
        // report can end the run before the timeout.
        let app = |mpi: &mut Mpi<DaemonChannel>, _: Option<Payload>| -> MpiResult<Payload> {
            mpi.recv(Source::Any, Tag::Any)?;
            Ok(Payload::empty())
        };
        let cfg = ClusterConfig {
            world: 2,
            ..Default::default()
        };
        let cluster = Cluster::launch(cfg, app);
        let node = NodeId::CheckpointScheduler;
        spawn_service("doomed".into(), node, &cluster.exit_tx, || {
            std::thread::sleep(Duration::from_millis(20));
            panic!("scheduler bug")
        });
        let start = Instant::now();
        let err = cluster.wait(Duration::from_secs(60)).unwrap_err();
        assert!(
            matches!(&err, ClusterError::ServiceFailed { node: n, error } if *n == node && error.contains("scheduler bug")),
            "{err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{:?}",
            start.elapsed()
        );
    }
}
