//! Live hosting of the comparison protocols: the MPICH-V1 baseline
//! (pessimistic logging on reliable Channel Memories, §3.2) and the
//! MPICH-P4 baseline (no fault tolerance).
//!
//! The MPI process side is identical to V2 (the channel interface hides
//! the protocol, §4.4); only the daemon and the services differ:
//!
//! * **V1** — every send is pushed to the *receiver's* Channel Memory;
//!   receives pull reception `seq` numbers from the node's own CM. A
//!   restarted process replays its receptions by re-pulling from its
//!   reception index — recovery needs no cooperation from the other
//!   computing nodes at all ("a process re-execution is independent of
//!   the other processes of the system"). Our V1 hosting restarts from
//!   scratch (no Condor images), which the CM replay makes exact.
//! * **P4** — direct transmission. A crash is fatal to the run (there is
//!   nothing to replay from), exactly like the real MPICH-P4.

use crate::messages::{DaemonMsg, DispatcherMsg, ProcReply, ProcRequest};
use mvr_core::baseline::p4::{P4Engine, P4Output};
use mvr_core::baseline::v1::{ChannelMemory, V1Engine, V1Output};
use mvr_core::{CmReply, CmRequest, NodeId, Rank};
use mvr_net::{Fabric, Identity, Mailbox, RecvError, SendError};
use std::thread::JoinHandle;

/// One inbound request to a Channel Memory node: which owner's repository,
/// who asked (for the reply route), and the request.
#[derive(Clone, Debug)]
pub struct CmPacket {
    /// The rank whose repository is addressed.
    pub owner: Rank,
    /// The requesting daemon (replies go to `Computing(from)`).
    pub from: Rank,
    /// The request.
    pub req: CmRequest,
}

/// Map a rank to its Channel Memory node (the paper used about N/4 CMs;
/// we default to one per 4 ranks, minimum one).
pub fn cm_for_rank(rank: Rank, cms: u32) -> NodeId {
    NodeId::ChannelMemory(rank.0 % cms.max(1))
}

/// Number of Channel Memories for a world size (the paper's N/4 rule).
pub fn default_cms(world: u32) -> u32 {
    world.div_ceil(4).max(1)
}

/// Spawn the Channel Memory services. Each CM node hosts the repositories
/// of every rank mapped to it.
pub fn spawn_channel_memories(fabric: &Fabric, _world: u32, cms: u32) -> Vec<JoinHandle<()>> {
    (0..cms.max(1))
        .map(|i| {
            let (mb, identity) = fabric.register::<CmPacket>(NodeId::ChannelMemory(i));
            std::thread::Builder::new()
                .name(format!("cm-{i}"))
                .spawn(move || {
                    let mut repos: std::collections::BTreeMap<Rank, ChannelMemory> =
                        Default::default();
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
                .expect("spawn channel memory")
        })
        .collect()
}

/// The V1 communication-daemon loop.
pub fn daemon_main_v1(
    mailbox: Mailbox<DaemonMsg>,
    identity: Identity,
    rank: Rank,
    world: u32,
    cms: u32,
) {
    let mut engine = V1Engine::new(rank);
    let mut finalized = false;
    loop {
        let msg = match mailbox.recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        match msg {
            DaemonMsg::Proc(req) => match req {
                ProcRequest::Init => {
                    let _ = identity.send(
                        NodeId::Process(rank),
                        ProcReply::InitOk {
                            rank,
                            size: world,
                            restored_mpi_state: None,
                            restored_app_state: None,
                            node: None,
                        },
                    );
                }
                ProcRequest::Bsend { dst, bytes } => engine.app_send(dst, bytes),
                ProcRequest::Brecv => engine.app_recv(),
                ProcRequest::Nprobe => engine.app_probe(),
                ProcRequest::CkptPoll => {
                    // V1 hosting restarts from scratch; no checkpoints.
                    let _ = identity.send(NodeId::Process(rank), ProcReply::CkptPending(false));
                }
                ProcRequest::CkptCommit { .. } => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::CkptCommitted);
                }
                ProcRequest::Finish => {
                    finalized = true;
                    let _ = identity.send(
                        NodeId::Dispatcher,
                        DispatcherMsg::Finalized {
                            rank,
                            metrics: *engine.metrics(),
                            timings: Default::default(),
                        },
                    );
                    let _ = identity.send(NodeId::Process(rank), ProcReply::Done);
                }
            },
            DaemonMsg::Cm(reply) => engine.on_cm_reply(reply),
            // No peer traffic, EL, or checkpoint system in V1 hosting.
            _ => {}
        }
        for out in engine.drain_outputs() {
            match out {
                V1Output::ToCm { owner, req } => {
                    let _ = identity.send(
                        cm_for_rank(owner, cms),
                        CmPacket {
                            owner,
                            from: rank,
                            req,
                        },
                    );
                }
                V1Output::Deliver { from, payload } => {
                    if identity
                        .send(NodeId::Process(rank), ProcReply::Msg { from, payload })
                        .is_err()
                        && !finalized
                    {
                        return;
                    }
                }
                V1Output::ProbeAnswer(b) => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::Probe(b));
                }
            }
        }
    }
}

/// The P4 communication-daemon loop (direct transmission).
pub fn daemon_main_p4(mailbox: Mailbox<DaemonMsg>, identity: Identity, rank: Rank, world: u32) {
    let mut engine = P4Engine::new(rank);
    loop {
        let msg = match mailbox.recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        match msg {
            DaemonMsg::Proc(req) => match req {
                ProcRequest::Init => {
                    let _ = identity.send(
                        NodeId::Process(rank),
                        ProcReply::InitOk {
                            rank,
                            size: world,
                            restored_mpi_state: None,
                            restored_app_state: None,
                            node: None,
                        },
                    );
                }
                ProcRequest::Bsend { dst, bytes } => engine.app_send(dst, bytes),
                ProcRequest::Brecv => engine.app_recv(),
                ProcRequest::Nprobe => engine.app_probe(),
                ProcRequest::CkptPoll => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::CkptPending(false));
                }
                ProcRequest::CkptCommit { .. } => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::CkptCommitted);
                }
                ProcRequest::Finish => {
                    let _ = identity.send(
                        NodeId::Dispatcher,
                        DispatcherMsg::Finalized {
                            rank,
                            metrics: *engine.metrics(),
                            timings: Default::default(),
                        },
                    );
                    let _ = identity.send(NodeId::Process(rank), ProcReply::Done);
                }
            },
            DaemonMsg::Peer { from, msg } => engine.on_peer(from, msg),
            _ => {}
        }
        for out in engine.drain_outputs() {
            match out {
                P4Output::Transmit { to, msg } => {
                    match identity.send(NodeId::Computing(to), DaemonMsg::Peer { from: rank, msg })
                    {
                        Ok(()) | Err(SendError::Disconnected(_)) => {}
                        Err(SendError::SenderDead) => return,
                    }
                }
                P4Output::Deliver { from, payload } => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::Msg { from, payload });
                }
                P4Output::ProbeAnswer(b) => {
                    let _ = identity.send(NodeId::Process(rank), ProcReply::Probe(b));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm_mapping_covers_all_ranks() {
        for world in [1u32, 4, 7, 32] {
            let cms = default_cms(world);
            for r in 0..world {
                let NodeId::ChannelMemory(i) = cm_for_rank(Rank(r), cms) else {
                    panic!()
                };
                assert!(i < cms);
            }
        }
        assert_eq!(default_cms(32), 8); // the paper's N/4
        assert_eq!(default_cms(1), 1);
    }
}
