//! The [`Channel`] implementation handed to MPI processes.
//!
//! Under V2 the daemon's `InitOk` hands the process its node's core
//! ([`NodeHandle`]), and every later call runs the protocol engine on the
//! calling thread under the node lock: a send leaves (or queues behind
//! the gate) before `bsend` returns, a receive the engine can answer from
//! its buffer returns without a thread switch. Only a call the core
//! cannot answer yet (a receive with nothing buffered or behind gated
//! sends, a replayed probe, a `finalize` behind gated sends) crosses a
//! mailbox: the wait is registered under the lock, the process parks on
//! its reply mailbox, and the daemon thread — which produces the answer
//! when it arrives — posts the wake-up.
//!
//! Under the V1/P4 baselines (no `NodeHandle`) each call is a request
//! over the process↔daemon "UNIX socket" (a pair of fabric mailboxes)
//! and a reply back.
//!
//! Either way a dead daemon (or a killed process incarnation) surfaces
//! as [`MpiError::Killed`], which well-behaved applications propagate so
//! the thread unwinds fail-stop.

use crate::messages::{ProcReply, ProcRequest};
use crate::node::{debug_assert_parkable, NodeEnd, NodeHandle};
use mvr_core::{NodeId, Payload, Rank};
use mvr_mpi::{Channel, ChannelInfo, MpiError, MpiResult};
use mvr_net::{Identity, Mailbox, RecvError, SendError};

/// The process side of the process↔daemon connection.
pub struct DaemonChannel {
    rank: Rank,
    daemon: NodeId,
    identity: Identity,
    inbox: Mailbox<ProcReply>,
    /// The node core, once a V2 daemon's `InitOk` handed it over; stays
    /// `None` under the baselines (every call goes through the mailbox).
    node: Option<NodeHandle>,
}

/// What the end of the node means to the MPI process.
fn ended(end: NodeEnd) -> MpiError {
    match end {
        NodeEnd::Killed => MpiError::Killed,
        NodeEnd::Failed(detail) => MpiError::Protocol(detail),
    }
}

impl DaemonChannel {
    /// Build the channel for `rank`; `identity` is the process-node
    /// incarnation credential, `inbox` its reply mailbox.
    pub fn new(rank: Rank, identity: Identity, inbox: Mailbox<ProcReply>) -> Self {
        DaemonChannel {
            rank,
            daemon: NodeId::Computing(rank),
            identity,
            inbox,
            node: None,
        }
    }

    fn send(&self, req: ProcRequest) -> MpiResult<()> {
        self.identity
            .send(self.daemon, crate::messages::DaemonMsg::Proc(req))
            .map_err(|e: SendError| match e {
                SendError::Disconnected(_) | SendError::SenderDead => MpiError::Killed,
            })
    }

    /// Park until the daemon posts a reply.
    fn recv(&self) -> MpiResult<ProcReply> {
        debug_assert_parkable();
        self.inbox.recv().map_err(|e: RecvError| match e {
            RecvError::Killed | RecvError::Timeout => MpiError::Killed,
        })
    }
}

impl Channel for DaemonChannel {
    fn init(&mut self) -> MpiResult<ChannelInfo> {
        self.send(ProcRequest::Init)?;
        match self.recv()? {
            ProcReply::InitOk {
                rank,
                size,
                restored_mpi_state,
                restored_app_state,
                node,
            } => {
                debug_assert_eq!(rank, self.rank);
                self.node = node;
                Ok(ChannelInfo {
                    rank,
                    size,
                    restored_mpi_state,
                    restored_app_state,
                })
            }
            other => Err(MpiError::Protocol(format!(
                "unexpected init reply: {other:?}"
            ))),
        }
    }

    fn bsend(&mut self, dst: Rank, bytes: Payload) -> MpiResult<()> {
        match &self.node {
            Some(node) => node.with(|core| core.app_send(dst, bytes)).map_err(ended),
            None => self.send(ProcRequest::Bsend { dst, bytes }),
        }
    }

    fn brecv(&mut self) -> MpiResult<(Rank, Payload)> {
        match &self.node {
            Some(node) => {
                if let Some(msg) = node.with(|core| core.app_recv()).map_err(ended)? {
                    return Ok(msg);
                }
            }
            None => self.send(ProcRequest::Brecv)?,
        }
        match self.recv()? {
            ProcReply::Msg { from, payload } => Ok((from, payload)),
            other => Err(MpiError::Protocol(format!(
                "unexpected brecv reply: {other:?}"
            ))),
        }
    }

    fn nprobe(&mut self) -> MpiResult<bool> {
        match &self.node {
            Some(node) => {
                if let Some(pending) = node.with(|core| core.app_probe()).map_err(ended)? {
                    return Ok(pending);
                }
            }
            None => self.send(ProcRequest::Nprobe)?,
        }
        match self.recv()? {
            ProcReply::Probe(b) => Ok(b),
            other => Err(MpiError::Protocol(format!(
                "unexpected probe reply: {other:?}"
            ))),
        }
    }

    fn finish(&mut self) -> MpiResult<()> {
        match &self.node {
            Some(node) => {
                if node.with(|core| core.app_finish()).map_err(ended)? {
                    return Ok(());
                }
            }
            None => self.send(ProcRequest::Finish)?,
        }
        match self.recv()? {
            ProcReply::Done => Ok(()),
            other => Err(MpiError::Protocol(format!(
                "unexpected finish reply: {other:?}"
            ))),
        }
    }

    fn checkpoint_pending(&mut self) -> MpiResult<bool> {
        if let Some(node) = &self.node {
            return node.with(|core| core.app_ckpt_poll()).map_err(ended);
        }
        self.send(ProcRequest::CkptPoll)?;
        match self.recv()? {
            ProcReply::CkptPending(b) => Ok(b),
            other => Err(MpiError::Protocol(format!(
                "unexpected poll reply: {other:?}"
            ))),
        }
    }

    fn commit_checkpoint(&mut self, mpi_state: Payload, app_state: Payload) -> MpiResult<()> {
        if let Some(node) = &self.node {
            return node
                .with(|core| core.app_ckpt_commit(mpi_state, app_state))
                .map_err(ended);
        }
        self.send(ProcRequest::CkptCommit {
            mpi_state,
            app_state,
        })?;
        match self.recv()? {
            ProcReply::CkptCommitted => Ok(()),
            other => Err(MpiError::Protocol(format!(
                "unexpected commit reply: {other:?}"
            ))),
        }
    }
}
