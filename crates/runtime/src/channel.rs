//! The [`Channel`] implementation handed to MPI processes.
//!
//! The daemon's `InitOk` hands the process its node's core
//! ([`NodeHandle`]) — V2, V1 or P4 alike — and every later call runs the
//! protocol on the calling thread under the node lock: a send leaves (or
//! queues behind the gate) before `bsend` returns, a receive the core can
//! answer from its buffer returns without a thread switch. Only a call
//! the core cannot answer yet (a receive with nothing buffered, behind
//! gated sends or waiting on a Channel Memory, a replayed or V1 probe, a
//! `finalize` behind gated sends) crosses a mailbox: the wait is
//! registered under the lock, the process parks on its reply mailbox,
//! and the daemon thread — which produces the answer when it arrives —
//! posts the wake-up.
//!
//! A dead daemon (or a killed process incarnation) surfaces as
//! [`MpiError::Killed`], which well-behaved applications propagate so the
//! thread unwinds fail-stop.

use crate::messages::ProcReply;
use crate::node::{debug_assert_parkable, NodeCore, NodeEnd, NodeHandle};
use mvr_core::{Payload, Rank};
use mvr_mpi::{Channel, ChannelInfo, MpiError, MpiResult};
use mvr_net::Mailbox;

/// The process side of the process↔daemon connection.
pub struct DaemonChannel {
    rank: Rank,
    inbox: Mailbox<ProcReply>,
    /// The node core, once the daemon's `InitOk` handed it over.
    node: Option<NodeHandle>,
}

impl DaemonChannel {
    /// Build the channel for `rank`; `inbox` is its reply mailbox.
    pub fn new(rank: Rank, inbox: Mailbox<ProcReply>) -> Self {
        DaemonChannel {
            rank,
            inbox,
            node: None,
        }
    }

    /// Run `f` on the node core under the node lock.
    fn with<T>(&self, f: impl FnOnce(&mut dyn NodeCore) -> Result<T, NodeEnd>) -> MpiResult<T> {
        let node = self.node.as_ref().expect("channel call before init");
        node.with(f).map_err(|end| match end {
            NodeEnd::Killed => MpiError::Killed,
            NodeEnd::Failed(detail) => MpiError::Protocol(detail),
        })
    }

    /// Park until the daemon posts a reply.
    fn recv(&self) -> MpiResult<ProcReply> {
        debug_assert_parkable();
        self.inbox.recv().map_err(|_| MpiError::Killed)
    }

    /// Make a call that can wait: its answer, inline — or, when the core
    /// registered the wait instead, the wake-up the daemon posts.
    fn call(
        &self,
        f: impl FnOnce(&mut dyn NodeCore) -> Result<Option<ProcReply>, NodeEnd>,
    ) -> MpiResult<ProcReply> {
        match self.with(f)? {
            Some(answer) => Ok(answer),
            None => self.recv(),
        }
    }
}

/// A wake-up that does not answer the call the process parked in.
fn unexpected(call: &str, reply: ProcReply) -> MpiError {
    MpiError::Protocol(format!("unexpected {call} reply: {reply:?}"))
}

impl Channel for DaemonChannel {
    fn init(&mut self) -> MpiResult<ChannelInfo> {
        match self.recv()? {
            ProcReply::InitOk {
                size,
                restored,
                node,
            } => {
                self.node = Some(node);
                let (restored_mpi_state, restored_app_state) = restored.unzip();
                Ok(ChannelInfo {
                    rank: self.rank,
                    size,
                    restored_mpi_state,
                    restored_app_state,
                })
            }
            other => Err(unexpected("init", other)),
        }
    }

    fn bsend(&mut self, dst: Rank, bytes: Payload) -> MpiResult<()> {
        self.with(|core| core.app_send(dst, bytes))
    }

    fn brecv(&mut self) -> MpiResult<(Rank, Payload)> {
        match self.call(|core| core.app_recv())? {
            ProcReply::Msg { from, payload } => Ok((from, payload)),
            other => Err(unexpected("brecv", other)),
        }
    }

    fn nprobe(&mut self) -> MpiResult<bool> {
        match self.call(|core| core.app_probe())? {
            ProcReply::Probe(b) => Ok(b),
            other => Err(unexpected("probe", other)),
        }
    }

    fn finish(&mut self) -> MpiResult<()> {
        match self.call(|core| core.app_finish())? {
            ProcReply::Done => Ok(()),
            other => Err(unexpected("finish", other)),
        }
    }

    fn checkpoint_pending(&mut self) -> MpiResult<bool> {
        self.with(|core| core.app_ckpt_poll())
    }

    fn commit_checkpoint(&mut self, mpi_state: Payload, app_state: Payload) -> MpiResult<()> {
        self.with(|core| core.app_ckpt_commit(mpi_state, app_state))
    }
}
