//! The [`Channel`] implementation handed to MPI processes.
//!
//! The daemon hands the process its node's core (`NodeHandle`) — V2, V1
//! or P4 alike — once, and every later call runs the protocol on the
//! calling thread under the node lock: a send leaves (or queues behind
//! the gate) before `bsend` returns, a receive the core can answer from
//! its buffer returns without a thread switch. A call the core cannot
//! answer yet (a receive with nothing buffered, behind gated sends or
//! waiting on a Channel Memory, a replayed or V1 probe, a `finalize`
//! behind gated sends) registers its wait in the core, and the process
//! becomes the node mailbox's registered waiter: the message that makes
//! the answer wakes the process itself, which drains it into the core
//! and takes the answer from the core's slot. Only when the daemon
//! thread drained that message first does the daemon ring the process.
//!
//! A dead daemon (or a killed process incarnation) surfaces as
//! [`MpiError::Killed`], which well-behaved applications propagate so the
//! thread unwinds fail-stop.

use crate::node::{Answer, Handover, NodeCore, NodeEnd, NodeHandle};
use mvr_core::{Payload, Rank};
use mvr_mpi::{Channel, ChannelInfo, MpiError, MpiResult};

/// The process side of the process↔daemon connection.
pub struct DaemonChannel {
    rank: Rank,
    /// Where the daemon hands the node over at init.
    handover: Handover,
    /// The node core, once handed over.
    node: Option<NodeHandle>,
}

/// A node incarnation's end, as the MPI layer sees it.
fn mpi_error(end: NodeEnd) -> MpiError {
    match end {
        NodeEnd::Killed => MpiError::Killed,
        NodeEnd::Failed(detail) => MpiError::Protocol(detail),
    }
}

impl DaemonChannel {
    /// Build the channel for `rank`; its node arrives through `handover`.
    pub(crate) fn new(rank: Rank, handover: Handover) -> Self {
        DaemonChannel {
            rank,
            handover,
            node: None,
        }
    }

    fn node(&self) -> &NodeHandle {
        self.node.as_ref().expect("channel call before init")
    }

    /// Run `f` on the node core under the node lock.
    fn with<T>(&self, f: impl FnOnce(&mut dyn NodeCore) -> Result<T, NodeEnd>) -> MpiResult<T> {
        self.node().with(f).map_err(mpi_error)
    }

    /// Make a call that can wait; its answer, however long it takes.
    fn call(&self, f: impl FnOnce(&mut dyn NodeCore) -> Result<(), NodeEnd>) -> MpiResult<Answer> {
        self.node().call(f).map_err(mpi_error)
    }
}

/// An answer that does not answer the call the process made.
fn unexpected(call: &str, answer: Answer) -> MpiError {
    MpiError::Protocol(format!("unexpected {call} answer: {answer:?}"))
}

impl Channel for DaemonChannel {
    fn init(&mut self) -> MpiResult<ChannelInfo> {
        let init = self.handover.take().map_err(mpi_error)?;
        self.node = Some(init.node);
        let (restored_mpi_state, restored_app_state) = init.restored.unzip();
        Ok(ChannelInfo {
            rank: self.rank,
            size: init.size,
            restored_mpi_state,
            restored_app_state,
        })
    }

    fn bsend(&mut self, dst: Rank, bytes: Payload) -> MpiResult<()> {
        self.with(|core| core.app_send(dst, bytes))
    }

    fn brecv(&mut self) -> MpiResult<(Rank, Payload)> {
        match self.call(|core| core.app_recv())? {
            Answer::Msg { from, payload } => Ok((from, payload)),
            other => Err(unexpected("brecv", other)),
        }
    }

    fn nprobe(&mut self) -> MpiResult<bool> {
        match self.call(|core| core.app_probe())? {
            Answer::Probe(b) => Ok(b),
            other => Err(unexpected("probe", other)),
        }
    }

    fn finish(&mut self) -> MpiResult<()> {
        match self.call(|core| core.app_finish())? {
            Answer::Done => Ok(()),
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
