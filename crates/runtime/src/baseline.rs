//! Live hosting of the comparison protocols: the MPICH-V1 baseline
//! (pessimistic logging on reliable Channel Memories, §3.2) and the
//! MPICH-P4 baseline (no fault tolerance).
//!
//! "The MPI process side is identical to V2" (the channel interface
//! hides the protocol, §4.4), and so is the node: each baseline is a
//! `NodeCore` behind the same `NodeHandle`, driven by the same two
//! threads — the process calls it inline, parks only when it has nothing
//! to deliver and then drains the node mailbox into it itself, the
//! daemon thread drains what arrives while the process computes. Only
//! the core and the services differ:
//!
//! * **V1** — every send is pushed to the *receiver's* Channel Memory;
//!   receives pull reception `seq` numbers from the node's own CM, so a
//!   receive or probe always parks until the CM answers. A restarted
//!   process replays its receptions by re-pulling from its reception
//!   index — recovery needs no cooperation from the other computing
//!   nodes at all ("a process re-execution is independent of the other
//!   processes of the system"). Our V1 hosting restarts from scratch (no
//!   Condor images), which the CM replay makes exact.
//! * **P4** — direct transmission. A crash is fatal to the run (there is
//!   nothing to replay from), exactly like the real MPICH-P4.

use crate::messages::DaemonMsg;
use crate::node::{Answer, NodeCore, NodeEnd, Port};
use mvr_core::baseline::p4::{P4Engine, P4Output};
use mvr_core::baseline::v1::{V1Engine, V1Output};
use mvr_core::{CmRequest, NodeId, Payload, Rank};

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

/// The P4 node core: direct transmission from the calling thread.
pub(crate) struct P4Core {
    engine: P4Engine,
    port: Port,
}

impl P4Core {
    pub(crate) fn new(port: Port) -> Self {
        P4Core {
            engine: P4Engine::new(port.rank),
            port,
        }
    }

    /// Perform every queued output; an answer to the process's call goes
    /// to the port's slot.
    fn pump(&mut self) -> Result<(), NodeEnd> {
        while let Some(out) = self.engine.pop_output() {
            match out {
                // A dead peer loses the message: P4 has nothing to
                // replay it from, and the supervisor fails the run.
                P4Output::Transmit { to, msg } => drop(self.port.transmit(to, msg)?),
                P4Output::Deliver { from, payload } => {
                    self.port.answer(Answer::Msg { from, payload })
                }
                P4Output::ProbeAnswer(b) => self.port.answer(Answer::Probe(b)),
            }
        }
        Ok(())
    }
}

impl NodeCore for P4Core {
    fn on_daemon_msg(&mut self, msg: DaemonMsg) -> Result<(), NodeEnd> {
        if let DaemonMsg::Peer { from, msg } = msg {
            self.engine.on_peer(from, msg);
        }
        self.pump()
    }

    fn app_send(&mut self, dst: Rank, bytes: Payload) -> Result<(), NodeEnd> {
        self.engine.app_send(dst, bytes);
        self.pump()
    }

    fn app_recv(&mut self) -> Result<(), NodeEnd> {
        self.engine.app_recv();
        self.pump()
    }

    fn app_probe(&mut self) -> Result<(), NodeEnd> {
        self.engine.app_probe();
        self.pump()
    }

    fn app_finish(&mut self) -> Result<(), NodeEnd> {
        self.port
            .finalized(*self.engine.metrics(), Default::default())?;
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

/// The V1 node core: sends and pulls go to Channel Memories from the
/// calling thread; their answers come back through the node mailbox.
pub(crate) struct V1Core {
    engine: V1Engine,
    port: Port,
    cms: u32,
}

impl V1Core {
    pub(crate) fn new(port: Port, world: u32) -> Self {
        V1Core {
            engine: V1Engine::new(port.rank),
            port,
            cms: default_cms(world),
        }
    }

    /// Perform every queued output; an answer for the parked process, if
    /// a CM reply produced one, goes to the port's slot.
    fn pump(&mut self) -> Result<(), NodeEnd> {
        while let Some(out) = self.engine.pop_output() {
            match out {
                V1Output::ToCm { owner, req } => {
                    let from = self.port.rank;
                    let to = cm_for_rank(owner, self.cms);
                    self.port.send(to, CmPacket { owner, from, req })?;
                }
                V1Output::Deliver { from, payload } => {
                    self.port.answer(Answer::Msg { from, payload })
                }
                V1Output::ProbeAnswer(b) => self.port.answer(Answer::Probe(b)),
            }
        }
        Ok(())
    }
}

impl NodeCore for V1Core {
    fn on_daemon_msg(&mut self, msg: DaemonMsg) -> Result<(), NodeEnd> {
        if let DaemonMsg::Cm(reply) = msg {
            self.engine.on_cm_reply(reply);
        }
        self.pump()
    }

    fn app_send(&mut self, dst: Rank, bytes: Payload) -> Result<(), NodeEnd> {
        self.engine.app_send(dst, bytes);
        self.pump()
    }

    /// Always parks: the pull's answer comes back through the node
    /// mailbox.
    fn app_recv(&mut self) -> Result<(), NodeEnd> {
        self.engine.app_recv();
        self.pump()
    }

    fn app_probe(&mut self) -> Result<(), NodeEnd> {
        self.engine.app_probe();
        self.pump()
    }

    fn app_finish(&mut self) -> Result<(), NodeEnd> {
        self.port
            .finalized(*self.engine.metrics(), Default::default())?;
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
