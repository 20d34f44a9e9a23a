//! Strongly-typed identifiers used throughout the MPICH-V2 reproduction.
//!
//! The paper identifies every message by the couple *(sender's identity,
//! sender's logical clock at emission)* (§4.5). [`MsgId`] is that couple.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The rank of an MPI process inside the (single, `MPI_COMM_WORLD`-like)
/// communicator. Ranks are dense in `0..size`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rank(pub u32);

impl Rank {
    /// Rank as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<usize> for Rank {
    fn from(v: usize) -> Self {
        Rank(v as u32)
    }
}

/// Identity of any node participating in a run: computing nodes host one MPI
/// process each; the auxiliary roles are the reliable (or semi-reliable)
/// services of the MPICH-V2 architecture (Fig. 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// A computing node's communication daemon for the given rank.
    Computing(Rank),
    /// An event logger; several may exist, each serving a subset of ranks.
    EventLogger(u32),
    /// A checkpoint server storing checkpoint images.
    CheckpointServer(u32),
    /// The checkpoint scheduler ordering checkpoints across nodes.
    CheckpointScheduler,
    /// The dispatcher (mpirun): launches, monitors and restarts everything.
    Dispatcher,
    /// A Channel Memory (MPICH-V1 baseline only), associated to a rank.
    ChannelMemory(u32),
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Computing(r) => write!(f, "cn{}", r.0),
            NodeId::EventLogger(i) => write!(f, "el{i}"),
            NodeId::CheckpointServer(i) => write!(f, "cs{i}"),
            NodeId::CheckpointScheduler => write!(f, "sc"),
            NodeId::Dispatcher => write!(f, "disp"),
            NodeId::ChannelMemory(i) => write!(f, "cm{i}"),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Error parsing a [`NodeId`] from its wire name (see [`NodeId`]'s
/// `FromStr`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseNodeIdError(String);

impl fmt::Display for ParseNodeIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid node id {:?}", self.0)
    }
}

impl std::error::Error for ParseNodeIdError {}

impl std::str::FromStr for NodeId {
    type Err = ParseNodeIdError;

    /// Parse the compact names `Display` emits (`cn7`, `el0`,
    /// `cs0`, `sc`, `disp`, `cm3`) — used by progfiles and child-process
    /// role environment variables, so the address a supervisor prints is
    /// exactly the one a child parses back.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseNodeIdError(s.to_string());
        let num = |rest: &str| rest.parse::<u32>().map_err(|_| err());
        match s {
            "sc" => return Ok(NodeId::CheckpointScheduler),
            "disp" => return Ok(NodeId::Dispatcher),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("cn") {
            Ok(NodeId::Computing(Rank(num(rest)?)))
        } else if let Some(rest) = s.strip_prefix("el") {
            Ok(NodeId::EventLogger(num(rest)?))
        } else if let Some(rest) = s.strip_prefix("cs") {
            Ok(NodeId::CheckpointServer(num(rest)?))
        } else if let Some(rest) = s.strip_prefix("cm") {
            Ok(NodeId::ChannelMemory(num(rest)?))
        } else {
            Err(err())
        }
    }
}

/// The unique identifier of a message: the sender plus the sender's logical
/// clock when the `send` action ran. Because a process's clock strictly
/// increases, `MsgId`s are unique and, per (sender, receiver) pair, emitted
/// in increasing clock order over FIFO channels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// Emitting rank.
    pub sender: Rank,
    /// The sender's logical clock at emission (`H_p` in Appendix A).
    pub sender_clock: u64,
}

impl MsgId {
    /// Build a message identifier from its two components.
    pub fn new(sender: Rank, sender_clock: u64) -> Self {
        MsgId {
            sender,
            sender_clock,
        }
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m({}, {})", self.sender.0, self.sender_clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rank_roundtrip_and_ordering() {
        let a = Rank(3);
        let b = Rank::from(4usize);
        assert!(a < b);
        assert_eq!(b.idx(), 4);
        assert_eq!(format!("{a}"), "3");
        assert_eq!(format!("{a:?}"), "r3");
    }

    #[test]
    fn msgid_unique_per_clock() {
        let mut seen = HashSet::new();
        for clock in 0..100u64 {
            assert!(seen.insert(MsgId::new(Rank(1), clock)));
        }
        // Same clock but different sender is a different id.
        assert!(seen.insert(MsgId::new(Rank(2), 50)));
    }

    #[test]
    fn msgid_orders_by_sender_then_clock() {
        let a = MsgId::new(Rank(0), 99);
        let b = MsgId::new(Rank(1), 1);
        assert!(a < b);
        let c = MsgId::new(Rank(1), 2);
        assert!(b < c);
    }

    #[test]
    fn node_id_display_names() {
        assert_eq!(format!("{}", NodeId::Computing(Rank(7))), "cn7");
        assert_eq!(format!("{}", NodeId::EventLogger(0)), "el0");
        assert_eq!(format!("{}", NodeId::CheckpointServer(1)), "cs1");
        assert_eq!(format!("{}", NodeId::CheckpointScheduler), "sc");
        assert_eq!(format!("{}", NodeId::Dispatcher), "disp");
        assert_eq!(format!("{}", NodeId::ChannelMemory(3)), "cm3");
    }

    #[test]
    fn node_id_parses_its_own_display() {
        let all = [
            NodeId::Computing(Rank(7)),
            NodeId::EventLogger(0),
            NodeId::CheckpointServer(1),
            NodeId::CheckpointScheduler,
            NodeId::Dispatcher,
            NodeId::ChannelMemory(3),
        ];
        for id in all {
            assert_eq!(format!("{id}").parse::<NodeId>().unwrap(), id);
        }
        assert!("".parse::<NodeId>().is_err());
        assert!("cn".parse::<NodeId>().is_err());
        assert!("xyz9".parse::<NodeId>().is_err());
        assert!("el-1".parse::<NodeId>().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let id = MsgId::new(Rank(5), 123);
        let enc = bincode::serialize(&id).unwrap();
        let dec: MsgId = bincode::deserialize(&enc).unwrap();
        assert_eq!(id, dec);
        let n = NodeId::Computing(Rank(9));
        let enc = bincode::serialize(&n).unwrap();
        let dec: NodeId = bincode::deserialize(&enc).unwrap();
        assert_eq!(n, dec);
    }
}
