//! # mvr-eventlog — the reliable Event Logger
//!
//! The Event Logger is *the* reliable component of an MPICH-V2 deployment
//! (§4.3: the node running the dispatcher, the checkpoint scheduler and
//! the event logger "is the single node in the system that must be
//! reliable"). It stores the 4-field reception events shipped by the
//! computing daemons, acknowledges their durability (opening the senders'
//! pessimism gates), and serves `DownloadEL` requests on restart.
//!
//! Storage is proportional to the *number* of messages, not their payload
//! size — the decisive scalability difference from MPICH-V1's Channel
//! Memories.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod router;
pub mod service;
pub mod store;

pub use router::{merge_downloads, merged_unique_events, quorum_of, ShardMap};
pub use service::{run_event_logger, run_event_logger_on, ElPacket, ElServiceStats};
pub use store::{el_for_rank, EventLogStore};
