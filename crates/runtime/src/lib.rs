//! # mvr-runtime — the MPICH-V2 runtime
//!
//! The live, multithreaded deployment of the protocol: per node, one
//! core hosting the `mvr-core` engine, driven by a communication-daemon
//! thread (the node mailbox) and by the MPI-process thread (the user
//! application's own channel calls); the reliable services (event
//! loggers, checkpoint server, checkpoint scheduler); and the dispatcher
//! that launches, monitors, crashes and reincarnates nodes.
//!
//! ```no_run
//! use mvr_runtime::{run_cluster, ClusterConfig};
//! use mvr_core::Payload;
//! use mvr_mpi::ReduceOp;
//! use std::time::Duration;
//!
//! let results = run_cluster(
//!     ClusterConfig { world: 4, ..Default::default() },
//!     |mpi: &mut mvr_runtime::NodeMpi, _restored: Option<Payload>| {
//!         let sum = mpi.allreduce(ReduceOp::Sum, &[mpi.rank().0 as u64])?;
//!         Ok(Payload::from_vec(sum[0].to_le_bytes().to_vec()))
//!     },
//!     Duration::from_secs(10),
//! )
//! .unwrap();
//! assert_eq!(results.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod channel;
pub mod chaos;
pub mod deploy;
pub mod dispatcher;
pub mod messages;
pub mod node;
pub mod proc;
pub mod progfile;
pub mod services;
pub(crate) mod supervisor;

pub use channel::DaemonChannel;
pub use chaos::{ChaosConfig, ChaosEvent, ChaosReport};
pub use deploy::{Backend, ClusterConfig, ConfigError, ProcLaunch, Topology};
pub use dispatcher::{run_cluster, Cluster, ClusterError, FaultHandle, RunReport};
pub use node::{MpiApp, NodeConfig, NodeExit, Outcome, RuntimeProtocol};
pub use services::SchedulerConfig;

// Re-exported so chaos-soak harnesses need only this crate.
pub use mvr_net::{fail_stop_group, CountTrigger, TurbulenceConfig};
// Re-exported so conservation harnesses can reason about the shard
// topology (which shard owns a rank, merged unique-event views) without
// depending on mvr-eventlog directly.
pub use mvr_eventlog::{merged_unique_events, quorum_of, ShardMap};

/// The MPI handle type applications receive.
pub type NodeMpi = mvr_mpi::Mpi<DaemonChannel>;
