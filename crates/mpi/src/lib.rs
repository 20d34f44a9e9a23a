//! # mvr-mpi — the MPI-like library
//!
//! The message-passing layer of the MPICH-V2 reproduction: MPICH's channel
//! interface (§4.4) as the [`Channel`] trait, and on top of it the
//! protocol layer (eager + rendezvous with the MPICH 1.2.5 threshold),
//! tag/source matching with wildcards, nonblocking requests, probes, and
//! the classical collectives lowered onto point-to-point.
//!
//! The fault-tolerance protocol lives entirely *below* [`Channel`]
//! (in `mvr-core`/`mvr-runtime`): this layer is identical for the V2
//! runtime, the baselines and the in-process [`testing`] cluster —
//! mirroring the paper's "MPI implementation independence" requirement
//! (MPICH is never made aware of faults).
//!
//! There is one MPI layer: the protocol is the sans-IO [`MpiCore`]
//! (matching, the unexpected and self queues, the eager/rendezvous
//! choice at [`RNDV_THRESHOLD`] and the rendezvous handshake), and
//! [`Mpi`] is its blocking shell over a [`Channel`]. The cluster
//! simulator (`mvr-simnet`) drives the same core in virtual time.
//!
//! ```
//! use mvr_mpi::testing::run_local;
//! use mvr_mpi::{ReduceOp, Source, Tag};
//!
//! let sums = run_local(4, |mut mpi| {
//!     let mine = vec![mpi.rank().0 as u64];
//!     let total = mpi.allreduce(ReduceOp::Sum, &mine)?;
//!     mpi.finalize()?;
//!     Ok(total[0])
//! })
//! .unwrap();
//! assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3 on every rank
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod collectives;
pub mod comm;
pub mod core;
pub mod datatype;
pub mod error;
pub mod request;
pub mod testing;
pub mod wire;

pub use channel::{Channel, ChannelInfo};
pub use comm::{Mpi, RecvMsg};
pub use core::{MpiCore, SendStart};
pub use datatype::{decode_slice, encode_slice, reduce_into, ReduceOp, Reducible, Scalar};
pub use error::{MpiError, MpiResult};
pub use request::Request;
pub use wire::{Context, MpiFrame, Source, Tag, RNDV_THRESHOLD};
