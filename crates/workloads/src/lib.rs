//! # mvr-workloads — benchmarks and applications
//!
//! The workloads of the paper's evaluation, in two forms:
//!
//! * **Simulator traces** ([`patterns`], [`nas`]): the ping-pong,
//!   synthetic-duplex and token-ring microbenchmarks, and communication-
//!   structure models of the six NAS Parallel Benchmarks 2.3 kernels for
//!   classes S/W/A/B — the inputs to every figure-regenerating harness.
//! * **Real kernels** ([`kernels`]): a distributed conjugate-gradient
//!   solver and a heat stencil with actual numerics, generic over the
//!   channel so the same code runs on the in-process test cluster and on
//!   the fault-tolerant runtime (with checkpoint sites throughout).
//! * **Verification apps** ([`apps`]): the checkpointed ring, pipeline
//!   stream, any-source fan-in, allreduce and fanout, each with its
//!   closed-form fault-free result, and the `mpirun` app registry
//!   ([`apps::make_app`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod kernels;
pub mod nas;
pub mod patterns;

pub use kernels::{
    cannon, cannon_reference_checksum, cg, stencil, CannonConfig, CannonState, CgConfig, CgResult,
    CgState, StencilConfig, StencilState,
};
pub use nas::{params, traces, Class, NasBenchmark, NasParams};
pub use patterns::{pattern9, pingpong, token_ring};
