//! # mvr-simnet — the calibrated cluster simulator
//!
//! A deterministic discrete-event simulator of the paper's testbed
//! (32 Athlon nodes on 100 Mb/s Ethernet), interpreting per-rank
//! operation traces under the three protocol models of the evaluation:
//! MPICH-P4, MPICH-V1 and MPICH-V2 (each V2 rank runs the shipped
//! `mvr_core::V2Engine` in virtual time). This is the substitution for the
//! hardware we do not have (DESIGN.md §2): it regenerates the *shapes* of
//! every performance figure — bandwidth/latency crossovers, NAS behaviour,
//! re-execution and faulty-execution curves.
//!
//! See `config.rs` for the calibration anchors and `sim.rs` for the
//! faithfulness notes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod lane;
pub mod report;
pub mod sim;
pub mod time;
pub mod trace;

pub use config::{ClusterConfig, Protocol};
pub use report::{RankBreakdown, SimReport};
pub use sim::{simulate, simulate_replay, simulate_with_faults, FaultPlan, Sim};
pub use time::{as_secs_f64, msecs, secs, transfer_ns, usecs, SimTime, MSEC, SEC, USEC};
pub use trace::{traffic_summary, validate_matching, Op, ReqHandle, TraceBuilder};
