//! # mvr-core — the MPICH-V2 protocol
//!
//! Sans-IO implementation of the pessimistic sender-based message-logging
//! protocol of *"MPICH-V2: a Fault Tolerant MPI for Volatile Nodes based on
//! Pessimistic Sender Based Message Logging"* (SC 2003), plus the two
//! comparison protocols of its evaluation (MPICH-P4 and MPICH-V1).
//!
//! The crate contains **no threads, sockets or clocks** — only state
//! machines and data structures:
//!
//! * [`V2Engine`] — the protocol of Appendix A: logical clocks, the
//!   sender-based payload log (`SAVED`), reception-event logging with the
//!   WAITLOGGED pessimism gate, the `RESTART1`/`RESTART2` recovery
//!   handshake, ordered replay, probe-count reproduction, checkpointing and
//!   garbage collection.
//! * [`baseline::p4::P4Engine`] — direct transmission, no fault tolerance.
//! * [`baseline::v1`] — Channel-Memory logging (engine + repository).
//!
//! The real multithreaded runtime (`mvr-runtime`) and the discrete-event
//! performance simulator (`mvr-simnet`) both build on this crate.
//!
//! ## Quick tour
//!
//! ```
//! use mvr_core::{V2Engine, Input, Output, Rank, Payload};
//!
//! let mut sender = V2Engine::fresh(Rank(0), 2);
//! let mut receiver = V2Engine::fresh(Rank(1), 2);
//!
//! // Rank 0 sends; the engine emits a transmission command and keeps a
//! // copy in its sender-based log.
//! sender.handle(Input::AppSend { dst: Rank(1), payload: Payload::from_vec(vec![42]) }).unwrap();
//! let outs = sender.drain_outputs();
//! assert!(matches!(outs[0], Output::Transmit { .. }));
//! assert_eq!(sender.logged_bytes(), 1);
//!
//! // Rank 1 receives: the delivery produces a 4-field reception event for
//! // the event logger, and the pessimism gate closes until it is acked.
//! receiver.handle(Input::AppRecv).unwrap();
//! if let Output::Transmit { msg, .. } = &outs[0] {
//!     receiver.handle(Input::Peer { from: Rank(0), msg: msg.clone() }).unwrap();
//! }
//! assert!(!receiver.gate_open());
//! receiver.handle(Input::ElAck { up_to: 1 }).unwrap();
//! assert!(receiver.gate_open());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod clock;
pub mod codec;
pub mod engine;
pub mod envelope;
pub mod event;
pub mod ids;
pub mod metrics;
pub mod payload;
pub mod pessimism;
pub mod recovery;
pub mod replay;
pub mod sender_log;
pub mod snapshot;
pub mod spec;

pub use clock::LogicalClock;
pub use engine::{Input, Output, V2Engine};
pub use envelope::{
    CkptReply, CkptRequest, CmReply, CmRequest, DataMsg, ElAddr, ElReply, ElRequest, PeerMsg,
    SchedMsg,
};
pub use event::{EventBatch, ReceptionEvent, DEFAULT_BATCH_MAX_EVENTS};
pub use ids::{MsgId, NodeId, Rank};
pub use metrics::Metrics;
pub use payload::{FrameArena, Payload};
pub use pessimism::PessimismGate;
pub use recovery::Watermarks;
pub use replay::{Offer, ProbeVerdict, ReplayError, ReplayPlan};
pub use sender_log::{SavedMsg, SenderLog};
pub use snapshot::{EngineSnapshot, ImageBlob, NodeImage};
