//! Real multi-process deployment: the socket backend of the runtime.
//!
//! The in-process fabric remains the default (and the benchmarking
//! substrate — figures 5/6 are byte-identical with or without this
//! module compiled); `mpirun --backend socket` instead launches every
//! deployment node as a real OS process:
//!
//! - [`wire`] — the bincode-framed cross-process protocol;
//! - [`gateway`] — the transport↔fabric bridge each process runs;
//! - [`child`] — role runners re-executed from the launcher binary,
//!   configured by the one serialised hand-off struct;
//! - [`parent`] — the process launcher under the shared supervision
//!   core: process launch, address maps, reaper and fail-stop detector
//!   verdicts, real `SIGKILL`s, graceful teardown, dump merging;
//! - [`sig`] — the minimal `kill(2)`/`signal(2)` FFI this needs.

pub mod child;
pub mod gateway;
pub mod parent;
pub mod sig;
pub mod wire;

pub use child::{maybe_run_child, transport_config};
pub use gateway::{Control, Gateway, GatewayRole};
pub use parent::{run_proc, ProcError, ProcOptions, ProcReport};
pub use wire::WireMsg;
