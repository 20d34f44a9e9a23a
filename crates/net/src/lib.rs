//! # mvr-net — the in-process cluster fabric
//!
//! Substrate substitute for the TCP mesh of a real MPICH-V2 deployment
//! (see DESIGN.md §2). Provides exactly the channel semantics the protocol
//! of `mvr-core` assumes:
//!
//! * reliable FIFO delivery between live nodes,
//! * atomic (all-or-nothing) messages,
//! * crash-and-recover faults: [`Fabric::kill`] empties the victim's
//!   channels, refuses future traffic, and fences the victim's own sends
//!   (fail-stop), while [`Fabric::register`] reincarnates a node with a
//!   fresh generation,
//! * disconnection as a trusty fault detector ([`SendError::Disconnected`]).
//!
//! Every node owns a single typed [`Mailbox`] — the analog of the
//! communication daemon's `select()` loop over all of its sockets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod error;
pub mod fabric;
pub mod frame;
pub mod mailbox;
pub mod mem;
pub(crate) mod ring;
pub mod tcp;
pub mod transport;

pub use chaos::{fail_stop_group, CountTrigger, TurbulenceConfig};
pub use error::{RecvError, SendError};
pub use fabric::{Fabric, Identity};
pub use frame::{encode_frame, Frame, FrameDecoder, FrameError};
pub use mailbox::{MailSignal, Mailbox, Waiter};
pub use mem::{MemNet, MemTransport};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{DownCause, FrameSink, Transport, TransportError, TransportEvent};
