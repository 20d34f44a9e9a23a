//! The MPI communicator: point-to-point semantics (matching, wildcards,
//! eager/rendezvous, nonblocking requests, probes) over any [`Channel`].
//!
//! The protocol itself is [`MpiCore`]'s; this is its blocking shell.
//! Every blocking entry point pumps the channel until the core shows the
//! call complete, and requests complete passively whenever it pumps.

use crate::channel::{Channel, ChannelInfo};
use crate::core::{MpiCore, SendStart};
use crate::error::{MpiError, MpiResult};
use crate::request::{ReqKind, Request};
use crate::wire::{encode_eager, rndv_data_body, Context, MpiFrame, Source, Tag};
use mvr_core::{FrameArena, Payload, Rank};

pub use crate::core::RecvMsg;

/// The MPI handle of one process: the blocking shell around one
/// [`MpiCore`]. A pump is `brecv` → core → `bsend` of every frame the
/// core emits. Every frame it sends is written into its own
/// [`FrameArena`], one per process incarnation.
///
/// Single-threaded by design (one MPI process per OS thread, as in
/// MPICH's `ch_p4` device).
pub struct Mpi<C: Channel> {
    chan: C,
    size: u32,
    finalized: bool,
    core: MpiCore,
    arena: FrameArena,
}

impl<C: Channel> Mpi<C> {
    /// Initialize over a channel. Returns the handle and, when resuming
    /// from a checkpoint, the restored application state.
    pub fn init(mut chan: C) -> MpiResult<(Self, Option<Payload>)> {
        let ChannelInfo {
            rank,
            size,
            restored_mpi_state,
            restored_app_state,
        } = chan.init()?;
        let core = match restored_mpi_state {
            Some(bytes) => MpiCore::restore(rank, &bytes)?,
            None => MpiCore::new(rank),
        };
        Ok((
            Mpi {
                chan,
                size,
                finalized: false,
                core,
                arena: FrameArena::new(),
            },
            restored_app_state,
        ))
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.core.rank()
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Finish the execution (`PIiFinish`).
    pub fn finalize(mut self) -> MpiResult<()> {
        self.check_live()?;
        self.finalized = true;
        self.chan.finish()
    }

    fn check_live(&self) -> MpiResult<()> {
        if self.finalized {
            Err(MpiError::Finalized)
        } else {
            Ok(())
        }
    }

    fn check_rank(&self, r: Rank) -> MpiResult<()> {
        if r.0 >= self.size {
            return Err(MpiError::InvalidArgument(format!(
                "rank {r} out of 0..{}",
                self.size
            )));
        }
        Ok(())
    }

    fn check_tag(&self, tag: i32) -> MpiResult<()> {
        if tag < 0 {
            return Err(MpiError::InvalidArgument(format!("negative tag {tag}")));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point
    // ------------------------------------------------------------------

    /// Blocking standard send (eager below the rendezvous threshold).
    pub fn send(&mut self, dst: Rank, tag: i32, bytes: &[u8]) -> MpiResult<()> {
        self.check_live()?;
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        self.send_ctx(dst, Context::PointToPoint, tag, bytes)
    }

    /// Blocking receive with wildcards. Returns (source, tag, body).
    pub fn recv(&mut self, src: Source, tag: Tag) -> MpiResult<RecvMsg> {
        self.check_live()?;
        self.recv_ctx(src, Context::PointToPoint, tag)
    }

    /// Combined send+receive that cannot deadlock against its mirror image
    /// (posts the receive before starting the send).
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_tag: i32,
        bytes: &[u8],
        src: Source,
        recv_tag: Tag,
    ) -> MpiResult<RecvMsg> {
        self.check_live()?;
        self.check_rank(dst)?;
        self.check_tag(send_tag)?;
        self.sendrecv_ctx(dst, Context::PointToPoint, send_tag, bytes, src, recv_tag)
    }

    // ------------------------------------------------------------------
    // Nonblocking
    // ------------------------------------------------------------------

    /// Nonblocking send. Eager payloads are shipped immediately; large
    /// payloads start a rendezvous completed by [`wait`](Self::wait) (or
    /// passively, whenever the library pumps the channel).
    pub fn isend(&mut self, dst: Rank, tag: i32, bytes: &[u8]) -> MpiResult<Request> {
        self.check_live()?;
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        let seq = self.core.next_request();
        let kind = self.start_send(dst, Context::PointToPoint, tag, bytes)?;
        Ok(Request { seq, kind })
    }

    /// Nonblocking receive: posts a matching request that participates in
    /// matching immediately (MPI posted-receive semantics).
    pub fn irecv(&mut self, src: Source, tag: Tag) -> MpiResult<Request> {
        self.check_live()?;
        let seq = self.post_recv(src, tag, Context::PointToPoint)?;
        Ok(Request {
            seq,
            kind: ReqKind::Recv {
                src,
                tag,
                context: Context::PointToPoint,
            },
        })
    }

    /// Complete one request. Returns the message for receives.
    pub fn wait(&mut self, req: Request) -> MpiResult<Option<RecvMsg>> {
        self.check_live()?;
        match req.kind {
            ReqKind::Done => Ok(None),
            ReqKind::RndvSend { rndv_id } => {
                self.wait_send(rndv_id)?;
                Ok(None)
            }
            ReqKind::Recv { .. } => Ok(Some(self.wait_posted(req.seq)?)),
        }
    }

    /// Complete a set of requests; returns the receive results aligned
    /// with the input order. (Requests complete passively as frames
    /// arrive, so the completion order here is immaterial.)
    pub fn waitall(&mut self, reqs: Vec<Request>) -> MpiResult<Vec<Option<RecvMsg>>> {
        self.check_live()?;
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            out.push(self.wait(r)?);
        }
        Ok(out)
    }

    /// Nonblocking completion test. Returns the message for completed
    /// receives, `Ok(Some(None))`-style via the outer Option:
    /// `None` = not complete (request still pending, pass it back in),
    /// `Some(x)` = complete with receive payload `x`.
    pub fn test(&mut self, req: &Request) -> MpiResult<Option<Option<RecvMsg>>> {
        self.check_live()?;
        // Opportunistically drain whatever the daemon already buffered.
        while self.chan.nprobe()? {
            self.pump()?;
        }
        match &req.kind {
            ReqKind::Done => Ok(Some(None)),
            ReqKind::RndvSend { rndv_id } => Ok(self.core.send_done(*rndv_id).then_some(None)),
            ReqKind::Recv { .. } => Ok(self.core.take_recv(req.seq)?.map(Some)),
        }
    }

    // ------------------------------------------------------------------
    // Probes
    // ------------------------------------------------------------------

    /// Nonblocking probe: is a matching message available?
    /// (`MPI_Iprobe`.) Posted requests are not disturbed.
    pub fn iprobe(&mut self, src: Source, tag: Tag) -> MpiResult<bool> {
        self.check_live()?;
        if self.core.has_unmatched(src, tag) {
            return Ok(true);
        }
        // Pull everything the daemon already has, then re-check. Each
        // unsuccessful daemon probe is a logged nondeterministic event.
        while self.chan.nprobe()? {
            self.pump()?;
            if self.core.has_unmatched(src, tag) {
                return Ok(true);
            }
        }
        Ok(self.core.has_unmatched(src, tag))
    }

    /// Blocking probe (`MPI_Probe`): wait until a matching message exists,
    /// without receiving it.
    pub fn probe(&mut self, src: Source, tag: Tag) -> MpiResult<()> {
        loop {
            if self.iprobe(src, tag)? {
                return Ok(());
            }
            // Blocking pull of at least one frame.
            self.pump()?;
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint sites
    // ------------------------------------------------------------------

    /// Cooperative checkpoint site (our Condor substitution — DESIGN.md):
    /// if the daemon ordered a checkpoint, serialize the MPI-library state
    /// plus the provided application state, and commit. Must be called
    /// with no outstanding nonblocking requests.
    pub fn checkpoint_site(&mut self, app_state: &[u8]) -> MpiResult<bool> {
        self.check_live()?;
        if !self.chan.checkpoint_pending()? {
            return Ok(false);
        }
        let mpi_state = self.core.checkpoint_state()?;
        self.chan
            .commit_checkpoint(mpi_state, Payload::from(app_state))?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Collective support (used by collectives.rs)
    // ------------------------------------------------------------------

    /// Allocate the next collective context (all ranks call collectives in
    /// the same order, so the counter matches globally).
    pub(crate) fn next_collective(&mut self) -> Context {
        self.core.next_collective()
    }

    /// Blocking send in `context`: start, then pump to completion.
    pub(crate) fn send_ctx(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        bytes: &[u8],
    ) -> MpiResult<()> {
        if let ReqKind::RndvSend { rndv_id } = self.start_send(dst, context, tag, bytes)? {
            self.wait_send(rndv_id)?;
        }
        Ok(())
    }

    /// Blocking receive in `context`.
    pub(crate) fn recv_ctx(
        &mut self,
        src: Source,
        context: Context,
        tag: Tag,
    ) -> MpiResult<RecvMsg> {
        let seq = self.post_recv(src, tag, context)?;
        self.wait_posted(seq)
    }

    /// Collective-context exchange (deadlock-free for large payloads).
    pub(crate) fn sendrecv_ctx(
        &mut self,
        dst: Rank,
        context: Context,
        send_tag: i32,
        bytes: &[u8],
        src: Source,
        recv_tag: Tag,
    ) -> MpiResult<RecvMsg> {
        let rseq = self.post_recv(src, recv_tag, context)?;
        let send_kind = self.start_send(dst, context, send_tag, bytes)?;
        let m = self.wait_posted(rseq)?;
        if let ReqKind::RndvSend { rndv_id } = send_kind {
            self.wait_send(rndv_id)?;
        }
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Start a send; returns how it completes. Every send copies `body`
    /// once: an eager one into its frame, a rendezvous one into its data
    /// frame, which the core holds until the clear-to-send, and a
    /// self-send into the core's queue.
    fn start_send(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        body: &[u8],
    ) -> MpiResult<ReqKind> {
        let arena = &mut self.arena;
        let keep = |rndv: Option<u64>| match rndv {
            Some(id) => rndv_data_body(id, body, arena),
            None => Payload::from(body),
        };
        match self.core.start_send(dst, context, tag, body.len(), keep) {
            SendStart::Local => Ok(ReqKind::Done),
            SendStart::Eager => {
                let frame = encode_eager(context, tag, body, &mut self.arena);
                self.chan.bsend(dst, frame)?;
                Ok(ReqKind::Done)
            }
            SendStart::Rendezvous(rndv_id) => {
                self.flush()?;
                Ok(ReqKind::RndvSend { rndv_id })
            }
        }
    }

    /// Pump until rendezvous send `rndv_id` has released its data.
    fn wait_send(&mut self, rndv_id: u64) -> MpiResult<()> {
        while !self.core.send_done(rndv_id) {
            self.pump()?;
        }
        Ok(())
    }

    /// Post a receive request (a clear-to-send it grants goes out now).
    fn post_recv(&mut self, src: Source, tag: Tag, context: Context) -> MpiResult<u64> {
        let seq = self.core.post_recv(src, tag, context);
        self.flush()?;
        Ok(seq)
    }

    /// Block until the posted request `seq` completes, then return it.
    fn wait_posted(&mut self, seq: u64) -> MpiResult<RecvMsg> {
        loop {
            if let Some(m) = self.core.take_recv(seq)? {
                return Ok(m);
            }
            self.pump()?;
        }
    }

    /// Read one frame from the channel into the core and send what it
    /// answers.
    fn pump(&mut self) -> MpiResult<()> {
        let (from, bytes) = self.chan.brecv()?;
        self.core.on_frame(from, MpiFrame::decode(&bytes)?)?;
        self.flush()
    }

    /// Send every frame the core has queued.
    fn flush(&mut self) -> MpiResult<()> {
        while let Some((dst, frame)) = self.core.pop_output() {
            self.chan.bsend(dst, frame.encode(&mut self.arena))?;
        }
        Ok(())
    }
}
