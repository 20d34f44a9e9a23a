//! The MPI communicator: point-to-point semantics (matching, wildcards,
//! eager/rendezvous, nonblocking requests, probes) over any [`Channel`].
//!
//! Progress rule: every blocking entry point pumps the channel, and
//! incoming frames are matched against *posted* receive requests first
//! (in post order), falling back to the unexpected queue. This is what
//! makes symmetric rendezvous exchanges deadlock-free: while a process
//! waits for its own clear-to-send, its posted receives keep granting the
//! peer's rendezvous requests.

use crate::channel::{Channel, ChannelInfo};
use crate::error::{MpiError, MpiResult};
use crate::request::{ReqKind, Request};
use crate::wire::{encode_eager, Context, MpiFrame, Source, Tag, RNDV_THRESHOLD};
use mvr_core::{Payload, Rank};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// An unexpected (arrived-before-matched) message.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum UnexpKind {
    Eager(Payload),
    Rndv { rndv_id: u64 },
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Unexpected {
    src: Rank,
    context: Context,
    tag: i32,
    kind: UnexpKind,
}

/// The checkpointable MPI-library state.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct MpiLibState {
    unexpected: VecDeque<Unexpected>,
    self_queue: VecDeque<(Context, i32, Payload)>,
    collective_seq: u64,
    next_rndv_id: u64,
    next_req_seq: u64,
}

/// A received message: source, tag, body.
pub type RecvMsg = (Rank, i32, Payload);

/// State of a posted receive request.
#[derive(Clone, Debug)]
enum PostState {
    /// Not yet matched.
    Waiting,
    /// Matched a rendezvous request; CTS sent; awaiting the data.
    CtsSent { rndv_id: u64, src: Rank, tag: i32 },
    /// Complete.
    Done(RecvMsg),
}

#[derive(Clone, Debug)]
struct PostedRecv {
    seq: u64,
    src: Source,
    tag: Tag,
    context: Context,
    state: PostState,
}

/// The MPI handle of one process.
///
/// Single-threaded by design (one MPI process per OS thread, as in
/// MPICH's `ch_p4` device).
pub struct Mpi<C: Channel> {
    chan: C,
    rank: Rank,
    size: u32,
    finalized: bool,
    st: MpiLibState,
    /// Posted receive requests, in post order.
    posted: Vec<PostedRecv>,
    /// Outstanding rendezvous sends: id → (dst, payload).
    pending_rndv: HashMap<u64, (Rank, Payload)>,
    /// Rendezvous sends whose data has been shipped.
    completed_rndv: HashSet<u64>,
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
        let st = match restored_mpi_state {
            Some(bytes) => bincode::deserialize(bytes.as_slice())
                .map_err(|e| MpiError::Protocol(format!("bad MPI state in checkpoint: {e}")))?,
            None => MpiLibState::default(),
        };
        Ok((
            Mpi {
                chan,
                rank,
                size,
                finalized: false,
                st,
                posted: Vec::new(),
                pending_rndv: HashMap::new(),
                completed_rndv: HashSet::new(),
            },
            restored_app_state,
        ))
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
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
        self.send_internal(dst, Context::PointToPoint, tag, bytes)
    }

    /// Blocking receive with wildcards. Returns (source, tag, body).
    pub fn recv(&mut self, src: Source, tag: Tag) -> MpiResult<RecvMsg> {
        self.check_live()?;
        let seq = self.post_recv(src, tag, Context::PointToPoint)?;
        self.wait_posted(seq)
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
        let seq = self.next_seq();
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
                while !self.completed_rndv.contains(&rndv_id) {
                    self.pump()?;
                }
                self.completed_rndv.remove(&rndv_id);
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
            ReqKind::RndvSend { rndv_id } => {
                if self.completed_rndv.remove(rndv_id) {
                    Ok(Some(None))
                } else {
                    Ok(None)
                }
            }
            ReqKind::Recv { .. } => {
                let idx = self
                    .posted
                    .iter()
                    .position(|p| p.seq == req.seq)
                    .ok_or_else(|| {
                        MpiError::Protocol(format!("unknown receive request {}", req.seq))
                    })?;
                if matches!(self.posted[idx].state, PostState::Done(_)) {
                    let PostState::Done(m) = self.posted.remove(idx).state else {
                        unreachable!()
                    };
                    Ok(Some(Some(m)))
                } else {
                    Ok(None)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Probes
    // ------------------------------------------------------------------

    /// Nonblocking probe: is a matching message available?
    /// (`MPI_Iprobe`.) Posted requests are not disturbed.
    pub fn iprobe(&mut self, src: Source, tag: Tag) -> MpiResult<bool> {
        self.check_live()?;
        if self.find_unmatched(src, tag).is_some() {
            return Ok(true);
        }
        // Pull everything the daemon already has, then re-check. Each
        // unsuccessful daemon probe is a logged nondeterministic event.
        while self.chan.nprobe()? {
            self.pump()?;
            if self.find_unmatched(src, tag).is_some() {
                return Ok(true);
            }
        }
        Ok(self.find_unmatched(src, tag).is_some())
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
        if !self.pending_rndv.is_empty() || !self.posted.is_empty() {
            return Err(MpiError::PendingRequests);
        }
        let mpi_state = Payload::from_vec(
            bincode::serialize(&self.st).expect("MPI state serialization cannot fail"),
        );
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
        let c = Context::Collective {
            seq: self.st.collective_seq,
        };
        self.st.collective_seq += 1;
        c
    }

    /// Collective-context send (same protocol selection as user sends).
    pub(crate) fn send_ctx(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        bytes: &[u8],
    ) -> MpiResult<()> {
        self.send_internal(dst, context, tag, bytes)
    }

    /// Collective-context receive.
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
            while !self.completed_rndv.contains(&rndv_id) {
                self.pump()?;
            }
            self.completed_rndv.remove(&rndv_id);
        }
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn next_seq(&mut self) -> u64 {
        let s = self.st.next_req_seq;
        self.st.next_req_seq += 1;
        s
    }

    /// Start a send; returns how it completes. An eager send copies
    /// `body` once, into the frame; self-sends and rendezvous keep their
    /// own copy until matched.
    fn start_send(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        body: &[u8],
    ) -> MpiResult<ReqKind> {
        if dst == self.rank {
            self.st
                .self_queue
                .push_back((context, tag, Payload::from(body)));
            // A self-send may satisfy an already-posted receive.
            self.match_self_queue();
            return Ok(ReqKind::Done);
        }
        if body.len() < RNDV_THRESHOLD {
            self.chan.bsend(dst, encode_eager(context, tag, body))?;
            return Ok(ReqKind::Done);
        }
        let rndv_id = self.st.next_rndv_id;
        self.st.next_rndv_id += 1;
        self.chan.bsend(
            dst,
            MpiFrame::RndvReq {
                context,
                tag,
                rndv_id,
                len: body.len() as u64,
            }
            .encode(),
        )?;
        self.pending_rndv
            .insert(rndv_id, (dst, Payload::from(body)));
        Ok(ReqKind::RndvSend { rndv_id })
    }

    /// Blocking send: start, then pump to completion.
    fn send_internal(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        body: &[u8],
    ) -> MpiResult<()> {
        match self.start_send(dst, context, tag, body)? {
            ReqKind::Done => Ok(()),
            ReqKind::RndvSend { rndv_id } => {
                while !self.completed_rndv.contains(&rndv_id) {
                    self.pump()?;
                }
                self.completed_rndv.remove(&rndv_id);
                Ok(())
            }
            ReqKind::Recv { .. } => unreachable!("start_send never returns Recv"),
        }
    }

    /// Post a receive request: try the self queue and the unexpected queue
    /// immediately, then enroll for passive matching.
    fn post_recv(&mut self, src: Source, tag: Tag, context: Context) -> MpiResult<u64> {
        let seq = self.next_seq();
        let mut entry = PostedRecv {
            seq,
            src,
            tag,
            context,
            state: PostState::Waiting,
        };

        // Self queue first (a self-send is always "arrived").
        if src.matches(self.rank) {
            if let Some(i) = self
                .st
                .self_queue
                .iter()
                .position(|(c, t, _)| *c == context && tag.matches(*t))
            {
                let (_, t, body) = self.st.self_queue.remove(i).expect("index valid");
                entry.state = PostState::Done((self.rank, t, body));
                self.posted.push(entry);
                return Ok(seq);
            }
        }
        // Unexpected queue, in arrival order.
        if let Some(i) = self
            .st
            .unexpected
            .iter()
            .position(|u| src.matches(u.src) && tag.matches(u.tag) && u.context == context)
        {
            let u = self.st.unexpected.remove(i).expect("index valid");
            match u.kind {
                UnexpKind::Eager(body) => entry.state = PostState::Done((u.src, u.tag, body)),
                UnexpKind::Rndv { rndv_id } => {
                    self.chan
                        .bsend(u.src, MpiFrame::RndvCts { rndv_id }.encode())?;
                    entry.state = PostState::CtsSent {
                        rndv_id,
                        src: u.src,
                        tag: u.tag,
                    };
                }
            }
        }
        self.posted.push(entry);
        Ok(seq)
    }

    /// Match newly-queued self-sends against posted requests.
    fn match_self_queue(&mut self) {
        for p in self.posted.iter_mut() {
            if !matches!(p.state, PostState::Waiting) || !p.src.matches(self.rank) {
                continue;
            }
            if let Some(i) = self
                .st
                .self_queue
                .iter()
                .position(|(c, t, _)| *c == p.context && p.tag.matches(*t))
            {
                let (_, t, body) = self.st.self_queue.remove(i).expect("index valid");
                p.state = PostState::Done((self.rank, t, body));
            }
        }
    }

    /// Block until the posted request `seq` completes, then return it.
    fn wait_posted(&mut self, seq: u64) -> MpiResult<RecvMsg> {
        loop {
            let idx = self
                .posted
                .iter()
                .position(|p| p.seq == seq)
                .ok_or_else(|| MpiError::Protocol(format!("unknown receive request {seq}")))?;
            if matches!(self.posted[idx].state, PostState::Done(_)) {
                let PostState::Done(m) = self.posted.remove(idx).state else {
                    unreachable!()
                };
                return Ok(m);
            }
            self.pump()?;
        }
    }

    /// Is there an unmatched (not claimed by a posted request) message
    /// satisfying the selectors? Used by probes.
    fn find_unmatched(&self, src: Source, tag: Tag) -> Option<()> {
        if src.matches(self.rank)
            && self
                .st
                .self_queue
                .iter()
                .any(|(c, t, _)| *c == Context::PointToPoint && tag.matches(*t))
        {
            return Some(());
        }
        self.st
            .unexpected
            .iter()
            .find(|u| {
                src.matches(u.src) && tag.matches(u.tag) && u.context == Context::PointToPoint
            })
            .map(|_| ())
    }

    /// Read one frame from the channel and route it: posted requests first
    /// (post order), then the unexpected queue.
    fn pump(&mut self) -> MpiResult<()> {
        let (from, bytes) = self.chan.brecv()?;
        match MpiFrame::decode(&bytes)? {
            MpiFrame::Eager { context, tag, body } => {
                if let Some(p) = self.posted.iter_mut().find(|p| {
                    matches!(p.state, PostState::Waiting)
                        && p.context == context
                        && p.src.matches(from)
                        && p.tag.matches(tag)
                }) {
                    p.state = PostState::Done((from, tag, body));
                } else {
                    self.st.unexpected.push_back(Unexpected {
                        src: from,
                        context,
                        tag,
                        kind: UnexpKind::Eager(body),
                    });
                }
                Ok(())
            }
            MpiFrame::RndvReq {
                context,
                tag,
                rndv_id,
                len: _,
            } => {
                let matched = self.posted.iter().position(|p| {
                    matches!(p.state, PostState::Waiting)
                        && p.context == context
                        && p.src.matches(from)
                        && p.tag.matches(tag)
                });
                match matched {
                    Some(i) => {
                        self.chan
                            .bsend(from, MpiFrame::RndvCts { rndv_id }.encode())?;
                        self.posted[i].state = PostState::CtsSent {
                            rndv_id,
                            src: from,
                            tag,
                        };
                    }
                    None => self.st.unexpected.push_back(Unexpected {
                        src: from,
                        context,
                        tag,
                        kind: UnexpKind::Rndv { rndv_id },
                    }),
                }
                Ok(())
            }
            MpiFrame::RndvCts { rndv_id } => {
                let (dst, body) = self
                    .pending_rndv
                    .remove(&rndv_id)
                    .ok_or_else(|| MpiError::Protocol(format!("CTS for unknown rndv {rndv_id}")))?;
                self.chan
                    .bsend(dst, MpiFrame::RndvData { rndv_id, body }.encode())?;
                self.completed_rndv.insert(rndv_id);
                Ok(())
            }
            MpiFrame::RndvData { rndv_id, body } => {
                let p = self
                    .posted
                    .iter_mut()
                    .find(|p| matches!(p.state, PostState::CtsSent { rndv_id: id, .. } if id == rndv_id))
                    .ok_or_else(|| {
                        MpiError::Protocol(format!("rendezvous data {rndv_id} without CTS"))
                    })?;
                let PostState::CtsSent { src, tag, .. } = p.state else {
                    unreachable!()
                };
                p.state = PostState::Done((src, tag, body));
                Ok(())
            }
        }
    }
}
