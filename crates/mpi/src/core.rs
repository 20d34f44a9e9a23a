//! The MPI protocol layer without I/O: matching, the unexpected and self
//! queues, and the eager/rendezvous protocol, as a state machine.
//!
//! Frames go in ([`MpiCore::on_frame`]) and frames to send come out
//! ([`MpiCore::pop_output`]), the idiom of `mvr_core::V2Engine`.
//! Completions are read back per request ([`MpiCore::take_recv`],
//! [`MpiCore::send_done`]). The blocking [`Mpi`](crate::Mpi) shell runs
//! it over a [`Channel`](crate::Channel); the cluster simulator runs the
//! same core in virtual time.
//!
//! Progress rule: incoming frames are matched against *posted* receive
//! requests first (in post order), falling back to the unexpected queue.
//! This is what makes symmetric rendezvous exchanges deadlock-free: while
//! a process waits for its own clear-to-send, its posted receives keep
//! granting the peer's rendezvous requests. Each receive completes when
//! its data lands, whatever the requests posted before it are waiting for.
//!
//! The core never copies a body. An eager send is shipped by the caller,
//! from the caller's buffer ([`SendStart::Eager`]); a rendezvous or
//! self-send body is taken once, as a [`Payload`], when the core must
//! keep it.

use crate::error::{MpiError, MpiResult};
use crate::wire::{Context, MpiFrame, Source, Tag, RNDV_THRESHOLD};
use mvr_core::{Payload, Rank};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

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

/// How a send started (see [`MpiCore::start_send`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStart {
    /// A send to self: queued locally, and complete.
    Local,
    /// Below [`RNDV_THRESHOLD`]: the caller ships the body now as one
    /// [`MpiFrame::Eager`]; the send is complete once it is shipped.
    Eager,
    /// At or above [`RNDV_THRESHOLD`]: the core keeps the body and has
    /// queued a rendezvous request. The send, with this id, completes when
    /// the peer's clear-to-send releases the data
    /// ([`MpiCore::send_done`]).
    Rendezvous(u64),
}

/// The MPI protocol state of one process.
#[derive(Clone, Debug)]
pub struct MpiCore {
    rank: Rank,
    st: MpiLibState,
    /// Posted receive requests, in post order.
    posted: Vec<PostedRecv>,
    /// Rendezvous sends awaiting their clear-to-send: id → (dst, body).
    pending_rndv: HashMap<u64, (Rank, Payload)>,
    /// Frames to send, oldest first.
    out: VecDeque<(Rank, MpiFrame)>,
}

impl MpiCore {
    /// A fresh core for `rank`.
    pub fn new(rank: Rank) -> Self {
        MpiCore {
            rank,
            st: MpiLibState::default(),
            posted: Vec::new(),
            pending_rndv: HashMap::new(),
            out: VecDeque::new(),
        }
    }

    /// A core for `rank` resumed from [`MpiCore::checkpoint_state`] bytes.
    pub(crate) fn restore(rank: Rank, state: &Payload) -> MpiResult<Self> {
        let st = bincode::deserialize(state.as_slice())
            .map_err(|e| MpiError::Protocol(format!("bad MPI state in checkpoint: {e}")))?;
        Ok(MpiCore {
            st,
            ..Self::new(rank)
        })
    }

    /// This process's rank.
    pub(crate) fn rank(&self) -> Rank {
        self.rank
    }

    /// The serialized library state for a checkpoint image. Fails with
    /// [`MpiError::PendingRequests`] while a request is outstanding.
    pub(crate) fn checkpoint_state(&self) -> MpiResult<Payload> {
        if !self.pending_rndv.is_empty() || !self.posted.is_empty() {
            return Err(MpiError::PendingRequests);
        }
        Ok(Payload::from_vec(
            bincode::serialize(&self.st).expect("MPI state serialization cannot fail"),
        ))
    }

    /// Number the next request (post order).
    pub(crate) fn next_request(&mut self) -> u64 {
        let s = self.st.next_req_seq;
        self.st.next_req_seq += 1;
        s
    }

    /// Allocate the next collective context (all ranks call collectives in
    /// the same order, so the counter matches globally).
    pub(crate) fn next_collective(&mut self) -> Context {
        let c = Context::Collective {
            seq: self.st.collective_seq,
        };
        self.st.collective_seq += 1;
        c
    }

    /// Start a send of `len` bytes, choosing the protocol. `body` is
    /// called only when the core must keep the body (self-sends and
    /// rendezvous); an eager body stays with the caller.
    pub fn start_send(
        &mut self,
        dst: Rank,
        context: Context,
        tag: i32,
        len: usize,
        body: impl FnOnce() -> Payload,
    ) -> SendStart {
        if dst == self.rank {
            self.st.self_queue.push_back((context, tag, body()));
            // A self-send may satisfy an already-posted receive.
            self.match_self_queue();
            return SendStart::Local;
        }
        if len < RNDV_THRESHOLD {
            return SendStart::Eager;
        }
        let rndv_id = self.st.next_rndv_id;
        self.st.next_rndv_id += 1;
        let req = MpiFrame::RndvReq {
            context,
            tag,
            rndv_id,
            len: len as u64,
        };
        self.out.push_back((dst, req));
        self.pending_rndv.insert(rndv_id, (dst, body()));
        SendStart::Rendezvous(rndv_id)
    }

    /// Has rendezvous send `id` released its data?
    pub fn send_done(&self, id: u64) -> bool {
        !self.pending_rndv.contains_key(&id)
    }

    /// Post a receive request: try the self queue and the unexpected queue
    /// immediately, then enroll for passive matching. Returns its number.
    pub fn post_recv(&mut self, src: Source, tag: Tag, context: Context) -> u64 {
        let seq = self.next_request();
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
                return seq;
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
            entry.state = self.matched(u.src, u.tag, u.kind);
        }
        self.posted.push(entry);
        seq
    }

    /// Has posted receive `seq` completed?
    pub fn recv_done(&self, seq: u64) -> bool {
        self.posted
            .iter()
            .any(|p| p.seq == seq && matches!(p.state, PostState::Done(_)))
    }

    /// Take the message of posted receive `seq` once it has completed
    /// (the request is then gone); `None` while it is pending.
    pub fn take_recv(&mut self, seq: u64) -> MpiResult<Option<RecvMsg>> {
        let idx = self
            .posted
            .iter()
            .position(|p| p.seq == seq)
            .ok_or_else(|| MpiError::Protocol(format!("unknown receive request {seq}")))?;
        if !matches!(self.posted[idx].state, PostState::Done(_)) {
            return Ok(None);
        }
        let PostState::Done(m) = self.posted.remove(idx).state else {
            unreachable!()
        };
        Ok(Some(m))
    }

    /// Is there an unmatched (not claimed by a posted request)
    /// point-to-point message satisfying the selectors? Used by probes.
    pub(crate) fn has_unmatched(&self, src: Source, tag: Tag) -> bool {
        let p2p = Context::PointToPoint;
        (src.matches(self.rank)
            && self
                .st
                .self_queue
                .iter()
                .any(|(c, t, _)| *c == p2p && tag.matches(*t)))
            || self
                .st
                .unexpected
                .iter()
                .any(|u| src.matches(u.src) && tag.matches(u.tag) && u.context == p2p)
    }

    /// Route one frame from `from`: posted requests first (post order),
    /// then the unexpected queue.
    pub fn on_frame(&mut self, from: Rank, frame: MpiFrame) -> MpiResult<()> {
        let (context, tag, kind) = match frame {
            MpiFrame::Eager { context, tag, body } => (context, tag, UnexpKind::Eager(body)),
            MpiFrame::RndvReq {
                context,
                tag,
                rndv_id,
                len: _,
            } => (context, tag, UnexpKind::Rndv { rndv_id }),
            MpiFrame::RndvCts { rndv_id } => {
                let (dst, body) = self
                    .pending_rndv
                    .remove(&rndv_id)
                    .ok_or_else(|| MpiError::Protocol(format!("CTS for unknown rndv {rndv_id}")))?;
                self.out
                    .push_back((dst, MpiFrame::RndvData { rndv_id, body }));
                return Ok(());
            }
            MpiFrame::RndvData { rndv_id, body } => {
                let p = self
                    .posted
                    .iter_mut()
                    .find(|p| {
                        matches!(p.state, PostState::CtsSent { rndv_id: id, src, .. }
                            if id == rndv_id && src == from)
                    })
                    .ok_or_else(|| {
                        MpiError::Protocol(format!("rendezvous data {rndv_id} without CTS"))
                    })?;
                let PostState::CtsSent { src, tag, .. } = p.state else {
                    unreachable!()
                };
                p.state = PostState::Done((src, tag, body));
                return Ok(());
            }
        };
        match self.waiting(from, context, tag) {
            Some(i) => self.posted[i].state = self.matched(from, tag, kind),
            None => self.st.unexpected.push_back(Unexpected {
                src: from,
                context,
                tag,
                kind,
            }),
        }
        Ok(())
    }

    /// The state of a posted receive matched to a message from `src`; a
    /// rendezvous request is granted its clear-to-send.
    fn matched(&mut self, src: Rank, tag: i32, kind: UnexpKind) -> PostState {
        match kind {
            UnexpKind::Eager(body) => PostState::Done((src, tag, body)),
            UnexpKind::Rndv { rndv_id } => {
                self.out.push_back((src, MpiFrame::RndvCts { rndv_id }));
                PostState::CtsSent { rndv_id, src, tag }
            }
        }
    }

    /// Take the oldest frame to send, with its destination.
    pub fn pop_output(&mut self) -> Option<(Rank, MpiFrame)> {
        self.out.pop_front()
    }

    /// The first unmatched posted receive a message from `from` satisfies.
    fn waiting(&self, from: Rank, context: Context, tag: i32) -> Option<usize> {
        self.posted.iter().position(|p| {
            matches!(p.state, PostState::Waiting)
                && p.context == context
                && p.src.matches(from)
                && p.tag.matches(tag)
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const P2P: Context = Context::PointToPoint;

    fn body(len: usize) -> Payload {
        Payload::filled(7, len)
    }

    /// Deliver every output of `from` to `to`.
    fn shuttle(from: &mut MpiCore, to: &mut MpiCore) {
        while let Some((dst, frame)) = from.pop_output() {
            assert_eq!(dst, to.rank());
            to.on_frame(from.rank(), frame).unwrap();
        }
    }

    #[test]
    fn the_threshold_picks_the_protocol() {
        let mut a = MpiCore::new(Rank(0));
        let small = a.start_send(Rank(1), P2P, 0, RNDV_THRESHOLD - 1, || unreachable!());
        assert_eq!(small, SendStart::Eager);
        assert!(a.pop_output().is_none(), "the caller ships an eager body");
        let large = a.start_send(Rank(1), P2P, 0, RNDV_THRESHOLD, || body(RNDV_THRESHOLD));
        assert_eq!(large, SendStart::Rendezvous(0));
        assert!(matches!(
            a.pop_output(),
            Some((Rank(1), MpiFrame::RndvReq { rndv_id: 0, .. }))
        ));
        assert!(!a.send_done(0));
        assert_eq!(
            a.start_send(Rank(0), P2P, 0, 1 << 20, || body(1)),
            SendStart::Local
        );
    }

    #[test]
    fn a_receive_completes_when_its_data_lands() {
        // From one source: a rendezvous message, then an eager one. The
        // second receive completes while the first still waits for data.
        let (mut a, mut b) = (MpiCore::new(Rank(0)), MpiCore::new(Rank(1)));
        let big = RNDV_THRESHOLD + 1;
        let first = b.post_recv(Source::Rank(Rank(0)), Tag::Any, P2P);
        let second = b.post_recv(Source::Rank(Rank(0)), Tag::Any, P2P);
        let SendStart::Rendezvous(id) = a.start_send(Rank(1), P2P, 1, big, || body(big)) else {
            panic!("rendezvous expected")
        };
        shuttle(&mut a, &mut b);
        b.on_frame(
            Rank(0),
            MpiFrame::Eager {
                context: P2P,
                tag: 2,
                body: body(3),
            },
        )
        .unwrap();
        assert!(b.recv_done(second) && !b.recv_done(first));
        assert_eq!(b.take_recv(second).unwrap().unwrap().1, 2);
        shuttle(&mut b, &mut a); // the CTS
        assert!(a.send_done(id));
        shuttle(&mut a, &mut b); // the data
        let (src, tag, got) = b.take_recv(first).unwrap().unwrap();
        assert_eq!((src, tag, got.len()), (Rank(0), 1, big));
        assert!(b.take_recv(first).is_err(), "a taken request is gone");
    }

    #[test]
    fn rendezvous_ids_are_per_sender() {
        // Two senders number their rendezvous alike; each data frame
        // completes the receive its own sender's request matched.
        let mut c = MpiCore::new(Rank(2));
        let from_a = c.post_recv(Source::Rank(Rank(0)), Tag::Any, P2P);
        let from_b = c.post_recv(Source::Rank(Rank(1)), Tag::Any, P2P);
        for (src, len) in [(Rank(0), 5), (Rank(1), 9)] {
            let req = MpiFrame::RndvReq {
                context: P2P,
                tag: 0,
                rndv_id: 0,
                len,
            };
            c.on_frame(src, req).unwrap();
        }
        c.on_frame(
            Rank(1),
            MpiFrame::RndvData {
                rndv_id: 0,
                body: body(9),
            },
        )
        .unwrap();
        assert!(!c.recv_done(from_a));
        assert_eq!(c.take_recv(from_b).unwrap().unwrap().2.len(), 9);
        c.on_frame(
            Rank(0),
            MpiFrame::RndvData {
                rndv_id: 0,
                body: body(5),
            },
        )
        .unwrap();
        assert_eq!(c.take_recv(from_a).unwrap().unwrap().2.len(), 5);
    }

    #[test]
    fn checkpoints_wait_for_quiescence_and_restore_the_queues() {
        let mut a = MpiCore::new(Rank(0));
        a.on_frame(
            Rank(1),
            MpiFrame::Eager {
                context: P2P,
                tag: 4,
                body: body(2),
            },
        )
        .unwrap();
        let seq = a.post_recv(Source::Any, Tag::Value(9), P2P);
        assert!(matches!(
            a.checkpoint_state(),
            Err(MpiError::PendingRequests)
        ));
        a.on_frame(
            Rank(1),
            MpiFrame::Eager {
                context: P2P,
                tag: 9,
                body: body(1),
            },
        )
        .unwrap();
        assert!(a.take_recv(seq).unwrap().is_some());
        let image = a.checkpoint_state().unwrap();
        let mut back = MpiCore::restore(Rank(0), &image).unwrap();
        assert!(back.has_unmatched(Source::Rank(Rank(1)), Tag::Value(4)));
        let seq = back.post_recv(Source::Any, Tag::Any, P2P);
        assert_eq!(back.take_recv(seq).unwrap().unwrap().1, 4);
        assert!(MpiCore::restore(Rank(0), &Payload::from_vec(vec![0xFF])).is_err());
    }

    #[test]
    fn unknown_handshake_frames_are_protocol_errors() {
        let mut a = MpiCore::new(Rank(0));
        for frame in [
            MpiFrame::RndvCts { rndv_id: 3 },
            MpiFrame::RndvData {
                rndv_id: 3,
                body: body(1),
            },
        ] {
            assert!(matches!(
                a.on_frame(Rank(1), frame),
                Err(MpiError::Protocol(_))
            ));
        }
    }
}
