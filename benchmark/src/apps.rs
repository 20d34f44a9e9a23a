//! The timed applications: the benchmark's own `MpiApp` closures, with the
//! seeded payload generator and the per-message verification they share.
//!
//! Every app has the same skeleton: build its inputs from the seed, pass
//! one `barrier` (the end of set-up), run `warm + ops` operations of which
//! the last `ops` are timed on the rank's own clock, and return a
//! bincode-encoded [`RankOut`] as its result payload — the one channel
//! that exists on both backends.

use crate::trace::Tracer;
use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiError, MpiResult, ReduceOp, Source, Tag};
use mvr_obs::unix_now_ns;
use mvr_runtime::{MpiApp, NodeMpi};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

const DATA: i32 = 11;
const ACK: i32 = 12;
const HALO: i32 = 101;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Distinct payloads per sender; message `i` carries payload `i % POOL`.
const POOL: usize = 8;

/// What one rank reports at the end of a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RankOut {
    /// Wall clock (unix ns) at which this rank returned from its first
    /// barrier.
    pub ready_unix_ns: u64,
    /// Length of this rank's timed region.
    pub run_ns: u64,
    /// Latency of each timed op, in op order (rank 0 only).
    pub op_ns: Vec<u64>,
    /// Fold of the checksums of every payload received, warm-up included.
    pub recv_fold: u64,
    /// Messages whose verification failed.
    pub bad: u64,
    /// CG only: iterations run and the solution checksum.
    pub iterations: u32,
    /// CG only: sum of the solution entries.
    pub solution_sum: f64,
}

/// Which program the ranks run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// Rank 0 sends, rank 1 echoes its own payload back: one op = one
    /// round trip.
    PingPong,
    /// Rank 0 sends `window` messages, rank 1 answers with one empty
    /// ack: one op = one window including its ack.
    Stream,
    /// Conjugate gradient on the 1-D Laplacian, the skeleton of
    /// `mvr_workloads::cg` with a clock around each iteration: one op =
    /// one iteration.
    Cg,
}

/// Everything an app needs to know; travels to socket children as a
/// whitespace-separated spec string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppSpec {
    /// The program.
    pub kind: AppKind,
    /// Timed ops.
    pub ops: u64,
    /// Untimed ops run first.
    pub warm: u64,
    /// Payload bytes per message (ping-pong, stream) or unknowns (CG).
    pub size: usize,
    /// Messages per op (stream only).
    pub window: u64,
    /// Seed of the payload generator.
    pub seed: u64,
}

impl AppSpec {
    /// The spec string handed to `run_proc` children.
    pub fn encode(&self) -> String {
        let kind = match self.kind {
            AppKind::PingPong => "pingpong",
            AppKind::Stream => "stream",
            AppKind::Cg => "cg",
        };
        format!(
            "{kind} {} {} {} {} {}",
            self.ops, self.warm, self.size, self.window, self.seed
        )
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(spec: &str) -> Option<AppSpec> {
        let mut it = spec.split_whitespace();
        let kind = match it.next()? {
            "pingpong" => AppKind::PingPong,
            "stream" => AppKind::Stream,
            "cg" => AppKind::Cg,
            _ => return None,
        };
        let mut num = || it.next()?.parse::<u64>().ok();
        Some(AppSpec {
            kind,
            ops: num()?,
            warm: num()?,
            size: usize::try_from(num()?).ok()?,
            window: num()?,
            seed: num()?,
        })
    }
}

/// FNV-1a over 64-bit words in four interleaved lanes (then the tail
/// bytes): the per-message check must cost far less than moving the
/// message, and byte-wise FNV would double the cost of a 64 KiB op.
pub fn fnv_words(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = lanes
        .iter()
        .fold(FNV_OFFSET, |h, l| (h ^ l).wrapping_mul(FNV_PRIME));
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded payloads of one sender. A message is the op index (8 bytes,
/// when it fits) followed by the pool entry's body; the receiver rebuilds
/// the same pool from the seed and compares index and body checksum.
pub struct PayloadPool {
    size: usize,
    bufs: Vec<Vec<u8>>,
    sums: Vec<u64>,
}

impl PayloadPool {
    /// The pool `sender` draws from under `seed`.
    pub fn new(seed: u64, sender: u32, size: usize) -> PayloadPool {
        let mut state = seed ^ (u64::from(sender) + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let bufs: Vec<Vec<u8>> = (0..POOL)
            .map(|_| {
                let mut b = Vec::with_capacity(size + 8);
                while b.len() < size {
                    b.extend_from_slice(&splitmix(&mut state).to_le_bytes());
                }
                b.truncate(size);
                b
            })
            .collect();
        let sums = bufs.iter().map(|b| fnv_words(Self::body(b))).collect();
        PayloadPool { size, bufs, sums }
    }

    fn body(msg: &[u8]) -> &[u8] {
        msg.get(8..).unwrap_or(&[])
    }

    /// Message `i`, ready to send.
    pub fn message(&mut self, i: u64) -> &[u8] {
        let buf = &mut self.bufs[(i % POOL as u64) as usize];
        if let Some(head) = buf.get_mut(..8) {
            head.copy_from_slice(&i.to_le_bytes());
        }
        buf
    }

    /// Whether `msg` is message `i` of this pool.
    pub fn verify(&self, i: u64, msg: &[u8]) -> bool {
        let head_ok = msg.get(..8).is_none_or(|h| h == i.to_le_bytes());
        msg.len() == self.size
            && head_ok
            && fnv_words(Self::body(msg)) == self.sums[(i % POOL as u64) as usize]
    }

    /// One step of the receive fold: message `i` of this pool arrived.
    pub fn fold(&self, acc: u64, i: u64) -> u64 {
        (acc ^ self.sums[(i % POOL as u64) as usize] ^ i).wrapping_mul(FNV_PRIME)
    }

    /// The fold a receiver of messages `0..n` must end with.
    pub fn expected_fold(&self, n: u64) -> u64 {
        (0..n).fold(FNV_OFFSET, |acc, i| self.fold(acc, i))
    }
}

fn encode_out(out: &RankOut) -> Payload {
    Payload::from_vec(bincode::serialize(out).expect("RankOut serializes"))
}

/// Decode a rank's result payload.
pub fn decode_out(p: &Payload) -> Option<RankOut> {
    bincode::deserialize(p.as_slice()).ok()
}

/// Per-op clock of the timing rank: one `Instant::now()` per op boundary,
/// warm-up ops discarded.
struct OpClock {
    warm: u64,
    done: u64,
    last: Instant,
    start: Instant,
    op_ns: Vec<u64>,
}

impl OpClock {
    fn new(warm: u64, ops: u64) -> OpClock {
        let now = Instant::now();
        OpClock {
            warm,
            done: 0,
            last: now,
            start: now,
            op_ns: Vec::with_capacity(ops as usize),
        }
    }

    fn op_done(&mut self) {
        let now = Instant::now();
        self.done += 1;
        if self.done > self.warm {
            self.op_ns.push((now - self.last).as_nanos() as u64);
        } else {
            self.start = now;
        }
        self.last = now;
    }

    fn finish(self, out: &mut RankOut) {
        out.run_ns = (self.last - self.start).as_nanos() as u64;
        out.op_ns = self.op_ns;
    }
}

fn pingpong(spec: AppSpec, mpi: &mut NodeMpi, tr: &mut Tracer) -> MpiResult<RankOut> {
    let me = mpi.rank().0;
    let peer = Rank(1 - me);
    let mut mine = PayloadPool::new(spec.seed, me, spec.size);
    let theirs = PayloadPool::new(spec.seed, peer.0, spec.size);
    let mut out = RankOut {
        recv_fold: FNV_OFFSET,
        ..Default::default()
    };
    mpi.barrier()?;
    out.ready_unix_ns = unix_now_ns();
    let mut clock = OpClock::new(spec.warm, spec.ops);
    for i in 0..spec.warm + spec.ops {
        tr.op_begin(i);
        if me == 0 {
            tr.send(mpi, peer, DATA, mine.message(i))?;
        }
        let (_, _, body) = tr.recv(mpi, Source::Rank(peer), Tag::Value(DATA))?;
        if !theirs.verify(i, body.as_slice()) {
            out.bad += 1;
        }
        out.recv_fold = theirs.fold(out.recv_fold, i);
        if me == 1 {
            tr.send(mpi, peer, DATA, mine.message(i))?;
        }
        tr.op_end();
        clock.op_done();
    }
    clock.finish(&mut out);
    Ok(out)
}

fn stream(spec: AppSpec, mpi: &mut NodeMpi, tr: &mut Tracer) -> MpiResult<RankOut> {
    let me = mpi.rank().0;
    let peer = Rank(1 - me);
    let mut pool = PayloadPool::new(spec.seed, 0, spec.size);
    let mut out = RankOut {
        recv_fold: FNV_OFFSET,
        ..Default::default()
    };
    mpi.barrier()?;
    out.ready_unix_ns = unix_now_ns();
    let mut clock = OpClock::new(spec.warm, spec.ops);
    for op in 0..spec.warm + spec.ops {
        tr.op_begin(op);
        for k in 0..spec.window {
            let i = op * spec.window + k;
            if me == 0 {
                tr.send(mpi, peer, DATA, pool.message(i))?;
            } else {
                let (_, _, body) = tr.recv(mpi, Source::Rank(peer), Tag::Value(DATA))?;
                if !pool.verify(i, body.as_slice()) {
                    out.bad += 1;
                }
                out.recv_fold = pool.fold(out.recv_fold, i);
            }
        }
        if me == 0 {
            let (_, _, ack) = tr.recv(mpi, Source::Rank(peer), Tag::Value(ACK))?;
            if !ack.is_empty() {
                out.bad += 1;
            }
        } else {
            tr.send(mpi, peer, ACK, &[])?;
        }
        tr.op_end();
        clock.op_done();
    }
    clock.finish(&mut out);
    Ok(out)
}

/// Tolerance on ‖r‖² at which the CG workload stops.
pub const CG_TOL: f64 = 1e-10;

fn halo(mpi: &mut NodeMpi, tr: &mut Tracer, from: Rank) -> MpiResult<f64> {
    let (_, _, b) = tr.recv(mpi, Source::Rank(from), Tag::Value(HALO))?;
    let b: [u8; 8] = b
        .as_slice()
        .try_into()
        .map_err(|_| MpiError::Protocol("halo is not 8 bytes".into()))?;
    Ok(f64::from_le_bytes(b))
}

/// The solver of `mvr_workloads::cg` (same partition, same exchange, same
/// arithmetic, `b = 1`) with the loop opened up so each iteration can be
/// timed; the worker checks its result against the library's own `cg` on
/// one rank.
fn cg(spec: AppSpec, mpi: &mut NodeMpi, tr: &mut Tracer) -> MpiResult<RankOut> {
    let (me, p, n) = (mpi.rank().0, mpi.size(), spec.size);
    let len = n / p as usize + usize::from((me as usize) < n % p as usize);
    let left = (me > 0).then(|| Rank(me - 1));
    let right = (me + 1 < p).then(|| Rank(me + 1));
    let (mut x, mut r, mut d) = (vec![0.0f64; len], vec![1.0f64; len], vec![1.0f64; len]);
    let mut ad = vec![0.0f64; len];
    let mut rr = n as f64;
    let mut out = RankOut::default();
    mpi.barrier()?;
    out.ready_unix_ns = unix_now_ns();
    let mut clock = OpClock::new(0, spec.ops);
    let dot = |mpi: &mut NodeMpi, tr: &mut Tracer, a: &[f64], b: &[f64]| {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        Ok::<f64, MpiError>(tr.allreduce(mpi, ReduceOp::Sum, &[local])?[0])
    };
    while u64::from(out.iterations) < spec.ops && rr > CG_TOL {
        tr.op_begin(u64::from(out.iterations));
        let (first, last) = (d[0], d[len - 1]);
        let mut reqs = Vec::new();
        if let Some(l) = left {
            reqs.push(tr.isend(mpi, l, HALO, &first.to_le_bytes())?);
        }
        if let Some(rk) = right {
            reqs.push(tr.isend(mpi, rk, HALO, &last.to_le_bytes())?);
        }
        let lo = left.map_or(Ok(0.0), |l| halo(mpi, tr, l))?;
        let hi = right.map_or(Ok(0.0), |rk| halo(mpi, tr, rk))?;
        for rq in reqs {
            mpi.wait(rq)?;
        }
        for i in 0..len {
            let below = if i == 0 { lo } else { d[i - 1] };
            let above = if i + 1 == len { hi } else { d[i + 1] };
            ad[i] = 2.0 * d[i] - below - above;
        }
        let alpha = rr / dot(mpi, tr, &d, &ad)?;
        for i in 0..len {
            x[i] += alpha * d[i];
            r[i] -= alpha * ad[i];
        }
        let rr_new = dot(mpi, tr, &r, &r)?;
        let beta = rr_new / rr;
        for i in 0..len {
            d[i] = r[i] + beta * d[i];
        }
        rr = rr_new;
        out.iterations += 1;
        tr.op_end();
        clock.op_done();
    }
    let local: f64 = x.iter().sum();
    out.solution_sum = tr.allreduce(mpi, ReduceOp::Sum, &[local])?[0];
    clock.finish(&mut out);
    Ok(out)
}

/// The application for `spec`, usable on either backend. `trace` turns on
/// the benchmark-side spans around every MPI call.
pub fn make_app(spec: AppSpec, trace: bool) -> Arc<dyn MpiApp> {
    Arc::new(move |mpi: &mut NodeMpi, _restored: Option<Payload>| {
        let mut tr = Tracer::new(mpi.rank().0, trace);
        let out = match spec.kind {
            AppKind::PingPong => pingpong(spec, mpi, &mut tr),
            AppKind::Stream => stream(spec, mpi, &mut tr),
            AppKind::Cg => cg(spec, mpi, &mut tr),
        }?;
        tr.flush();
        Ok(encode_out(&out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips() {
        let s = AppSpec {
            kind: AppKind::Stream,
            ops: 10,
            warm: 1,
            size: 65536,
            window: 4,
            seed: 7,
        };
        assert_eq!(AppSpec::decode(&s.encode()), Some(s));
        assert_eq!(AppSpec::decode("ring 5"), None);
    }

    #[test]
    fn pool_verifies_its_own_messages_only() {
        let mut a = PayloadPool::new(1, 0, 64);
        let b = PayloadPool::new(1, 0, 64);
        let other = PayloadPool::new(2, 0, 64);
        let msg = a.message(13).to_vec();
        assert!(b.verify(13, &msg));
        assert!(!b.verify(14, &msg));
        assert!(!other.verify(13, &msg));
        let mut bent = msg.clone();
        bent[40] ^= 1;
        assert!(!b.verify(13, &bent));
        assert!(!b.verify(13, &msg[..63]));
    }

    #[test]
    fn empty_payloads_verify_by_length() {
        let mut a = PayloadPool::new(1, 0, 0);
        assert!(a.message(3).is_empty());
        assert!(a.verify(3, &[]));
        assert!(!a.verify(3, &[0]));
    }

    #[test]
    fn fnv_words_sees_every_byte() {
        let base = vec![5u8; 100];
        let h = fnv_words(&base);
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] ^= 0x80;
            assert_ne!(fnv_words(&v), h, "byte {i}");
        }
    }
}
