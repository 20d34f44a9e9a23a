//! Per-rank operation traces — the workload representation the simulator
//! interprets.
//!
//! Workload generators (`mvr-workloads`) lower each benchmark — including
//! its collectives — into per-rank sequences of these primitive ops.
//! The simulator runs each rank's ops through `mvr-mpi`'s core: a send
//! carries tag 0 and a receive names its source and any tag, so matching
//! is per-source FIFO (tags are unnecessary at this level: the NAS trace
//! models are deterministic programs).

use serde::{Deserialize, Serialize};

/// A request handle inside a trace: the index of the `Isend`/`Irecv` op
/// *within its own rank's trace* that created it.
pub type ReqHandle = usize;

/// One traced operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Busy CPU time (ns).
    Compute(u64),
    /// Blocking send of `bytes` to `dst` (completes when the payload has
    /// left this node).
    Send {
        /// Destination rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive of the next unconsumed message from `src`.
    Recv {
        /// Source rank.
        src: usize,
    },
    /// Nonblocking send; completed by a `Wait` on this op's index.
    Isend {
        /// Destination rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
    },
    /// Nonblocking receive; completed by a `Wait` on this op's index.
    Irecv {
        /// Source rank.
        src: usize,
    },
    /// Block until the request created at trace index `req` completes.
    Wait {
        /// Trace index of the `Isend`/`Irecv`.
        req: ReqHandle,
    },
    /// Block until every outstanding request completes.
    WaitAll,
    /// A quiescent point where a daemon-ordered checkpoint may be taken
    /// (our Condor substitution; free when no checkpoint is pending).
    CheckpointSite,
}

/// A builder for one rank's trace with convenient request plumbing.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    ops: Vec<Op>,
}

impl TraceBuilder {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append busy time.
    pub fn compute(&mut self, ns: u64) -> &mut Self {
        if ns > 0 {
            self.ops.push(Op::Compute(ns));
        }
        self
    }

    /// Append a blocking send.
    pub fn send(&mut self, dst: usize, bytes: u64) -> &mut Self {
        self.ops.push(Op::Send { dst, bytes });
        self
    }

    /// Append a blocking receive.
    pub fn recv(&mut self, src: usize) -> &mut Self {
        self.ops.push(Op::Recv { src });
        self
    }

    /// Append a nonblocking send, returning its handle.
    pub fn isend(&mut self, dst: usize, bytes: u64) -> ReqHandle {
        self.ops.push(Op::Isend { dst, bytes });
        self.ops.len() - 1
    }

    /// Append a nonblocking receive, returning its handle.
    pub fn irecv(&mut self, src: usize) -> ReqHandle {
        self.ops.push(Op::Irecv { src });
        self.ops.len() - 1
    }

    /// Append a wait on one handle.
    pub fn wait(&mut self, req: ReqHandle) -> &mut Self {
        self.ops.push(Op::Wait { req });
        self
    }

    /// Append a wait on everything outstanding.
    pub fn waitall(&mut self) -> &mut Self {
        self.ops.push(Op::WaitAll);
        self
    }

    /// Append a checkpoint site.
    pub fn checkpoint_site(&mut self) -> &mut Self {
        self.ops.push(Op::CheckpointSite);
        self
    }

    /// Append a blocking exchange (isend + recv + wait) — the deadlock-free
    /// neighbour exchange used by most kernels.
    pub fn sendrecv(&mut self, dst: usize, bytes: u64, src: usize) -> &mut Self {
        let r = self.isend(dst, bytes);
        self.recv(src);
        self.wait(r);
        self
    }

    /// Finish the trace.
    pub fn build(self) -> Vec<Op> {
        self.ops
    }

    /// Current length (next op index).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Count the messages and bytes a trace set will move (sanity checks and
/// log-volume prediction).
pub fn traffic_summary(traces: &[Vec<Op>]) -> (u64, u64) {
    let mut msgs = 0u64;
    let mut bytes = 0u64;
    for t in traces {
        for op in t {
            match op {
                Op::Send { bytes: b, .. } | Op::Isend { bytes: b, .. } => {
                    msgs += 1;
                    bytes += b;
                }
                _ => {}
            }
        }
    }
    (msgs, bytes)
}

/// Validate that every send has a matching receive (per ordered pair) —
/// catches malformed workload generators early.
pub fn validate_matching(traces: &[Vec<Op>]) -> Result<(), String> {
    let n = traces.len();
    let mut sends = vec![vec![0u64; n]; n];
    let mut recvs = vec![vec![0u64; n]; n];
    for (r, t) in traces.iter().enumerate() {
        for op in t {
            match op {
                Op::Send { dst, .. } | Op::Isend { dst, .. } => {
                    if *dst >= n {
                        return Err(format!("rank {r} sends to out-of-range {dst}"));
                    }
                    if *dst == r {
                        return Err(format!("rank {r} sends to itself (not modeled)"));
                    }
                    sends[r][*dst] += 1;
                }
                Op::Recv { src } | Op::Irecv { src } => {
                    if *src >= n {
                        return Err(format!("rank {r} receives from out-of-range {src}"));
                    }
                    recvs[*src][r] += 1;
                }
                _ => {}
            }
        }
    }
    for s in 0..n {
        for d in 0..n {
            if sends[s][d] != recvs[s][d] {
                return Err(format!(
                    "pair {s}->{d}: {} sends but {} receives",
                    sends[s][d], recvs[s][d]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_ops() {
        let mut b = TraceBuilder::new();
        b.compute(100);
        let r = b.isend(1, 64);
        b.recv(1);
        b.wait(r);
        let t = b.build();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], Op::Compute(100));
        assert_eq!(t[1], Op::Isend { dst: 1, bytes: 64 });
        assert_eq!(t[3], Op::Wait { req: 1 });
    }

    #[test]
    fn zero_compute_skipped() {
        let mut b = TraceBuilder::new();
        b.compute(0);
        assert!(b.is_empty());
    }

    #[test]
    fn traffic_summary_counts() {
        let mut a = TraceBuilder::new();
        a.send(1, 100);
        a.isend(1, 50);
        let mut b = TraceBuilder::new();
        b.recv(0);
        b.recv(0);
        let traces = vec![a.build(), b.build()];
        assert_eq!(traffic_summary(&traces), (2, 150));
        assert!(validate_matching(&traces).is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut a = TraceBuilder::new();
        a.send(1, 100);
        let traces = vec![a.build(), vec![]];
        assert!(validate_matching(&traces).is_err());

        let mut c = TraceBuilder::new();
        c.send(0, 1);
        assert!(
            validate_matching(&[c.build()]).is_err(),
            "self-send rejected"
        );
    }

    #[test]
    fn sendrecv_helper_wires_requests() {
        let mut a = TraceBuilder::new();
        a.sendrecv(1, 8, 1);
        let t = a.build();
        assert_eq!(
            t,
            vec![
                Op::Isend { dst: 1, bytes: 8 },
                Op::Recv { src: 1 },
                Op::Wait { req: 0 }
            ]
        );
    }
}
