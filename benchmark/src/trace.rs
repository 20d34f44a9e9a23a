//! Benchmark-side tracing: spans around every MPI call an app makes,
//! recorded from this package's own files (spans inside the program are a
//! later change). Spans stay in memory until the app returns; the worker
//! writes them out after the run.
//!
//! With tracing off every method is the bare MPI call behind one
//! never-taken branch, so the end-to-end runs use the same app code.

use mvr_core::Rank;
use mvr_mpi::{MpiResult, RecvMsg, ReduceOp, Reducible, Request, Source, Tag};
use mvr_runtime::NodeMpi;
use serde::Serialize;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `op` is the identifier every span of one operation
/// shares; `parent` is the `id` of the enclosing `op` span on the same
/// rank (`None` for the `op` span itself).
#[derive(Clone, Debug, Serialize)]
pub struct SpanRec {
    /// Unique within `rank`.
    pub id: u64,
    /// Enclosing span on the same rank.
    pub parent: Option<u64>,
    /// `op`, `mpi.send`, `mpi.recv` or `mpi.allreduce`.
    pub name: &'static str,
    /// Recording rank.
    pub rank: u32,
    /// Operation index, shared by both ranks' spans of the same op.
    pub op: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub end_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Take every span flushed so far (the worker calls this after the run).
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"))
}

/// Per-rank span recorder handed through an app's MPI calls.
pub struct Tracer {
    rank: u32,
    /// `None` when tracing is off.
    spans: Option<Vec<SpanRec>>,
    next_id: u64,
    /// The open `op` span: (id, op index, start).
    open: Option<(u64, u64, u64)>,
}

impl Tracer {
    /// A tracer for `rank`; records only when `on`.
    pub fn new(rank: u32, on: bool) -> Tracer {
        Tracer {
            rank,
            spans: on.then(Vec::new),
            next_id: 0,
            open: None,
        }
    }

    /// Open the `op` span of operation `op`.
    pub fn op_begin(&mut self, op: u64) {
        if self.spans.is_some() {
            self.open = Some((self.next_id, op, now_ns()));
            self.next_id += 1;
        }
    }

    /// Close the open `op` span.
    pub fn op_end(&mut self) {
        if let (Some(spans), Some((id, op, start_ns))) = (&mut self.spans, self.open.take()) {
            spans.push(SpanRec {
                id,
                parent: None,
                name: "op",
                rank: self.rank,
                op,
                start_ns,
                end_ns: now_ns(),
            });
        }
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        let (parent, op) = self.open.map_or((None, 0), |(id, op, _)| (Some(id), op));
        let id = self.next_id;
        self.next_id += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(SpanRec {
                id,
                parent,
                name,
                rank: self.rank,
                op,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// `mpi.send` under an `mpi.send` span.
    pub fn send(&mut self, mpi: &mut NodeMpi, dst: Rank, tag: i32, bytes: &[u8]) -> MpiResult<()> {
        self.call("mpi.send", || mpi.send(dst, tag, bytes))
    }

    /// `mpi.isend` under an `mpi.send` span.
    pub fn isend(
        &mut self,
        mpi: &mut NodeMpi,
        dst: Rank,
        tag: i32,
        bytes: &[u8],
    ) -> MpiResult<Request> {
        self.call("mpi.send", || mpi.isend(dst, tag, bytes))
    }

    /// `mpi.recv` under an `mpi.recv` span.
    pub fn recv(&mut self, mpi: &mut NodeMpi, src: Source, tag: Tag) -> MpiResult<RecvMsg> {
        self.call("mpi.recv", || mpi.recv(src, tag))
    }

    /// `mpi.allreduce` under an `mpi.allreduce` span.
    pub fn allreduce<T: Reducible>(
        &mut self,
        mpi: &mut NodeMpi,
        op: ReduceOp,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        self.call("mpi.allreduce", || mpi.allreduce(op, data))
    }

    /// Hand this rank's spans to the process-wide sink.
    pub fn flush(&mut self) {
        if let Some(spans) = self.spans.take() {
            SINK.lock().expect("trace sink poisoned").extend(spans);
        }
    }
}

/// Median duration (ns) of the spans called `name`, 0 when there are none.
pub fn span_p50_ns(spans: &[SpanRec], name: &str) -> u64 {
    let durations = spans.iter().filter(|s| s.name == name);
    crate::stats::p50_or_zero(
        durations
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_of_named_spans() {
        let mk = |name, d: u64| SpanRec {
            id: 0,
            parent: None,
            name,
            rank: 0,
            op: 0,
            start_ns: 100,
            end_ns: 100 + d,
        };
        let spans = vec![
            mk("mpi.send", 10),
            mk("mpi.send", 30),
            mk("mpi.recv", 500),
            mk("mpi.send", 20),
        ];
        assert_eq!(span_p50_ns(&spans, "mpi.send"), 20);
        assert_eq!(span_p50_ns(&spans, "mpi.recv"), 500);
        assert_eq!(span_p50_ns(&spans, "op"), 0);
    }
}
