//! Offline analyzer for flight-recorder JSONL dumps — the one place a
//! dump is audited and drawn.
//!
//! Reads a dump written by [`mvr_obs::RecorderHub::dump`] (`obs_smoke`,
//! `chaos_soak`, `mpirun --obs-dir`) or [`mvr_obs::merge_dump_files`]
//! (the socket backend's `merged.jsonl`), then:
//!
//!   1. runs the strict [`mvr_obs::audit`]: header record count and
//!      drops, record schema and per-rank clock monotonicity, orphan
//!      span edges (a delivery with no send, a wire send never
//!      delivered, a send stuck behind the gate), and an offline replay
//!      of the invariant monitor (pessimism gate, watermark
//!      monotonicity, exactly-once delivery);
//!   2. reports per-message span latency percentiles and the slowest
//!      messages;
//!   3. builds the cross-rank happens-before DAG and walks the critical
//!      path backwards from the last record, attributing wall-clock to
//!      network / gate-wait / EL round-trip / checkpoint / replay /
//!      local computation and naming the dominant component;
//!   4. writes the Perfetto trace next to the dump (`<stem>.trace.json`:
//!      per-record instants, measured-interval slices, per-message flow
//!      arrows — [`mvr_obs::write_trace`]).
//!
//! A malformed dump (header count mismatch, schema violation) always
//! fails. `--strict` also exits nonzero on any strict finding — a
//! ring-truncated timeline, an orphan edge, an invariant violation —
//! the CI mode.
//!
//! Usage: `obs_analyze [--strict] [--top N] <dump.jsonl>`

use mvr_obs::{audit, read_dump, write_trace, CausalGraph};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: obs_analyze [--strict] [--top N] <dump.jsonl>");
    std::process::exit(1);
}

fn fail(msg: &str) -> ! {
    eprintln!("obs_analyze: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut strict = false;
    let mut top = 5usize;
    let mut path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ if path.is_none() => path = Some(PathBuf::from(a)),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };

    let (header, timeline) = read_dump(&path).unwrap_or_else(|e| fail(&e));

    println!(
        "obs_analyze: {} — {} records",
        path.display(),
        timeline.len()
    );
    let audit = audit(header.as_ref(), &timeline).unwrap_or_else(|e| fail(&e));
    match header {
        Some(h) => {
            if h.dropped > 0 {
                println!(
                    "  WARNING: {} record(s) lost to ring wraparound — the timeline is \
                     truncated; orphan spans below may be artifacts of the truncation",
                    h.dropped
                );
            }
            if !h.track.is_empty() {
                // Clock correction the merge already applied: the body's
                // timestamps include these per-rank shifts.
                println!("  clock correction applied:");
                for t in &h.track {
                    println!("    rank {}: {}", t.rank, t.track());
                }
            }
            if !h.unconstrained.is_empty() {
                let ranks: Vec<String> = h.unconstrained.iter().map(|r| r.to_string()).collect();
                println!(
                    "  WARNING: rank(s) {} had zero causal edges — their offset 0 is \
                     unmeasured, not verified",
                    ranks.join(", ")
                );
            }
        }
        None => println!("  note: headerless dump (pre-header format); drop count unknown"),
    }

    print!("{}", audit.spans.report(top));

    let graph = CausalGraph::build(&timeline);
    println!(
        "causal graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    match graph.critical_path(&timeline) {
        Some(cp) => print!("{}", cp.report(&timeline, top)),
        None => println!("critical path: empty timeline"),
    }

    match &audit.violation {
        Some(v) => println!("invariants: VIOLATED — {v}"),
        None => println!("invariants: ok ({} records audited)", audit.audited),
    }

    let trace = path.with_extension("trace.json");
    match write_trace(&trace, &timeline, &audit.spans) {
        Ok(()) => println!("trace: {}", trace.display()),
        Err(e) => fail(&format!("write {}: {e}", trace.display())),
    }

    if strict && !audit.findings.is_empty() {
        fail(&format!("--strict: {}", audit.findings.join("; ")));
    }
    println!("obs_analyze: ok");
}
