//! Offline analyzer for flight-recorder JSONL dumps.
//!
//! Reads a dump produced by [`mvr_obs::RecorderHub::dump`] (e.g. by
//! `obs_smoke` or `chaos_soak`), then:
//!
//!   1. re-validates the record schema and per-rank clock monotonicity;
//!   2. stitches per-message lifecycle spans keyed by
//!      `(sender, sender_clock)` and reports latency percentiles,
//!      slowest messages, and orphan edges (a delivery with no send, a
//!      wire send never delivered, a send stuck behind the gate);
//!   3. builds the cross-rank happens-before DAG and walks the critical
//!      path backwards from the last record, attributing wall-clock to
//!      network / gate-wait / EL round-trip / checkpoint / replay /
//!      local computation and naming the dominant component;
//!   4. replays the merged timeline through the online invariant
//!      monitor (pessimism gate, watermark monotonicity, exactly-once
//!      delivery) as an offline audit;
//!   5. writes per-message Perfetto flow events next to the dump
//!      (`<stem>.flow.trace.json`) so every message's path is drawn
//!      across rank tracks.
//!
//! `--strict` exits nonzero if the dump is ring-truncated (header
//! `dropped` > 0), any orphan edge exists, or the monitor finds a
//! violation — the CI mode.
//!
//! Usage: `obs_analyze [--strict] [--top N] <dump.jsonl>`

use mvr_obs::{
    parse_dump, validate_records, write_flow_trace, CausalGraph, InvariantMonitor, SpanSet,
};
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

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
    let (header, timeline) =
        parse_dump(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));

    let mut strict_failures: Vec<String> = Vec::new();
    println!(
        "obs_analyze: {} — {} records",
        path.display(),
        timeline.len()
    );
    match header {
        Some(h) => {
            if h.records != timeline.len() as u64 {
                fail(&format!(
                    "header claims {} records, dump body has {}",
                    h.records,
                    timeline.len()
                ));
            }
            if h.dropped > 0 {
                println!(
                    "  WARNING: {} record(s) lost to ring wraparound — the timeline is \
                     truncated; orphan spans below may be artifacts of the truncation",
                    h.dropped
                );
                strict_failures.push(format!("{} records dropped", h.dropped));
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

    if let Err(e) = validate_records(&timeline) {
        fail(&format!("schema validation: {e}"));
    }

    // 2. Per-message spans and orphan edges.
    let spans = SpanSet::build(&timeline);
    print!("{}", spans.report(top));
    if !spans.orphans.is_empty() {
        strict_failures.push(format!("{} orphan edge(s)", spans.orphans.len()));
    }

    // 3. Happens-before DAG and critical path.
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

    // 4. Offline invariant audit over the merged timeline.
    let monitor = InvariantMonitor::new();
    monitor.observe_all(&timeline);
    match monitor.violation() {
        Some(v) => {
            println!("invariants: VIOLATED — {v}");
            strict_failures.push(format!("invariant `{}` violated", v.invariant));
        }
        None => println!(
            "invariants: ok ({} records audited)",
            monitor.records_seen()
        ),
    }

    // 5. Per-message Perfetto flow trace next to the dump.
    let flow = path.with_extension("flow.trace.json");
    match write_flow_trace(&flow, &spans) {
        Ok(()) => println!("flow trace: {}", flow.display()),
        Err(e) => fail(&format!("write {}: {e}", flow.display())),
    }

    if strict && !strict_failures.is_empty() {
        fail(&format!("--strict: {}", strict_failures.join("; ")));
    }
    println!("obs_analyze: ok");
}
