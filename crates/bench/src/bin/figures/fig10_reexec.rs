//! Figure 10: re-execution performance. An asynchronous token ring on 8
//! nodes; after a complete run, restart x ∈ {1..8} nodes from the
//! beginning (no checkpoints) and measure their completion time against
//! the 0-restart reference, sweeping the message size.
//!
//! Paper anchors: all restart curves sit below the reference; the
//! 1-restart curve is the lowest ("about half of the reference": only
//! the receptions are replayed); the curves converge toward (but stay
//! below) the reference as x grows (EL communication is not replayed);
//! a non-linearity appears between 64 kB and 128 kB (eager→rendezvous).

use super::*;

#[derive(Serialize)]
struct Point {
    bytes: u64,
    restarts: usize,
    seconds: f64,
}

pub fn main() {
    let n = 8usize;
    let laps = 20usize;
    let sizes: Vec<u64> = if quick_mode() {
        vec![1 << 10, 16 << 10, 64 << 10, 256 << 10]
    } else {
        (10..=18).map(|p| 1u64 << p).collect() // 1 kB .. 256 kB
    };
    let restart_counts = [0usize, 1, 2, 4, 8];
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &bytes in &sizes {
        let traces = token_ring(n, laps, bytes);
        let mut row = vec![fmt_bytes(bytes)];
        for &x in &restart_counts {
            let cfg = ClusterConfig::paper_cluster(Protocol::V2, n);
            let secs = if x == 0 {
                simulate(cfg, traces.clone()).seconds()
            } else {
                let restarted: Vec<usize> = (0..x).collect();
                simulate_replay(cfg, traces.clone(), &restarted).seconds()
            };
            row.push(format!("{secs:.3}"));
            points.push(Point {
                bytes,
                restarts: x,
                seconds: secs,
            });
        }
        rows.push(row);
    }
    print_table(
        "Figure 10 — token-ring re-execution time (s) vs message size",
        &[
            "size",
            "0-restart",
            "1-restart",
            "2-restart",
            "4-restart",
            "8-restart",
        ],
        &rows,
    );
    println!(
        "\nexpected: every x-restart curve below the reference; 1-restart lowest; \
         8-restart just below the reference; eager→rendezvous kink past 128kB"
    );
    write_json("fig10_reexec", &points);
}
