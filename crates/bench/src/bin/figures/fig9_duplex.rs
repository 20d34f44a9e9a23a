//! Figure 9: bandwidth of the synthetic BT/SP-like pattern (10 ISend +
//! 10 IRecv + Waitall, both directions at once), MPICH-P4 vs MPICH-V2.
//!
//! Paper anchor: "MPICH-V2 performs better for non-blocking
//! communications than MPICH-P4, reaching twice the P4 bandwidth for
//! 64Kbytes messages" (full-duplex driver), with P4 ahead at small sizes
//! (latency-dominated).

use super::*;

#[derive(Serialize)]
struct Point {
    bytes: u64,
    p4_mb_s: f64,
    v2_mb_s: f64,
    v2_over_p4: f64,
}

/// Aggregate pattern bandwidth: bytes moved (both directions) per second.
fn pattern_bw(protocol: Protocol, bytes: u64) -> f64 {
    let rounds = 5;
    let cfg = ClusterConfig::paper_cluster(protocol, 2);
    let rep = simulate(cfg, pattern9(rounds, bytes));
    let moved = (2 * rounds * 10) as f64 * bytes as f64;
    moved / (rep.makespan as f64 / SEC as f64) / 1e6
}

pub fn main() {
    let sizes: Vec<u64> = (8..=20).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &bytes in &sizes {
        let p4 = pattern_bw(Protocol::P4, bytes);
        let v2 = pattern_bw(Protocol::V2, bytes);
        rows.push(vec![
            fmt_bytes(bytes),
            format!("{p4:.2}"),
            format!("{v2:.2}"),
            format!("{:.2}x", v2 / p4),
        ]);
        points.push(Point {
            bytes,
            p4_mb_s: p4,
            v2_mb_s: v2,
            v2_over_p4: v2 / p4,
        });
    }
    print_table(
        "Figure 9 — synthetic Isend/Irecv/Waitall pattern bandwidth (MB/s, both directions)",
        &["size", "MPICH-P4", "MPICH-V2", "V2/P4"],
        &rows,
    );
    let at64k = points
        .iter()
        .find(|p| p.bytes == 64 << 10)
        .expect("64k in sweep");
    println!(
        "\nat 64kB: V2/P4 = {:.2}x (paper: ~2x); at small sizes P4 leads (latency)",
        at64k.v2_over_p4
    );
    write_json("fig9_duplex", &points);
}
