//! Figure 5: ping-pong bandwidth vs message size for MPICH-P4, MPICH-V1
//! and MPICH-V2.
//!
//! Paper anchors: P4 peaks at 11.3 MB/s, V2 at 10.7 MB/s ("slightly
//! slower ... but remains always close"), V1 "down to two times slower"
//! (every byte store-and-forwarded through a Channel Memory).

use super::*;

#[derive(Serialize)]
struct Point {
    bytes: u64,
    protocol: &'static str,
    bandwidth_mb_s: f64,
}

fn bandwidth(protocol: Protocol, bytes: u64) -> f64 {
    let rounds = if bytes >= (1 << 20) { 5 } else { 20 };
    let cfg = ClusterConfig::paper_cluster(protocol, 2);
    let rep = simulate(cfg, pingpong(rounds, bytes));
    let one_way_s = rep.makespan as f64 / (2.0 * rounds as f64) / SEC as f64;
    bytes as f64 / one_way_s / 1e6
}

pub fn main() {
    let max_pow = if quick_mode() { 20 } else { 23 };
    let sizes: Vec<u64> = (6..=max_pow).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &bytes in &sizes {
        let mut row = vec![fmt_bytes(bytes)];
        for proto in Protocol::all() {
            let bw = bandwidth(proto, bytes);
            row.push(format!("{bw:.2}"));
            points.push(Point {
                bytes,
                protocol: proto.label(),
                bandwidth_mb_s: bw,
            });
        }
        rows.push(row);
    }
    print_table(
        "Figure 5 — ping-pong bandwidth (MB/s)",
        &["size", "MPICH-P4", "MPICH-V1", "MPICH-V2"],
        &rows,
    );
    let p4_peak = bandwidth(Protocol::P4, 4 << 20);
    let v2_peak = bandwidth(Protocol::V2, 4 << 20);
    let v1_peak = bandwidth(Protocol::V1, 4 << 20);
    println!(
        "\npeaks: P4 {p4_peak:.1} MB/s (paper: 11.3), V2 {v2_peak:.1} (paper: 10.7), \
         V1 {v1_peak:.1} (paper: ~half of P4)"
    );
    write_json("fig5_bandwidth", &points);
}
