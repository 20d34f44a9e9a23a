//! Figure 6: ping-pong latency vs message size (small messages).
//!
//! Paper anchors: 77 µs for P4 at 0 bytes vs 237 µs for V2 ("six TCP
//! messages ... P4 only sends two"); V1 in between.

use super::*;

#[derive(Serialize)]
struct Point {
    bytes: u64,
    protocol: &'static str,
    latency_us: f64,
}

fn latency_us(protocol: Protocol, bytes: u64) -> f64 {
    let rounds = 50;
    let cfg = ClusterConfig::paper_cluster(protocol, 2);
    let rep = simulate(cfg, pingpong(rounds, bytes));
    rep.makespan as f64 / (2.0 * rounds as f64) / 1_000.0
}

pub fn main() {
    let sizes: [u64; 8] = [0, 64, 256, 1024, 4096, 16 << 10, 64 << 10, 128 << 10];
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &bytes in &sizes {
        let mut row = vec![fmt_bytes(bytes)];
        for proto in Protocol::all() {
            let l = latency_us(proto, bytes);
            row.push(format!("{l:.0}"));
            points.push(Point {
                bytes,
                protocol: proto.label(),
                latency_us: l,
            });
        }
        rows.push(row);
    }
    print_table(
        "Figure 6 — ping-pong latency (µs)",
        &["size", "MPICH-P4", "MPICH-V1", "MPICH-V2"],
        &rows,
    );
    println!(
        "\n0-byte: P4 {:.0} µs (paper: 77), V1 {:.0} (paper: between), V2 {:.0} (paper: 237)",
        latency_us(Protocol::P4, 0),
        latency_us(Protocol::V1, 0),
        latency_us(Protocol::V2, 0)
    );
    write_json("fig6_latency", &points);
}
