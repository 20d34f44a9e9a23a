//! A five-minute tour of the paper's evaluation on the calibrated
//! simulator: the headline numbers of Figures 5, 6, 9, 10 and 11,
//! annotated with the values the paper reports.
//!
//! Run with: `cargo run --release --example paper_tour`
//! (The full sweeps live in `crates/bench/src/bin/` — one binary per
//! table/figure.)

use mpich_v::simnet::{
    simulate, simulate_replay, simulate_with_faults, ClusterConfig, FaultPlan, Protocol, SEC,
};
use mpich_v::workloads::nas::{traces, Class, NasBenchmark};
use mpich_v::workloads::{pattern9, pingpong, token_ring};

fn one_way_us(proto: Protocol, bytes: u64) -> f64 {
    let rep = simulate(ClusterConfig::paper_cluster(proto, 2), pingpong(50, bytes));
    rep.makespan as f64 / 100.0 / 1_000.0
}

fn bandwidth_mbs(proto: Protocol, bytes: u64) -> f64 {
    let rep = simulate(ClusterConfig::paper_cluster(proto, 2), pingpong(10, bytes));
    bytes as f64 / (rep.makespan as f64 / 20.0 / SEC as f64) / 1e6
}

fn main() {
    println!("MPICH-V2 reproduction — paper tour\n");

    println!("— Figure 5/6 anchors (ping-pong):");
    println!(
        "  0-byte latency: P4 {:.0} µs (paper 77), V1 {:.0} (between), V2 {:.0} (paper 237)",
        one_way_us(Protocol::P4, 0),
        one_way_us(Protocol::V1, 0),
        one_way_us(Protocol::V2, 0)
    );
    println!(
        "  4 MB bandwidth: P4 {:.1} MB/s (paper 11.3), V1 {:.1} (half), V2 {:.1} (paper 10.7)",
        bandwidth_mbs(Protocol::P4, 4 << 20),
        bandwidth_mbs(Protocol::V1, 4 << 20),
        bandwidth_mbs(Protocol::V2, 4 << 20)
    );

    println!("\n— Figure 9 (bidirectional Isend/Irecv/Waitall, 64 kB):");
    let p4 = simulate(
        ClusterConfig::paper_cluster(Protocol::P4, 2),
        pattern9(5, 64 << 10),
    );
    let v2 = simulate(
        ClusterConfig::paper_cluster(Protocol::V2, 2),
        pattern9(5, 64 << 10),
    );
    println!(
        "  V2 is {:.2}x faster than P4 (paper: ~2x — the full-duplex daemon)",
        p4.makespan as f64 / v2.makespan as f64
    );

    println!("\n— Figure 10 (token-ring re-execution, 16 kB):");
    let ring = token_ring(8, 20, 16 << 10);
    let reference = simulate(ClusterConfig::paper_cluster(Protocol::V2, 8), ring.clone()).seconds();
    let one = simulate_replay(
        ClusterConfig::paper_cluster(Protocol::V2, 8),
        ring.clone(),
        &[3],
    )
    .seconds();
    let all = simulate_replay(
        ClusterConfig::paper_cluster(Protocol::V2, 8),
        ring,
        &[0, 1, 2, 3, 4, 5, 6, 7],
    )
    .seconds();
    println!(
        "  reference {reference:.3} s; 1-restart {one:.3} s ({:.0}% — paper: ~half);",
        100.0 * one / reference
    );
    println!(
        "  8-restart {all:.3} s ({:.0}% — paper: close to but below the reference)",
        100.0 * all / reference
    );

    println!("\n— Figure 11 (BT-A on 4 nodes, continuous checkpointing):");
    let t = traces(NasBenchmark::BT, Class::A, 4);
    let cfg = ClusterConfig::paper_cluster(Protocol::V2, 4);
    let base = simulate(cfg.clone(), t.clone()).seconds();
    let faults: Vec<(u64, usize)> = (0..9)
        .map(|i| (((1.0 + i as f64 * base * 0.15) * 1e9) as u64, i % 4))
        .collect();
    let rep = simulate_with_faults(
        cfg,
        t,
        &FaultPlan {
            faults,
            continuous_checkpointing: true,
            seed: 42,
        },
    );
    println!(
        "  9 faults: {:.1} s vs {:.1} s reference = {:.2}x (paper: < 2x)",
        rep.seconds(),
        base,
        rep.seconds() / base
    );

    println!("\nFull sweeps: cargo run --release -p mvr-bench --bin figures -- all  (or one figure: fig5_bandwidth … fig11_faults, table1_decomposition, sched_ablation)");
}
