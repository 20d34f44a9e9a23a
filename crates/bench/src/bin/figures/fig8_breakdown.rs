//! Figure 8: execution-time breakdown (computation vs communication) of
//! CG class A and BT class B for the three MPI implementations.
//!
//! Paper anchors: identical computation times across implementations;
//! CG-A communication explodes under V1/V2 (logging overhead on small
//! messages, V1 a bit better than V2 there); BT-B communication is *best*
//! under V2 (full duplex). "MPICH-V2 requires much less reliable nodes
//! than MPICH-V1 (1 versus 9 for 32 computing nodes)."

use super::*;

#[derive(Serialize)]
struct Part {
    bench: &'static str,
    procs: usize,
    protocol: &'static str,
    compute_s: f64,
    comm_s: f64,
    total_s: f64,
    reliable_nodes: usize,
}

/// Reliable-node count per the paper's deployments: V1 used N/4 Channel
/// Memories (+1 for the dispatcher/EL side); V2 and P4 use 1.
fn reliable_nodes(proto: Protocol, p: usize) -> usize {
    match proto {
        Protocol::V1 => p / 4 + 1,
        _ => 1,
    }
}

pub fn main() {
    let cases = [
        (NasBenchmark::CG, Class::A, 8usize),
        (NasBenchmark::BT, Class::B, 9usize),
    ];
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (bench, class, p) in cases {
        for proto in Protocol::all() {
            let cfg = ClusterConfig::paper_cluster(proto, p);
            let rep = simulate(cfg, traces(bench, class, p));
            // Per-rank averages (the paper plots per-run stacked bars).
            let compute = rep.compute_seconds() / p as f64;
            let comm = rep.comm_seconds() / p as f64;
            let part = Part {
                bench: bench.name(),
                procs: p,
                protocol: proto.label(),
                compute_s: compute,
                comm_s: comm,
                total_s: rep.seconds(),
                reliable_nodes: reliable_nodes(proto, p),
            };
            rows.push(vec![
                format!("{}-{} p={}", part.bench, class.name(), p),
                part.protocol.to_string(),
                format!("{:.1}", part.compute_s),
                format!("{:.1}", part.comm_s),
                format!("{:.1}", part.total_s),
                part.reliable_nodes.to_string(),
            ]);
            out.push(part);
        }
    }
    print_table(
        "Figure 8 — execution-time breakdown (s/rank)",
        &["case", "impl", "compute", "comm", "total", "reliable nodes"],
        &rows,
    );
    println!(
        "\nexpected: compute equal across impls; CG-A comm explodes for V1/V2 \
         (V1 < V2 there); BT-B comm best under V2; V1 needs ~N/4 reliable nodes"
    );
    write_json("fig8_breakdown", &out);
}
