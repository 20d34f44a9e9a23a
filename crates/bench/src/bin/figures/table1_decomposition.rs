//! Table 1: time spent inside MPI_(I)send / MPI_Irecv / MPI_Wait for the
//! BT-A-9 and CG-A-8 benchmarks, MPICH-P4 vs MPICH-V2.
//!
//! Paper anchors (seconds): BT A 9 — P4: Isend 44.9, Wait 4, total 49.2;
//! V2: Isend 3.4, Wait 17.5, total 21.2 (V2 posts a notification in
//! ISend and transmits under Wait, and wins overall on BT). CG A 8 —
//! P4 total 5.1 vs V2 14.4 (the factor-~3 communication blowup).

use super::*;

#[derive(Serialize)]
struct Decomp {
    case: String,
    protocol: &'static str,
    isend_s: f64,
    irecv_s: f64,
    wait_s: f64,
    send_recv_s: f64,
    total_comm_s: f64,
}

pub fn main() {
    let cases = [
        (NasBenchmark::BT, Class::A, 9usize),
        (NasBenchmark::CG, Class::A, 8usize),
    ];
    let mut out = Vec::new();
    for (bench, class, p) in cases {
        for proto in [Protocol::P4, Protocol::V2] {
            let cfg = ClusterConfig::paper_cluster(proto, p);
            let rep = simulate(cfg, traces(bench, class, p));
            // Per-rank averages, matching the per-process numbers of the
            // paper's table.
            let n = p as f64;
            let isend = as_secs_f64(rep.per_rank.iter().map(|r| r.isend).sum::<u64>()) / n;
            let irecv = as_secs_f64(rep.per_rank.iter().map(|r| r.irecv).sum::<u64>()) / n;
            let wait = as_secs_f64(rep.per_rank.iter().map(|r| r.wait).sum::<u64>()) / n;
            let sr = as_secs_f64(rep.per_rank.iter().map(|r| r.send + r.recv).sum::<u64>()) / n;
            out.push(Decomp {
                case: format!("{} {} {}", bench.name(), class.name(), p),
                protocol: proto.label(),
                isend_s: isend,
                irecv_s: irecv,
                wait_s: wait,
                send_recv_s: sr,
                total_comm_s: isend + irecv + wait + sr,
            });
        }
    }
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|d| {
            vec![
                d.case.clone(),
                d.protocol.to_string(),
                format!("{:.2}", d.isend_s),
                format!("{:.4}", d.irecv_s),
                format!("{:.2}", d.wait_s),
                format!("{:.2}", d.send_recv_s),
                format!("{:.2}", d.total_comm_s),
            ]
        })
        .collect();
    print_table(
        "Table 1 — MPI communication-function decomposition (s/rank)",
        &[
            "case",
            "impl",
            "MPI_(I)send",
            "MPI_Irecv",
            "MPI_Wait",
            "Send/Recv",
            "total",
        ],
        &rows,
    );
    println!(
        "\nexpected: P4 pays in ISend (payload pushed in the call), V2 pays in Wait; \
         V2 total lower for BT, ~3x higher for CG"
    );
    write_json("table1_decomposition", &out);
}
