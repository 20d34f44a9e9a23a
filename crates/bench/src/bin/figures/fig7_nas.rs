//! Figure 7: NAS Parallel Benchmarks 2.3 (CG, MG, FT, LU, BT, SP),
//! classes A and B, up to 32 processors (25 for BT/SP), MPICH-P4 vs
//! MPICH-V2 (no checkpoints during the runs, as in the paper).
//!
//! Expected shapes (paper §5.2):
//! * CG, MG: V2 clearly slower (small-message latency + event logging);
//! * FT: V2 ≈ P4 (bandwidth-bound all-to-all); FT class B not runnable
//!   (message log exceeds the 2 GB per-node budget);
//! * LU: V2 poor (message-rate bound; log pressure);
//! * BT, SP: V2 ≈ P4 or better (large nonblocking messages, full-duplex
//!   daemon).

use super::*;

#[derive(Serialize)]
struct Row {
    bench: &'static str,
    class: &'static str,
    procs: usize,
    p4_s: Option<f64>,
    v2_s: Option<f64>,
    v2_over_p4: Option<f64>,
    v2_spilled: bool,
    v2_infeasible: bool,
}

fn run(proto: Protocol, bench: NasBenchmark, class: Class, p: usize) -> mvr_simnet::SimReport {
    let cfg = ClusterConfig::paper_cluster(proto, p);
    simulate(cfg, traces(bench, class, p))
}

pub fn main() {
    let quick = quick_mode();
    let classes: &[Class] = if quick {
        &[Class::A]
    } else {
        &[Class::A, Class::B]
    };
    let mut out: Vec<Row> = Vec::new();

    for &class in classes {
        for bench in NasBenchmark::all() {
            let procs: &[usize] = match bench {
                NasBenchmark::BT | NasBenchmark::SP => {
                    if quick {
                        &[4, 9]
                    } else {
                        &[4, 9, 16, 25]
                    }
                }
                _ => {
                    if quick {
                        &[4, 8]
                    } else {
                        &[4, 8, 16, 32]
                    }
                }
            };
            for &p in procs {
                let p4 = run(Protocol::P4, bench, class, p);
                let v2 = run(Protocol::V2, bench, class, p);
                let feasible = !v2.infeasible;
                out.push(Row {
                    bench: bench.name(),
                    class: class.name(),
                    procs: p,
                    p4_s: Some(p4.seconds()),
                    v2_s: feasible.then(|| v2.seconds()),
                    v2_over_p4: feasible.then(|| v2.seconds() / p4.seconds()),
                    v2_spilled: v2.spilled,
                    v2_infeasible: v2.infeasible,
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                format!("{}-{}", r.bench, r.class),
                r.procs.to_string(),
                r.p4_s
                    .map(|s| format!("{s:.1}"))
                    .unwrap_or_else(|| "-".into()),
                match (r.v2_infeasible, r.v2_s) {
                    (true, _) => "log > 2GB".into(),
                    (_, Some(s)) if r.v2_spilled => format!("{s:.1} (disk)"),
                    (_, Some(s)) => format!("{s:.1}"),
                    _ => "-".into(),
                },
                r.v2_over_p4
                    .map(|x| format!("{x:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        "Figure 7 — NPB 2.3 execution time (s), MPICH-P4 vs MPICH-V2",
        &["bench", "procs", "P4 (s)", "V2 (s)", "V2/P4"],
        &rows,
    );
    println!(
        "\nexpected shapes: CG/MG/LU slower under V2; FT ~parity (class B infeasible); \
         BT/SP parity or V2 ahead"
    );
    write_json("fig7_nas", &out);
}
