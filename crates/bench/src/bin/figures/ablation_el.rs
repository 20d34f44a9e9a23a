//! Ablation: event-logger provisioning and service cost.
//!
//! §4.5: "For scalability reasons, several event loggers may be used in a
//! system … event loggers do not have to communicate with each other."
//! This harness quantifies that design choice on the message-rate-bound
//! NAS kernels (LU, CG at 32 ranks): sweeping (a) the number of event
//! loggers and (b) the EL service cost, and reporting the V2 slowdown
//! over P4.
//!
//! It also explains EXPERIMENTS.md's "muted CG magnitude" note: with a
//! slow (dual-PIII-like) event logger the paper's CG factor reappears.

use super::*;

#[derive(Serialize)]
struct Row {
    bench: &'static str,
    procs: usize,
    event_loggers: usize,
    el_service_us: u64,
    v2_s: f64,
    v2_over_p4: f64,
}

pub fn main() {
    let cases = [
        (NasBenchmark::LU, 32usize),
        (NasBenchmark::CG, 32),
        (NasBenchmark::MG, 32),
    ];
    let mut out = Vec::new();
    let mut rows = Vec::new();

    for (bench, p) in cases {
        let p4 = {
            let cfg = ClusterConfig::paper_cluster(Protocol::P4, p);
            simulate(cfg, traces(bench, Class::A, p)).seconds()
        };
        // (a) number of event loggers at the calibrated service cost.
        for els in [1usize, 2, 4, 8] {
            let mut cfg = ClusterConfig::paper_cluster(Protocol::V2, p);
            cfg.event_loggers = els;
            let v2 = simulate(cfg, traces(bench, Class::A, p)).seconds();
            rows.push(vec![
                format!("{}-A", bench.name()),
                p.to_string(),
                els.to_string(),
                "4".into(),
                format!("{v2:.1}"),
                format!("{:.2}x", v2 / p4),
            ]);
            out.push(Row {
                bench: bench.name(),
                procs: p,
                event_loggers: els,
                el_service_us: 4,
                v2_s: v2,
                v2_over_p4: v2 / p4,
            });
        }
        // (b) a slow event logger (the real 2003 dual-PIII behaviour).
        for service_us in [50u64, 150, 400] {
            let mut cfg = ClusterConfig::paper_cluster(Protocol::V2, p);
            cfg.el_service = usecs(service_us);
            let v2 = simulate(cfg, traces(bench, Class::A, p)).seconds();
            rows.push(vec![
                format!("{}-A", bench.name()),
                p.to_string(),
                "1".into(),
                service_us.to_string(),
                format!("{v2:.1}"),
                format!("{:.2}x", v2 / p4),
            ]);
            out.push(Row {
                bench: bench.name(),
                procs: p,
                event_loggers: 1,
                el_service_us: service_us,
                v2_s: v2,
                v2_over_p4: v2 / p4,
            });
        }
    }

    print_table(
        "Ablation — event-logger provisioning (V2 vs P4 on message-rate-bound kernels)",
        &["bench", "procs", "ELs", "service µs", "V2 (s)", "V2/P4"],
        &rows,
    );
    println!(
        "\nreading: more ELs shrink the V2 penalty on LU/CG/MG at 32 ranks; a slow EL\n\
         (≥150 µs/event) reproduces the paper's ~3x CG factor — see EXPERIMENTS.md."
    );
    write_json("ablation_el", &out);
}
