//! Figure 11: performance of BT class A on 4 computing nodes (plus one
//! reliable node) when up to 9 faults hit the execution, with continuous
//! random-victim checkpointing ("the system is always checkpointing a
//! node"; faults at any time, including during checkpoint or
//! re-execution).
//!
//! Paper anchors: low no-fault overhead of the checkpoint system, smooth
//! degradation with fault count, and execution time below 2x the
//! fault-free reference at 9 faults (paper cadence: ~1 fault every 45 s).

use super::*;

#[derive(Serialize)]
struct Point {
    faults: usize,
    applied: u64,
    checkpoints: u64,
    seconds: f64,
    over_reference: f64,
}

pub fn main() {
    let p = 4usize;
    let class = if quick_mode() { Class::W } else { Class::A };
    let t = traces(NasBenchmark::BT, class, p);
    let cfg = ClusterConfig::paper_cluster(Protocol::V2, p);
    let reference = simulate(cfg.clone(), t.clone()).seconds();
    println!("reference (no checkpoints, no faults): {reference:.1} s");

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for faults in 0..=9usize {
        // Spread the faults across the run, round-robin victims (the
        // paper triggers them randomly; seeds make ours reproducible).
        let spacing = (reference * 1.5 / 10.0).max(0.5);
        let plan = FaultPlan {
            faults: (0..faults)
                .map(|i| {
                    let t_s = (1.0 + i as f64 * spacing) * 1e9;
                    (t_s as u64, i % p)
                })
                .collect(),
            continuous_checkpointing: true,
            seed: 42,
        };
        let rep = simulate_with_faults(cfg.clone(), t.clone(), &plan);
        let secs = rep.seconds();
        rows.push(vec![
            faults.to_string(),
            rep.faults.to_string(),
            rep.checkpoints.to_string(),
            format!("{secs:.1}"),
            format!("{:.2}x", secs / reference),
        ]);
        points.push(Point {
            faults,
            applied: rep.faults,
            checkpoints: rep.checkpoints,
            seconds: secs,
            over_reference: secs / reference,
        });
    }
    print_table(
        &format!(
            "Figure 11 — BT-{} on 4 nodes under faults (continuous checkpointing)",
            class.name()
        ),
        &["faults", "applied", "ckpts", "time (s)", "vs ref"],
        &rows,
    );
    println!("\nexpected: low no-fault overhead; smooth degradation; < ~2x at 9 faults");
    write_json("fig11_faults", &points);
}
