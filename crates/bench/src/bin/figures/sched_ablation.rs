//! §4.6.2 ablation: the checkpoint-scheduling policy simulator comparing
//! round-robin, adaptive (received/sent ratio) and random policies on the
//! classical communication schemes.
//!
//! Paper anchor: "the adaptive algorithm never provides a worse
//! scheduling (w.r.t. bandwidth utilization) and often provides better
//! scheduling (up to n times better ... for asynchronous broadcast)".

use super::*;
use mvr_ckpt::{compare_all, simulate, Policy, PolicySimConfig, Scheme};

#[derive(Serialize)]
struct Row {
    scheme: String,
    policy: String,
    ckpt_bytes: u64,
    mean_log_bytes: u64,
    peak_log_bytes: u64,
    checkpoints: u64,
}

pub fn main() {
    let cfg = PolicySimConfig {
        nodes: 16,
        steps: 4_000,
        msg_bytes: 5_000,
        state_bytes: 2_000,
        ckpt_bandwidth: 100_000,
        seed: 7,
    };
    let reports = compare_all(&cfg);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for r in &reports {
        rows.push(vec![
            format!("{:?}", r.scheme),
            format!("{:?}", r.policy),
            r.ckpt_bytes_transferred.to_string(),
            r.mean_saved_bytes.to_string(),
            r.peak_saved_bytes.to_string(),
            r.checkpoints.to_string(),
        ]);
        out.push(Row {
            scheme: format!("{:?}", r.scheme),
            policy: format!("{:?}", r.policy),
            ckpt_bytes: r.ckpt_bytes_transferred,
            mean_log_bytes: r.mean_saved_bytes,
            peak_log_bytes: r.peak_saved_bytes,
            checkpoints: r.checkpoints,
        });
    }
    print_table(
        "§4.6.2 — checkpoint-policy comparison (16 nodes)",
        &[
            "scheme",
            "policy",
            "ckpt bytes",
            "mean log",
            "peak log",
            "ckpts",
        ],
        &rows,
    );

    // Headline ratio: RR / adaptive bandwidth on the asynchronous
    // broadcast, as a function of n.
    println!("\nasync-broadcast bandwidth advantage (RR / adaptive checkpoint bytes):");
    for n in [4usize, 8, 16, 32] {
        let c = PolicySimConfig { nodes: n, ..cfg };
        let rr = simulate(Policy::RoundRobin, Scheme::AsyncBroadcast, &c);
        let ad = simulate(Policy::Adaptive, Scheme::AsyncBroadcast, &c);
        println!(
            "  n={n:>2}: {:.1}x",
            rr.ckpt_bytes_transferred as f64 / ad.ckpt_bytes_transferred.max(1) as f64
        );
    }
    write_json("sched_ablation", &out);
}
