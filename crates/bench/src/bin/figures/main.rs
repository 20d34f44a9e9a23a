//! `figures <name>|all [--quick]` — every table and figure of the
//! MPICH-V2 paper's evaluation (§5) and the ablations beside them,
//! regenerated on the calibrated simulator.
//!
//! `<name>` is the result-file stem: the figure prints its paper-style
//! table and writes `results/<name>.json` (DESIGN.md §5 is the
//! experiment index). `all` draws every figure in turn. `--quick`
//! shrinks the long sweeps for CI and writes nothing under `results/`.

mod ablation_el;
mod el_batching;
mod fig10_reexec;
mod fig11_faults;
mod fig5_bandwidth;
mod fig6_latency;
mod fig7_nas;
mod fig8_breakdown;
mod fig9_duplex;
mod sched_ablation;
mod table1_decomposition;

use mvr_bench::{fmt_bytes, print_table, quick_mode, write_json};
use mvr_obs::HistSummary;
use mvr_simnet::{
    as_secs_f64, simulate, simulate_replay, simulate_with_faults, usecs, ClusterConfig, FaultPlan,
    Op, Protocol, TraceBuilder, SEC,
};
use mvr_workloads::nas::{traces, Class, NasBenchmark};
use mvr_workloads::{pattern9, pingpong, token_ring};
use serde::Serialize;

/// Every figure by result-file stem, in paper order.
const FIGURES: &[(&str, fn())] = &[
    ("fig5_bandwidth", fig5_bandwidth::main),
    ("fig6_latency", fig6_latency::main),
    ("fig7_nas", fig7_nas::main),
    ("fig8_breakdown", fig8_breakdown::main),
    ("table1_decomposition", table1_decomposition::main),
    ("fig9_duplex", fig9_duplex::main),
    ("fig10_reexec", fig10_reexec::main),
    ("fig11_faults", fig11_faults::main),
    ("sched_ablation", sched_ablation::main),
    ("ablation_el", ablation_el::main),
    ("el_batching", el_batching::main),
];

fn main() {
    let name = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let name = name.unwrap_or_default();
    let stems: Vec<&str> = FIGURES.iter().map(|(stem, _)| *stem).collect();
    if name != "all" && !stems.contains(&name.as_str()) {
        eprintln!(
            "usage: figures <name>|all [--quick]\nnames: {}",
            stems.join(" ")
        );
        std::process::exit(2);
    }
    for (stem, figure) in FIGURES {
        if name == "all" || name == *stem {
            figure();
        }
    }
}
