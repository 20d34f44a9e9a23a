//! EL batching — round-trips per application message under lazy event
//! batching (this repo's optimization of the §4.5 pessimism gate).
//!
//! MPICH-V2 pays one event-logger round-trip per reception before the
//! receiver may transmit again. Lazy batching keeps that safety property
//! (the gate still closes at every delivery; a gated send forces a
//! flush) but ships the events in batches, so reception *bursts* —
//! fan-ins, streams, reduce trees — amortize the round-trip. This
//! harness sweeps the batch threshold on burst-shaped workloads and
//! reports `el_requests / msgs_delivered`: ≈1.0 for the eager baseline
//! (`el_batch_max = 1`), < 1.0 once batching engages.

use mvr_bench::{print_table, quick_mode, write_json};
use mvr_obs::HistSummary;
use mvr_simnet::{simulate, ClusterConfig, Op, Protocol, TraceBuilder};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    el_batch_max: u64,
    msgs_delivered: u64,
    el_events: u64,
    el_requests: u64,
    round_trips_per_message: f64,
    makespan_s: f64,
    /// Virtual-time wait behind the pessimism gate (ns quantiles; one
    /// sample per gated send).
    gate_wait: HistSummary,
    /// Virtual-time EL ship→ack round-trip (ns quantiles; one sample per
    /// batched log request acked before the run drains — final-flush acks
    /// still in flight at termination are not sampled).
    el_ack_rtt: HistSummary,
}

/// A stream: rank 0 pushes `msgs` eager messages at rank 1, which
/// acknowledges once at the end — the pattern of a producer/consumer or
/// the leaf→root leg of a reduce.
fn stream(msgs: usize, bytes: u64) -> (&'static str, Vec<Vec<Op>>) {
    let mut a = TraceBuilder::new();
    for _ in 0..msgs {
        a.send(1, bytes);
    }
    a.recv(1);
    let mut b = TraceBuilder::new();
    for _ in 0..msgs {
        b.recv(0);
    }
    b.send(0, 0);
    ("stream", vec![a.build(), b.build()])
}

/// A fan-in: ranks 1..n each push `per_src` messages at rank 0, which
/// broadcasts a completion marker.
fn fanin(n: usize, per_src: usize, bytes: u64) -> (&'static str, Vec<Vec<Op>>) {
    let mut traces: Vec<TraceBuilder> = (0..n).map(|_| TraceBuilder::new()).collect();
    for round in 0..per_src {
        let _ = round;
        for src in 1..n {
            traces[src].send(0, bytes);
            traces[0].recv(src);
        }
    }
    for src in 1..n {
        traces[0].send(src, 0);
        traces[src].recv(0);
    }
    ("fanin", traces.into_iter().map(|t| t.build()).collect())
}

/// Ping-pong: the adversarial case — every reception is followed by a
/// gated send, so batching degenerates to per-event flushes and must not
/// hurt latency.
fn pingpong(iters: usize) -> (&'static str, Vec<Vec<Op>>) {
    let mut a = TraceBuilder::new();
    let mut b = TraceBuilder::new();
    for _ in 0..iters {
        a.send(1, 0);
        a.recv(1);
        b.recv(0);
        b.send(0, 0);
    }
    ("pingpong", vec![a.build(), b.build()])
}

fn main() {
    let quick = quick_mode();
    let (msgs, per_src, iters) = if quick {
        (128, 16, 32)
    } else {
        (1024, 64, 256)
    };
    let batch_sweep: &[u64] = &[1, 4, 16, 64];

    let workloads: Vec<(&'static str, Vec<Vec<Op>>, usize)> = vec![
        {
            let (name, t) = stream(msgs, 1000);
            (name, t, 2)
        },
        {
            let (name, t) = fanin(8, per_src, 1000);
            (name, t, 8)
        },
        {
            let (name, t) = pingpong(iters);
            (name, t, 2)
        },
    ];

    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (name, traces, nodes) in &workloads {
        let mut eager_makespan = 0;
        for &batch in batch_sweep {
            let mut cfg = ClusterConfig::paper_cluster(Protocol::V2, *nodes);
            cfg.el_batch_max = batch;
            let rep = simulate(cfg, traces.clone());
            if batch == 1 {
                eager_makespan = rep.makespan;
            }
            let rt = rep.el_requests as f64 / rep.msgs_delivered.max(1) as f64;
            let gate_wait = rep.gate_wait.summary();
            let el_ack_rtt = rep.el_ack_rtt.summary();
            // Every batched log request lands one RTT sample, minus acks
            // still in flight when the last rank finishes (at most one
            // final-flush ack per rank).
            assert!(
                el_ack_rtt.count <= rep.el_requests
                    && rep.el_requests - el_ack_rtt.count <= *nodes as u64,
                "{name}: {} RTT samples vs {} EL requests",
                el_ack_rtt.count,
                rep.el_requests
            );
            rows.push(vec![
                name.to_string(),
                batch.to_string(),
                rep.msgs_delivered.to_string(),
                rep.el_events.to_string(),
                rep.el_requests.to_string(),
                format!("{rt:.3}"),
                format!("{:.1}", gate_wait.p50 as f64 / 1e3),
                format!("{:.1}", el_ack_rtt.p50 as f64 / 1e3),
                format!("{:.2}x", eager_makespan as f64 / rep.makespan.max(1) as f64),
            ]);
            out.push(Row {
                workload: name,
                el_batch_max: batch,
                msgs_delivered: rep.msgs_delivered,
                el_events: rep.el_events,
                el_requests: rep.el_requests,
                round_trips_per_message: rt,
                makespan_s: rep.seconds(),
                gate_wait,
                el_ack_rtt,
            });
        }
    }

    print_table(
        "EL batching — event-logger round-trips per application message",
        &[
            "workload",
            "batch",
            "msgs",
            "events",
            "requests",
            "rt/msg",
            "gate_p50_us",
            "rtt_p50_us",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nreading: eager logging (batch=1) pays ~1 EL round-trip per message; lazy\n\
         batching drops burst workloads (stream, fanin) well below 1.0 while the\n\
         adversarial ping-pong stays at 1.0 — a gated send always forces a flush,\n\
         so the pessimism guarantee (§4.1/§4.5) is unchanged."
    );
    write_json("BENCH_el_batching", &out);

    // Self-check the acceptance claims so CI fails loudly if the model
    // drifts: batched burst workloads < 1.0, eager ≈ 1.0.
    for r in &out {
        if r.el_batch_max == 1 {
            assert!(
                (r.round_trips_per_message - 1.0).abs() < 0.05,
                "{}: eager logging should be ~1.0 rt/msg, got {}",
                r.workload,
                r.round_trips_per_message
            );
        }
        if r.el_batch_max >= 16 && r.workload != "pingpong" {
            assert!(
                r.round_trips_per_message < 1.0,
                "{}: batching should amortize round-trips, got {}",
                r.workload,
                r.round_trips_per_message
            );
        }
    }
}
