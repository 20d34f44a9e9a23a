//! Hot path — microbenchmarks of the fabric's receive path.
//!
//! The fabric's receive path moved from one mutex+condvar queue per node
//! (every `send` and every poll took the lock and signalled the condvar)
//! to one bounded lock-free SPSC ring per sender-receiver pair with an
//! eventcount parker and a batched `recv_many` drain. The old mailbox is
//! gone; what it cost is frozen in [`BEFORE_NS`], measured once on the
//! machine that made the switch, and this harness times the ring
//! mailbox beside it at three layers:
//!
//! * `latency_one_way` — small-message one-way latency: a same-thread
//!   two-queue ping-pong (enqueue → dequeue → reply → dequeue, halved),
//!   i.e. the queue traversal cost a message pays on top of the wire.
//!   Same-thread on purpose: it measures the queue, not the kernel
//!   scheduler, and is deterministic on any core count.
//! * `mailbox_enqueue_dequeue` — the daemon select-loop shape: bursts
//!   from 4 sender lanes into one mailbox, drained with `recv_many`.
//! * `spsc_ring` — the raw ring: a `u64` stream through one lane,
//!   no payload, exercising wraparound.
//!
//! Two cross-thread rows (`xthread_*`) are reported for context but not
//! gated: on a single-CPU host they time the scheduler, not the queue.
//!
//! Full runs write `results/BENCH_hotpath.json` — the frozen `before`
//! column next to a fresh `after` — and enforce the acceptance floors
//! (≥2× small-message latency, ≥4× mailbox throughput);
//! `--smoke`/`--quick` runs a reduced sweep without touching the
//! committed JSON.

use std::time::Instant;

use mvr_bench::{fmt_bytes, print_table, write_json};
use mvr_core::Payload;
use mvr_net::mailbox::{bench_lanes, bench_pair};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    metric: &'static str,
    msg_bytes: u64,
    /// ns per message on the retired mutex+condvar mailbox (frozen).
    before_ns: f64,
    /// ns per message on the SPSC-ring mailbox.
    after_ns: f64,
    speedup: f64,
    /// Whether this row is gated by an acceptance floor.
    gated: bool,
}

/// Best-of-`reps` of a timed closure returning ns/op — scheduler blips
/// only ever slow a run down, so the minimum is the queue's cost.
fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// One-way latency on the ring mailbox (one SPSC lane per direction,
/// exactly the fabric's per-pair shape).
fn latency_ring(bytes: usize, iters: usize) -> f64 {
    let (tx_ab, rx_b) = bench_pair::<Payload>(256);
    let (tx_ba, rx_a) = bench_pair::<Payload>(256);
    let ball = Payload::filled(7, bytes);
    let start = Instant::now();
    for _ in 0..iters {
        assert!(tx_ab.send(ball.clone()));
        let m = rx_b.try_recv().unwrap().expect("ping queued");
        assert!(tx_ba.send(m));
        let _ = rx_a.try_recv().unwrap().expect("pong queued");
    }
    start.elapsed().as_nanos() as f64 / iters as f64 / 2.0
}

/// Daemon-shaped throughput on the ring mailbox: bursts of 128 messages
/// spread over 4 SPSC lanes, drained with `recv_many` (the daemon loop's
/// `DAEMON_DRAIN_BATCH` shape).
fn tput_ring(bursts: usize, bytes: usize) -> f64 {
    let (senders, rx) = bench_lanes::<Payload>(256, 4);
    let ball = Payload::filled(3, bytes);
    let mut batch: Vec<Payload> = Vec::with_capacity(256);
    let start = Instant::now();
    for _ in 0..bursts {
        for _ in 0..32 {
            for s in &senders {
                assert!(s.send(ball.clone()));
            }
        }
        let mut got = 0;
        while got < 128 {
            got += rx.recv_many(&mut batch, 256).expect("bench mailbox killed");
            batch.clear();
        }
    }
    start.elapsed().as_nanos() as f64 / (bursts * 128) as f64
}

/// Raw-ring stream: `u64`s through one lane, same thread, bursts under
/// the ring capacity so the fast path (and its wraparound) is what runs.
fn spsc_ring(msgs: usize) -> f64 {
    let (tx, rx) = bench_pair::<u64>(256);
    let bursts = msgs / 128;
    let mut batch: Vec<u64> = Vec::with_capacity(256);
    let start = Instant::now();
    for b in 0..bursts {
        for i in 0..128u64 {
            assert!(tx.send(b as u64 * 128 + i));
        }
        let mut got = 0;
        while got < 128 {
            got += rx.recv_many(&mut batch, 256).expect("bench mailbox killed");
            batch.clear();
        }
    }
    start.elapsed().as_nanos() as f64 / (bursts * 128) as f64
}

/// Cross-thread stream, blocking consumer — reported for context only
/// (on a single-CPU host this times context switches, not the queue).
fn xthread_ring(per: usize, producers: usize) -> f64 {
    let (senders, rx) = bench_lanes::<u64>(256, producers);
    let start = Instant::now();
    let threads: Vec<_> = senders
        .into_iter()
        .map(|tx| {
            std::thread::spawn(move || {
                for i in 0..per as u64 {
                    assert!(tx.send(i));
                }
            })
        })
        .collect();
    let total = per * producers;
    let mut got = 0usize;
    let mut batch: Vec<u64> = Vec::with_capacity(256);
    while got < total {
        got += rx.recv_many(&mut batch, 256).expect("bench mailbox killed");
        batch.clear();
    }
    let ns = start.elapsed().as_nanos() as f64 / total as f64;
    for t in threads {
        t.join().unwrap();
    }
    ns
}

/// ns per message on the retired mutex+condvar mailbox, by row: the
/// `before_ns` column of `results/BENCH_hotpath.json` as committed with
/// the ring rework.
const BEFORE_NS: [(&str, u64, f64); 8] = [
    ("latency_one_way", 0, 189.288408),
    ("latency_one_way", 64, 183.5945335),
    ("latency_one_way", 256, 196.9012795),
    ("mailbox_enqueue_dequeue", 64, 201.6258544921875),
    ("mailbox_enqueue_dequeue", 256, 199.5185361328125),
    ("spsc_ring", 8, 186.047935),
    ("xthread_stream_1p", 8, 387.805544),
    ("xthread_stream_4p", 8, 208.7308255),
];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let (lat_iters, tput_bursts, spsc_msgs, xthread_per) = if smoke {
        (20_000, 200, 50_000, 20_000)
    } else {
        (1_000_000, 8_000, 2_000_000, 500_000)
    };
    let reps = if smoke { 2 } else { 5 };

    // Warm up: fault in code paths before the measured windows.
    latency_ring(64, lat_iters / 10 + 1);
    tput_ring(tput_bursts / 10 + 1, 64);

    let out: Vec<Row> = BEFORE_NS
        .iter()
        .map(|&(metric, msg_bytes, before_ns)| {
            let bytes = msg_bytes as usize;
            let after_ns = best_of(reps, || match metric {
                "latency_one_way" => latency_ring(bytes, lat_iters),
                "mailbox_enqueue_dequeue" => tput_ring(tput_bursts, bytes),
                "spsc_ring" => spsc_ring(spsc_msgs),
                "xthread_stream_1p" => xthread_ring(xthread_per, 1),
                "xthread_stream_4p" => xthread_ring(xthread_per, 4),
                other => unreachable!("no driver for row {other}"),
            });
            Row {
                metric,
                msg_bytes,
                before_ns,
                after_ns,
                speedup: before_ns / after_ns,
                gated: matches!(metric, "latency_one_way" | "mailbox_enqueue_dequeue"),
            }
        })
        .collect();

    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.metric.to_string(),
                fmt_bytes(r.msg_bytes),
                format!("{:.0}", r.before_ns),
                format!("{:.0}", r.after_ns),
                format!("{:.2}x", r.speedup),
                if r.gated { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "hot path — retired mutex mailbox (frozen) vs lock-free SPSC rings",
        &["metric", "msg", "before_ns", "after_ns", "speedup", "gated"],
        &rows,
    );
    println!(
        "\nreading: `before` is the pre-rework mutex+condvar mailbox as last\n\
         measured (frozen, not re-run), `after` the per-pair SPSC rings with the\n\
         batched recv_many drain. latency is one-way queue traversal (half a\n\
         same-thread two-queue ping-pong); throughput is 4 sender lanes bursting\n\
         into one mailbox. xthread rows are context, not gated — on a 1-CPU host\n\
         they time the scheduler."
    );

    if smoke {
        println!("\nsmoke run: thresholds and BENCH_hotpath.json skipped.");
        return;
    }
    write_json("BENCH_hotpath", &out);

    // Acceptance floors from the rework's issue: ≥2× one-way latency for
    // small (≤256 B) messages, ≥4× mailbox enqueue/dequeue throughput.
    for r in &out {
        match r.metric {
            "latency_one_way" => assert!(
                r.speedup >= 2.0,
                "latency {}B: {:.2}x < 2x floor",
                r.msg_bytes,
                r.speedup
            ),
            "mailbox_enqueue_dequeue" => assert!(
                r.speedup >= 4.0,
                "throughput {}B: {:.2}x < 4x floor",
                r.msg_bytes,
                r.speedup
            ),
            _ => {}
        }
    }
    println!("acceptance floors met: latency ≥2x, mailbox throughput ≥4x.");
}
