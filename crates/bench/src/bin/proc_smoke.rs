//! Multi-process deployment smoke: one pinned, seeded scenario on the
//! socket backend — 4 real `mpirun`-style OS processes plus a
//! replicated event logger and a checkpoint server, with a real
//! `SIGKILL` of one rank *and* one event-logger replica mid-stream.
//!
//! The run must complete with recovery (≥1 rank reincarnation, ≥1
//! service revival), produce bit-exact ring payloads, report zero
//! invariant violations from the live monitors, and leave a merged
//! flight-recorder dump that passes the strict [`mvr_obs::audit`] —
//! the function behind `obs_analyze --strict`, which CI also runs on
//! `results/proc_smoke_obs/merged.jsonl` afterwards.
//!
//! This binary re-executes itself as the rank/EL/CS children
//! (`maybe_run_child`), exactly like `mpirun --backend socket`.

use mvr_core::{NodeId, Rank};
use mvr_obs::{audit, read_dump};
use mvr_runtime::proc::{maybe_run_child, run_proc};
use mvr_runtime::{ClusterConfig, SchedulerConfig};
use mvr_workloads::apps::{check_ring, make_app};
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORLD: u32 = 4;
const ITERS: u32 = 120;

fn fail(msg: &str) -> ! {
    eprintln!("proc_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// The strict audit of the merged dump.
fn audit_dump(path: &std::path::Path) {
    let (header, timeline) = read_dump(path).unwrap_or_else(|e| fail(&e));
    let audit = audit(header.as_ref(), &timeline).unwrap_or_else(|e| fail(&e));
    if let Some(v) = &audit.violation {
        eprintln!("proc_smoke: {v}");
    }
    if !audit.findings.is_empty() {
        fail(&format!("strict audit: {}", audit.findings.join("; ")));
    }
    println!(
        "proc_smoke: strict audit ok ({} records, {} spans)",
        timeline.len(),
        audit.spans.spans.len()
    );
}

/// One plain-HTTP GET of the supervisor's health page.
fn scrape_health(addr: &str) -> Option<String> {
    let mut conn = std::net::TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    conn.write_all(b"GET / HTTP/1.0\r\n\r\n").ok()?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw).ok()?;
    let (_, body) = raw.split_once("\r\n\r\n")?;
    Some(body.to_string())
}

/// Background scraper of the aggregated health endpoint: discovers the
/// ephemeral port through the address file, then polls the page until
/// told to stop, keeping the latest body. This is the live-telemetry
/// check — the series below exist only while the run is in flight.
fn spawn_health_scraper(
    addr_file: PathBuf,
    stop: Arc<AtomicBool>,
    page: Arc<Mutex<Option<(String, String)>>>,
) -> std::thread::JoinHandle<u32> {
    std::thread::spawn(move || {
        let mut scrapes = 0u32;
        let mut addr = None;
        while !stop.load(Ordering::Relaxed) {
            if addr.is_none() {
                addr = std::fs::read_to_string(&addr_file)
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty());
            }
            if let Some(a) = &addr {
                if let Some(body) = scrape_health(a) {
                    scrapes += 1;
                    *page.lock().expect("page lock") = Some((a.clone(), body));
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        scrapes
    })
}

/// The mid-run health page must carry the whole aggregated story:
/// per-rank liveness, live-telemetry counters for every rank child,
/// monitor progress — and no telemetry drops anywhere.
fn check_health_page(addr: &str, body: &str) {
    println!("proc_smoke: health endpoint http://{addr}/ (mid-run scrape)");
    for r in 0..WORLD {
        if !body.contains(&format!("mvr_rank_alive{{rank=\"{r}\"}}")) {
            fail(&format!(
                "health page lacks mvr_rank_alive for rank {r}:\n{body}"
            ));
        }
        if !body.contains(&format!("mvr_telemetry_records_total{{node=\"cn{r}\"}}")) {
            fail(&format!(
                "health page lacks cn{r} telemetry series:\n{body}"
            ));
        }
    }
    if !body.contains("mvr_monitor_enabled 1") {
        fail(&format!("live monitor not running:\n{body}"));
    }
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("mvr_telemetry_dropped_total") {
            let drops: u64 = rest
                .split_whitespace()
                .last()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if drops > 0 {
                fail(&format!("unexpected telemetry drops: {line}"));
            }
        }
    }
}

fn main() {
    // Child re-entry: rank/EL/CS processes come back through here.
    if maybe_run_child(&make_app) {
        return;
    }

    let obs_dir = PathBuf::from("results").join("proc_smoke_obs");
    let _ = std::fs::remove_dir_all(&obs_dir);

    let mut opts = ClusterConfig::new(WORLD, format!("ring {ITERS}"));
    opts.el_replicas = 3;
    opts.checkpointing = Some(SchedulerConfig::default());
    opts.monitor = true;
    opts.timeout = Duration::from_secs(90);
    // The pinned fault plan: a rank dies mid-stream, then an EL replica
    // dies while the quorum gate is hot. Both are real SIGKILLs.
    opts.kills = vec![
        (NodeId::Computing(Rank(1)), Duration::from_millis(45)),
        (NodeId::EventLogger(2), Duration::from_millis(70)),
    ];
    opts.obs_dir = Some(obs_dir.clone());
    // Aggregated live health on an ephemeral port, discovered through
    // the address file and scraped while the run is in flight.
    std::fs::create_dir_all(&obs_dir).unwrap_or_else(|e| fail(&format!("obs dir: {e}")));
    let addr_file = obs_dir.join("health.addr");
    opts.health_addr = Some("127.0.0.1:0".into());
    opts.proc.health_addr_file = Some(addr_file.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let page = Arc::new(Mutex::new(None));
    let scraper = spawn_health_scraper(addr_file, stop.clone(), page.clone());

    println!(
        "proc_smoke: world={WORLD}, EL 1x3, SIGKILL cn1@45ms + el2@70ms, ring {ITERS} (socket backend)"
    );
    let start = Instant::now();
    let report = match run_proc(opts) {
        Ok(r) => r,
        Err(e) => fail(&format!("deployment failed: {e}")),
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper joins");
    if scrapes == 0 {
        fail("health endpoint was never scraped mid-run");
    }
    let (addr, body) = page
        .lock()
        .expect("page lock")
        .take()
        .unwrap_or_else(|| fail("no health page captured"));
    check_health_page(&addr, &body);

    // Recovery happened and converged to the fault-free payloads.
    if let Err(e) = check_ring(&report.results, ITERS) {
        fail(&e);
    }
    if report.restarts < 1 {
        fail("expected at least one rank reincarnation");
    }
    if report.service_restarts < 1 {
        fail("expected at least one EL replica revival");
    }
    if report.detections.is_empty() {
        fail("expected fail-stop detections");
    }
    // (A live-monitor violation fails `run_proc` itself.)
    let Some(merge) = &report.merge else {
        fail("no merged flight-recorder dump");
    };
    audit_dump(&merge.jsonl);
    // The live stream shipped complete: no child staged past capacity.
    for (node, snap) in &report.telemetry {
        if snap.dropped_total > 0 {
            fail(&format!(
                "{node} dropped {} telemetry record(s)",
                snap.dropped_total
            ));
        }
    }
    println!("proc_smoke: {}", merge.summary());

    for (peer, cause) in &report.detections {
        println!("proc_smoke: detected loss of {peer} ({cause})");
    }
    println!(
        "proc_smoke: ok — {} rank restart(s), {} service restart(s), {:.0}ms",
        report.restarts, report.service_restarts, wall_ms
    );
}
