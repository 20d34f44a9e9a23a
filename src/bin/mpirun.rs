//! `mpirun` — the user-facing launcher of §4.7: "the user just runs a
//! parallel program using the standard mpirun command".
//!
//! ```text
//! mpirun -np 4 ring                            # 4 ranks, demo app "ring"
//! mpirun -np 8 --protocol v1 cg                # MPICH-V1 baseline
//! mpirun -np 4 --pgfile cluster.pg stencil     # explicit program file
//! mpirun -np 4 --kill 2@10ms --kill 0@25ms cg  # fault injection
//! mpirun -np 4 --no-checkpoints ring           # logging only
//! mpirun -np 4 --backend socket ring           # real OS processes + TCP
//! ```
//!
//! The command line is parsed once into the one deployment description
//! ([`ClusterConfig`]) both backends launch from; a flag either acts on
//! the chosen backend or the launcher exits 2 naming the backend that
//! cannot honour it (`ClusterConfig::validate`):
//! - `inproc` (default): the in-process fabric — threads in one
//!   process, the benchmarking substrate. Refuses `--fail-after`,
//!   `--drift`, `--rotate-records`, `--rotate-bytes` (no socket
//!   detector, no per-process stream);
//! - `socket`: every rank, event-logger replica and the checkpoint
//!   server is a **real OS process** speaking length-prefixed frames
//!   over TCP, watched by a socket fail-stop detector; `--kill`,
//!   `--el-kill` and `--cs-kill` become real `SIGKILL`s and recovery
//!   runs across process boundaries. Refuses `--protocol v1|p4`.
//!
//! Demo applications (deterministic, resumable, self-verifying):
//! `ring [iters]`, `allreduce [iters]`, `fanout [msgs]`, `cg [n]`,
//! `stencil [n] [steps]`.

use mpich_v::core::{NodeId, Payload, Rank};
use mpich_v::mpi::{MpiResult, ReduceOp, Source, Tag};
use mpich_v::runtime::proc::{maybe_run_child, run_proc};
use mpich_v::runtime::progfile;
use mpich_v::runtime::{Backend, Cluster, ClusterConfig, MpiApp, NodeMpi, RuntimeProtocol};
use mpich_v::workloads as mvr_workloads;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mpirun -np <N> [--protocol v2|v1|p4] [--backend inproc|socket] \
         [--pgfile <file>] [--kill <rank>@<ms>ms]... [--el-kill <flat>@<ms>ms]... \
         [--cs-kill <ms>ms]... [--el-replicas <R>] [--no-checkpoints] \
         [--timeout <secs>] [--obs-dir <dir>] [--health <addr>] \
         [--fail-after <ms>] [--drift <rank>@<ppb>]... \
         [--rotate-records <N>] [--rotate-bytes <N>] <app> [args...]\n\
         apps: ring [iters] | allreduce [iters] | fanout [msgs] | cg [n] | stencil [n] [steps]"
    );
    std::process::exit(2);
}

/// The next argument parsed as a `T`, or the usage message.
fn next<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    let value = args.next().and_then(|v| v.parse().ok());
    value.unwrap_or_else(|| usage())
}

/// The next argument as a time in milliseconds (`30` or `30ms`).
fn next_ms(args: &mut impl Iterator<Item = String>) -> Duration {
    millis(&next::<String>(args))
}

fn millis(text: &str) -> Duration {
    let ms = text.trim_end_matches("ms").parse().ok();
    Duration::from_millis(ms.unwrap_or_else(|| usage()))
}

/// The next argument as `<index>@<value>`.
fn next_at(args: &mut impl Iterator<Item = String>) -> (u32, String) {
    let spec: String = next(args);
    let pair = spec.split_once('@');
    let pair = pair.and_then(|(idx, value)| Some((idx.parse().ok()?, value.to_string())));
    pair.unwrap_or_else(|| usage())
}

/// Parse the command line into the one deployment description both
/// backends launch from, checked against the chosen backend.
fn parse_args() -> (Backend, ClusterConfig) {
    let mut o = ClusterConfig::new(4, "");
    let mut backend = Backend::InProcess;
    let (mut pgfile, mut checkpoints) = (None::<String>, true);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "-np" | "--np" => o.world = next(args),
            "--protocol" => {
                o.protocol = match next::<String>(args).as_str() {
                    "v2" => RuntimeProtocol::V2,
                    "v1" => RuntimeProtocol::V1,
                    "p4" => RuntimeProtocol::P4,
                    _ => usage(),
                }
            }
            "--backend" => {
                backend = match next::<String>(args).as_str() {
                    "inproc" | "in-process" => Backend::InProcess,
                    "socket" | "tcp" => Backend::Socket,
                    _ => usage(),
                }
            }
            "--pgfile" => pgfile = Some(next(args)),
            "--kill" => {
                let (rank, at) = next_at(args);
                o.kills.push((NodeId::Computing(Rank(rank)), millis(&at)));
            }
            "--el-kill" => {
                let (flat, at) = next_at(args);
                o.kills.push((NodeId::EventLogger(flat), millis(&at)));
            }
            "--cs-kill" => o.kills.push((NodeId::CheckpointServer(0), next_ms(args))),
            "--el-replicas" => o.el_replicas = next(args),
            "--no-checkpoints" => checkpoints = false,
            "--timeout" => o.timeout = Duration::from_secs(next(args)),
            "--obs-dir" => o.obs_dir = Some(next::<String>(args).into()),
            "--health" => o.health_addr = Some(next(args)),
            "--fail-after" => o.proc.fail_after = Some(next_ms(args)),
            // rank@ppb: inject a clock-drift rate (parts per billion,
            // may be negative) into one rank's recorder.
            "--drift" => {
                let (rank, ppb) = next_at(args);
                let ppb = ppb.parse().unwrap_or_else(|_| usage());
                o.proc.epoch_drift.push((Rank(rank), ppb));
            }
            "--rotate-records" => o.proc.rotate_records = next(args),
            "--rotate-bytes" => o.proc.rotate_bytes = next(args),
            app if !app.starts_with('-') => {
                let numbers = args.filter(|v| v.parse::<u64>().is_ok());
                let spec: Vec<String> = std::iter::once(a.clone()).chain(numbers).collect();
                o.proc.app_spec = spec.join(" ");
                break;
            }
            _ => usage(),
        }
    }
    if o.proc.app_spec.is_empty() {
        usage();
    }

    // Resolve the program file into the description.
    let pf = match &pgfile {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("mpirun: cannot read {path}: {e}");
                std::process::exit(1);
            });
            progfile::parse(&text).unwrap_or_else(|e| {
                eprintln!("mpirun: {e}");
                std::process::exit(1);
            })
        }
        None => progfile::default_for(o.world),
    };
    if pgfile.is_some() {
        o.world = pf.world();
    }
    let scheduler = pf.scheduler.clone().map(|(_, c)| c).unwrap_or_default();
    o.checkpointing = (checkpoints && o.protocol == RuntimeProtocol::V2).then_some(scheduler);
    o.el_shards = pf.event_loggers.len().max(1) as u32;
    // The live invariant monitor rides on the flight records.
    o.monitor = o.obs_dir.is_some();
    // Refused before anything is launched, with the usage exit code.
    let topology = o.validate(backend).unwrap_or_else(|e| {
        eprintln!("mpirun: {e}");
        std::process::exit(2);
    });
    o.proc.binds = pf.bind_map(&topology);
    (backend, o)
}

// ---------------------------------------------------------------------
// Demo applications
// ---------------------------------------------------------------------

fn ring(iters: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let me = mpi.rank().0;
        let n = mpi.size();
        let next = Rank((me + 1) % n);
        let prev = Rank((me + n - 1) % n);
        let (mut i, mut acc): (u32, u64) = match &restored {
            Some(p) => bincode::deserialize(p.as_slice()).unwrap(),
            None => (0, 0),
        };
        while i < iters {
            let token = ((i as u64) << 32) | me as u64;
            let (_, _, body) = mpi.sendrecv(
                next,
                7,
                &token.to_le_bytes(),
                Source::Rank(prev),
                Tag::Value(7),
            )?;
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(u64::from_le_bytes(body.as_slice().try_into().unwrap()));
            i += 1;
            mpi.checkpoint_site(&bincode::serialize(&(i, acc)).unwrap())?;
        }
        Ok(Payload::from_vec(acc.to_le_bytes().to_vec()))
    }
}

fn allreduce_app(iters: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let (mut i, mut acc): (u32, u64) = match &restored {
            Some(p) => bincode::deserialize(p.as_slice()).unwrap(),
            None => (0, 0),
        };
        while i < iters {
            let sum = mpi.allreduce(ReduceOp::Sum, &[mpi.rank().0 as u64 + i as u64])?;
            acc = acc.wrapping_mul(1099511628211).wrapping_add(sum[0]);
            i += 1;
            mpi.checkpoint_site(&bincode::serialize(&(i, acc)).unwrap())?;
        }
        Ok(Payload::from_vec(acc.to_le_bytes().to_vec()))
    }
}

/// Rank 0 streams `msgs` tokens to every other rank and returns at once;
/// the others consume theirs slowly (1 ms each). Rank 0 is therefore long
/// finished — its volatile sender log the only copy of what it sent —
/// while its peers still receive: the supervision corner where a finished
/// rank must be revived.
fn fanout(msgs: u32) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let (mut i, mut acc): (u32, u64) = match &restored {
            Some(p) => bincode::deserialize(p.as_slice()).unwrap(),
            None => (0, 0),
        };
        while i < msgs {
            let token = ((i as u64) << 8) | 0x5a;
            if mpi.rank().0 == 0 {
                for q in 1..mpi.size() {
                    mpi.send(Rank(q), 9, &token.to_le_bytes())?;
                }
            } else {
                let (_, _, body) = mpi.recv(Source::Rank(Rank(0)), Tag::Value(9))?;
                let got = u64::from_le_bytes(body.as_slice().try_into().unwrap());
                acc = acc.wrapping_mul(31).wrapping_add(got);
                std::thread::sleep(Duration::from_millis(1));
            }
            i += 1;
            mpi.checkpoint_site(&bincode::serialize(&(i, acc)).unwrap())?;
        }
        Ok(Payload::from_vec(acc.to_le_bytes().to_vec()))
    }
}

/// Resolve an application spec (`"ring 40"`) to a runnable app. Used by
/// the launcher itself and — via the child hook — by every re-executed
/// rank process, so both backends run the very same application object.
fn make_app(spec: &str) -> Option<Arc<dyn MpiApp>> {
    let mut parts = spec.split_whitespace();
    let name = parts.next()?;
    let args: Vec<u64> = parts.filter_map(|v| v.parse().ok()).collect();
    let arg0 = args.first().copied();
    let arg1 = args.get(1).copied();
    match name {
        "ring" => Some(Arc::new(ring(arg0.unwrap_or(500) as u32))),
        "allreduce" => Some(Arc::new(allreduce_app(arg0.unwrap_or(300) as u32))),
        "fanout" => Some(Arc::new(fanout(arg0.unwrap_or(500) as u32))),
        "cg" => {
            let n = arg0.unwrap_or(768) as usize;
            let ccfg = mvr_workloads::CgConfig {
                n,
                max_iter: (2 * n) as u32,
                tol: 1e-10,
            };
            Some(Arc::new(
                move |mpi: &mut NodeMpi, restored: Option<Payload>| {
                    let st = restored.map(|p| bincode::deserialize(p.as_slice()).unwrap());
                    let r = mvr_workloads::cg(mpi, &ccfg, st)?;
                    Ok(Payload::from_vec(bincode::serialize(&r).unwrap()))
                },
            ))
        }
        "stencil" => {
            let scfg = mvr_workloads::StencilConfig {
                n: arg0.unwrap_or(4000) as usize,
                steps: arg1.unwrap_or(300) as u32,
            };
            Some(Arc::new(
                move |mpi: &mut NodeMpi, restored: Option<Payload>| {
                    let st = restored.map(|p| bincode::deserialize(p.as_slice()).unwrap());
                    let total = mvr_workloads::stencil(mpi, &scfg, st)?;
                    Ok(Payload::from_vec(total.to_le_bytes().to_vec()))
                },
            ))
        }
        _ => None,
    }
}

fn main() {
    // Child hook first: `--backend socket` re-executes this binary per
    // deployment node with MVR_PROC_CHILD set; those invocations run
    // the role and never return.
    maybe_run_child(&make_app);

    let (backend, cfg) = parse_args();
    println!(
        "mpirun: {} ranks, protocol {:?}, backend {backend}, {} event logger shard(s) x{}, checkpoints {}",
        cfg.world,
        cfg.protocol,
        cfg.el_shards,
        cfg.el_replicas,
        if cfg.checkpointing.is_some() {
            "on"
        } else {
            "off"
        }
    );
    let Some(app) = make_app(&cfg.proc.app_spec) else {
        eprintln!("mpirun: unknown app '{}'", cfg.proc.app_spec);
        usage();
    };
    let outcome = match backend {
        Backend::Socket => run_socket(cfg),
        Backend::InProcess => run_inproc(cfg, app),
    };
    if let Err(e) = outcome {
        eprintln!("mpirun: {e}");
        std::process::exit(1);
    }
}

fn run_inproc(cfg: ClusterConfig, app: Arc<dyn MpiApp>) -> Result<(), Box<dyn std::error::Error>> {
    let (timeout, obs_dir) = (cfg.timeout, cfg.obs_dir.clone());
    let cluster = Cluster::launch(cfg, app);
    if let Some(addr) = cluster.health_addr() {
        println!("mpirun: health endpoint at http://{addr}/");
    }
    let hub = cluster.recorder_hub();
    let report = cluster.wait_report(timeout)?;
    // A failed run left its crash dump on the way out; a completed one
    // hands its records over here.
    if let Some(dir) = obs_dir {
        println!("mpirun: {}", hub.dump(&dir, "merged")?.summary());
    }
    print_results(&report.results, report.restarts, report.service_restarts);
    Ok(())
}

fn run_socket(cfg: ClusterConfig) -> Result<(), Box<dyn std::error::Error>> {
    let report = run_proc(cfg)?;
    for (peer, cause) in &report.detections {
        println!("mpirun: detected loss of {peer} ({cause})");
    }
    if let Some(merge) = &report.merge {
        println!("mpirun: {}", merge.summary());
    }
    print_results(
        &report.results,
        report.restarts.into(),
        report.service_restarts.into(),
    );
    Ok(())
}

fn print_results(results: &[Payload], restarts: u64, service_restarts: u64) {
    for (r, p) in results.iter().enumerate() {
        println!(
            "rank {r}: {} result bytes ({})",
            p.len(),
            hex8(p.as_slice())
        );
    }
    println!(
        "mpirun: run completed ({restarts} rank restarts, {service_restarts} service restarts)"
    );
}

fn hex8(bytes: &[u8]) -> String {
    bytes
        .iter()
        .take(8)
        .map(|b| format!("{b:02x}"))
        .collect::<String>()
}
