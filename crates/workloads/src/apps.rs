//! The checkpointed verification applications, each next to its
//! closed-form fault-free result.
//!
//! The paper's correctness claim is that a run with crashes returns what
//! the fault-free run returns. Every app here folds what it receives
//! into a `u64` whose fault-free value has a closed form (`expected_*`),
//! so a matching result is proof of exactly-once, correctly ordered
//! delivery under any kill schedule. The same app object runs under V2,
//! V1 and P4, in process and over sockets; [`make_app`] resolves the
//! `mpirun` application spec (`"ring 40"`) for the launcher and for
//! every re-executed deployment child.
//!
//! * [`ring_app`] — every rank `sendrecv`s a token around a ring;
//! * [`stream_app`] — rank 0 produces, middle ranks transform and
//!   forward down a pipeline;
//! * [`fanin_app`] — ranks 1.. send to rank 0, which receives with
//!   `Source::Any` (the nondeterministic reception order the event
//!   logger must replay);
//! * [`allreduce_app`] — one `allreduce` per iteration;
//! * [`fanout_app`] — rank 0 streams to slow consumers and finishes
//!   long before them.
//!
//! Each takes a checkpoint site after every iteration and restores from
//! the image it was handed.

use crate::kernels::{cg, stencil, CgConfig, StencilConfig};
use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiResult, ReduceOp, Source, Tag};
use mvr_runtime::{MpiApp, NodeMpi};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// The checkpointed state of the iterating apps: iterations done and
/// the fold of what they received.
#[derive(Clone, Default, Serialize, Deserialize)]
struct IterState {
    iter: u32,
    acc: u64,
}

/// The state the restored checkpoint image carries, or the initial one.
fn restore<T: DeserializeOwned + Default>(restored: &Option<Payload>) -> T {
    match restored {
        Some(p) => bincode::deserialize(p.as_slice()).expect("a checkpointed state"),
        None => T::default(),
    }
}

/// Run `step` for the iterations the restored image has not done yet,
/// folding each word it yields as `acc * mul + word`, with a checkpoint
/// site after every iteration. The result is the final fold.
fn iterate<F>(iters: u32, mul: u64, step: F) -> impl MpiApp
where
    F: Fn(&mut NodeMpi, u32) -> MpiResult<Option<u64>> + Send + Sync + 'static,
{
    move |mpi: &mut NodeMpi, restored: Option<Payload>| {
        let mut st: IterState = restore(&restored);
        while st.iter < iters {
            if let Some(v) = step(mpi, st.iter)? {
                st.acc = st.acc.wrapping_mul(mul).wrapping_add(v);
            }
            st.iter += 1;
            mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
        }
        Ok(Payload::from_vec(st.acc.to_le_bytes().to_vec()))
    }
}

/// The fault-free value of [`iterate`]'s fold over `iters` words.
fn fold(iters: u32, mul: u64, word: impl Fn(u32) -> u64) -> u64 {
    (0..iters).fold(0, |acc, i| acc.wrapping_mul(mul).wrapping_add(word(i)))
}

fn word(body: &Payload) -> u64 {
    u64::from_le_bytes(body.as_slice().try_into().expect("an 8-byte word"))
}

fn ring_token(iter: u32, rank: u32) -> u64 {
    (u64::from(iter) << 32) | u64::from(rank)
}

/// Every rank sends an 8-byte token to its successor and receives its
/// predecessor's (one `sendrecv`, tag 7, per iteration), asserting the
/// token is the one the predecessor sent this iteration.
pub fn ring_app(iters: u32) -> impl MpiApp {
    iterate(iters, 31, |mpi, i| {
        let (me, n) = (mpi.rank().0, mpi.size());
        let prev = (me + n - 1) % n;
        let (_, _, body) = mpi.sendrecv(
            Rank((me + 1) % n),
            7,
            &ring_token(i, me).to_le_bytes(),
            Source::Rank(Rank(prev)),
            Tag::Value(7),
        )?;
        let v = word(&body);
        assert_eq!(v, ring_token(i, prev), "rank {me}: wrong token content");
        Ok(Some(v))
    })
}

/// [`ring_app`]'s fault-free result on rank `me` of `n`.
pub fn expected_ring(me: u32, n: u32, iters: u32) -> u64 {
    fold(iters, 31, |i| ring_token(i, (me + n - 1) % n))
}

/// A pipeline: rank 0 sends its iteration number to rank 1 (tag 5);
/// every later rank receives from its predecessor, transforms the word
/// (`w * 31 + me`) and forwards it, the last rank only receives.
pub fn stream_app(msgs: u32) -> impl MpiApp {
    iterate(msgs, 131, |mpi, i| {
        let (me, n) = (mpi.rank().0, mpi.size());
        let w = if me == 0 {
            u64::from(i)
        } else {
            let (_, _, body) = mpi.recv(Source::Rank(Rank(me - 1)), Tag::Value(5))?;
            word(&body).wrapping_mul(31).wrapping_add(u64::from(me))
        };
        if me + 1 < n {
            mpi.send(Rank(me + 1), 5, &w.to_le_bytes())?;
        }
        Ok(Some(w))
    })
}

/// [`stream_app`]'s fault-free result on rank `me`.
pub fn expected_stream(me: u32, msgs: u32) -> u64 {
    fold(msgs, 131, |i| {
        (1..=me).fold(u64::from(i), |w, r| {
            w.wrapping_mul(31).wrapping_add(u64::from(r))
        })
    })
}

/// Ranks 1.. each send `msgs_per_rank` words to rank 0 (tag 3); rank 0
/// probes and receives them with `Source::Any` and returns their sum.
/// The senders return an empty payload.
pub fn fanin_app(msgs_per_rank: u32) -> impl MpiApp {
    move |mpi: &mut NodeMpi, restored: Option<Payload>| {
        let me = mpi.rank();
        let n = mpi.size();
        if me == Rank(0) {
            let (mut got, mut sum): (u32, u64) = restore(&restored);
            let total = (n - 1) * msgs_per_rank;
            while got < total {
                // Exercise the probe path (logged and replayed, §4.5).
                let _ = mpi.iprobe(Source::Any, Tag::Any)?;
                let (_, _, body) = mpi.recv(Source::Any, Tag::Any)?;
                sum = sum.wrapping_add(word(&body));
                got += 1;
                mpi.checkpoint_site(&bincode::serialize(&(got, sum)).expect("serializable"))?;
            }
            Ok(Payload::from_vec(sum.to_le_bytes().to_vec()))
        } else {
            let mut i: u32 = restore(&restored);
            while i < msgs_per_rank {
                let v = u64::from(me.0) * 1000 + u64::from(i);
                mpi.send(Rank(0), 3, &v.to_le_bytes())?;
                i += 1;
                mpi.checkpoint_site(&bincode::serialize(&i).expect("serializable"))?;
            }
            Ok(Payload::empty())
        }
    }
}

/// [`fanin_app`]'s fault-free result on rank 0 of `n`.
pub fn expected_fanin_sum(n: u32, msgs: u32) -> u64 {
    (1..n)
        .flat_map(|r| (0..msgs).map(move |i| u64::from(r) * 1000 + u64::from(i)))
        .fold(0, u64::wrapping_add)
}

/// One `allreduce(Sum)` of `rank + iteration` per iteration.
pub fn allreduce_app(iters: u32) -> impl MpiApp {
    iterate(iters, 1099511628211, |mpi, i| {
        let sum = mpi.allreduce(ReduceOp::Sum, &[u64::from(mpi.rank().0) + u64::from(i)])?;
        Ok(Some(sum[0]))
    })
}

/// [`allreduce_app`]'s fault-free result on every rank of `n`.
pub fn expected_allreduce(n: u32, iters: u32) -> u64 {
    let n = u64::from(n);
    fold(iters, 1099511628211, |i| n * (n - 1) / 2 + n * u64::from(i))
}

fn fanout_token(iter: u32) -> u64 {
    (u64::from(iter) << 8) | 0x5a
}

/// Rank 0 streams `msgs` tokens to every other rank (tag 9) and returns
/// at once; the others consume theirs slowly (1 ms each). Rank 0 is
/// therefore long finished — its volatile sender log the only copy of
/// what it sent — while its peers still receive: the supervision corner
/// where a finished rank must be revived.
pub fn fanout_app(msgs: u32) -> impl MpiApp {
    iterate(msgs, 31, |mpi, i| {
        let token = fanout_token(i);
        if mpi.rank().0 == 0 {
            for q in 1..mpi.size() {
                mpi.send(Rank(q), 9, &token.to_le_bytes())?;
            }
            return Ok(None);
        }
        let (_, _, body) = mpi.recv(Source::Rank(Rank(0)), Tag::Value(9))?;
        std::thread::sleep(Duration::from_millis(1));
        Ok(Some(word(&body)))
    })
}

/// [`fanout_app`]'s fault-free result on rank `me`.
pub fn expected_fanout(me: u32, msgs: u32) -> u64 {
    if me == 0 {
        0
    } else {
        fold(msgs, 31, fanout_token)
    }
}

/// Check every rank's 8-byte result against its fault-free value
/// `want(rank)`; the error names the first rank that diverges.
pub fn check(results: &[Payload], want: impl Fn(u32) -> u64) -> Result<(), String> {
    for (r, p) in results.iter().enumerate() {
        let Ok(bytes) = <[u8; 8]>::try_from(p.as_slice()) else {
            return Err(format!("rank {r}: {} result bytes, want 8", p.len()));
        };
        let (got, want) = (u64::from_le_bytes(bytes), want(r as u32));
        if got != want {
            return Err(format!("rank {r}: got {got:#x}, want {want:#x}"));
        }
    }
    Ok(())
}

/// [`check`] against [`expected_ring`].
pub fn check_ring(results: &[Payload], iters: u32) -> Result<(), String> {
    let n = results.len() as u32;
    check(results, |r| expected_ring(r, n, iters))
}

/// Rank 0 returns [`expected_fanin_sum`], every sender an empty payload.
pub fn check_fanin(results: &[Payload], msgs: u32) -> Result<(), String> {
    let n = results.len() as u32;
    check(&results[..1], |_| expected_fanin_sum(n, msgs))?;
    for (r, p) in results.iter().enumerate().skip(1) {
        if !p.as_slice().is_empty() {
            return Err(format!("rank {r}: expected empty payload"));
        }
    }
    Ok(())
}

/// The spec's `i`-th numeric argument, or `default`.
fn arg(args: &[u64], i: usize, default: u64) -> u32 {
    args.get(i).copied().unwrap_or(default) as u32
}

fn cg_app(args: &[u64]) -> Arc<dyn MpiApp> {
    let n = arg(args, 0, 768);
    let ccfg = CgConfig {
        n: n as usize,
        max_iter: 2 * n,
        tol: 1e-10,
    };
    Arc::new(move |mpi: &mut NodeMpi, restored: Option<Payload>| {
        let st = restored.map(|p| bincode::deserialize(p.as_slice()).unwrap());
        let r = cg(mpi, &ccfg, st)?;
        Ok(Payload::from_vec(bincode::serialize(&r).unwrap()))
    })
}

fn stencil_app(args: &[u64]) -> Arc<dyn MpiApp> {
    let scfg = StencilConfig {
        n: arg(args, 0, 4000) as usize,
        steps: arg(args, 1, 300),
    };
    Arc::new(move |mpi: &mut NodeMpi, restored: Option<Payload>| {
        let st = restored.map(|p| bincode::deserialize(p.as_slice()).unwrap());
        let total = stencil(mpi, &scfg, st)?;
        Ok(Payload::from_vec(total.to_le_bytes().to_vec()))
    })
}

/// An app constructor from the spec's numeric arguments (a missing one
/// takes the default the constructor names).
type Make = fn(&[u64]) -> Arc<dyn MpiApp>;

/// The `--app` registry: name, argument synopsis, constructor.
const APPS: &[(&str, &str, Make)] = &[
    ("ring", "[iters]", |a| Arc::new(ring_app(arg(a, 0, 500)))),
    ("allreduce", "[iters]", |a| {
        Arc::new(allreduce_app(arg(a, 0, 300)))
    }),
    ("fanout", "[msgs]", |a| Arc::new(fanout_app(arg(a, 0, 500)))),
    ("cg", "[n]", cg_app),
    ("stencil", "[n] [steps]", stencil_app),
];

/// The registry as `mpirun` prints it: `ring [iters] | allreduce ...`.
pub fn usage() -> String {
    let entries: Vec<String> = APPS.iter().map(|(n, a, _)| format!("{n} {a}")).collect();
    entries.join(" | ")
}

/// Resolve an application spec (`"ring 40"`: a name, then numeric
/// arguments) to a runnable app, or `None` for a name not in
/// [`usage`]. Used by the launcher itself and — via the child hook — by
/// every re-executed rank process, so both backends run the very same
/// application object.
pub fn make_app(spec: &str) -> Option<Arc<dyn MpiApp>> {
    let mut parts = spec.split_whitespace();
    let name = parts.next()?;
    let args: Vec<u64> = parts.filter_map(|v| v.parse().ok()).collect();
    let (_, _, make) = APPS.iter().find(|(n, _, _)| *n == name)?;
    Some(make(&args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_runtime::{run_cluster, ClusterConfig, SchedulerConfig};

    const TIMEOUT: Duration = Duration::from_secs(60);

    /// A fault-free, checkpointing run of `app` on 3 ranks.
    fn run3(app: impl MpiApp) -> Vec<Payload> {
        let cfg = ClusterConfig {
            world: 3,
            checkpointing: Some(SchedulerConfig {
                interval: Duration::from_millis(1),
                ..Default::default()
            }),
            ..Default::default()
        };
        run_cluster(cfg, app, TIMEOUT).expect("fault-free run")
    }

    #[test]
    fn every_app_in_the_usage_resolves_and_no_other_name_does() {
        assert_eq!(
            usage(),
            "ring [iters] | allreduce [iters] | fanout [msgs] | cg [n] | stencil [n] [steps]"
        );
        for entry in usage().split(" | ") {
            let name = entry.split_whitespace().next().unwrap();
            assert!(make_app(name).is_some(), "{name}");
            assert!(make_app(&format!("{name} 3 2")).is_some(), "{name} 3 2");
        }
        for unknown in ["", "stream 10", "fanin", "soak-ring 120", "rings"] {
            assert!(make_app(unknown).is_none(), "{unknown:?}");
        }
    }

    #[test]
    fn stream_returns_its_fault_free_fold() {
        check(&run3(stream_app(200)), |r| expected_stream(r, 200)).unwrap();
    }

    #[test]
    fn allreduce_returns_its_fault_free_fold() {
        check(&run3(allreduce_app(150)), |_| expected_allreduce(3, 150)).unwrap();
    }

    #[test]
    fn fanout_returns_its_fault_free_fold() {
        check(&run3(fanout_app(40)), |r| expected_fanout(r, 40)).unwrap();
    }
}
