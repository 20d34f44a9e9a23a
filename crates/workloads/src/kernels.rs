//! Real (numeric) mini-kernels, generic over the channel so they run both
//! on the in-process test cluster and on the fault-tolerant runtime:
//!
//! * [`cg`] — a distributed conjugate-gradient solver on a 1-D Laplacian
//!   (row-block partition, halo exchanges + dot-product allreduces): the
//!   communication skeleton of NPB CG, with real numerics.
//! * [`stencil`] — an explicit 1-D heat-equation stepper (halo exchange
//!   per step): the paper's "long-running computation" archetype.
//!
//! Both are resumable: their whole state is `serde`-serializable and they
//! call `checkpoint_site` each iteration, so daemon-ordered checkpoints
//! and replay work transparently.

use mvr_core::Rank;
use mvr_mpi::{Channel, Mpi, MpiResult, ReduceOp, Source, Tag};
use serde::{Deserialize, Serialize};

/// Halo tag used by the kernels.
const HALO: i32 = 101;

// ---------------------------------------------------------------------
// Conjugate gradient
// ---------------------------------------------------------------------

/// CG configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CgConfig {
    /// Global unknowns (split into row blocks).
    pub n: usize,
    /// Maximum iterations.
    pub max_iter: u32,
    /// Convergence threshold on ‖r‖².
    pub tol: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            n: 4096,
            max_iter: 200,
            tol: 1e-12,
        }
    }
}

/// The (checkpointable) CG solver state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CgState {
    /// Iteration counter.
    pub iter: u32,
    /// Local solution block.
    pub x: Vec<f64>,
    /// Local residual block.
    pub r: Vec<f64>,
    /// Local search-direction block.
    pub p: Vec<f64>,
    /// Current ‖r‖².
    pub rr: f64,
}

/// CG outcome.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CgResult {
    /// Iterations executed.
    pub iterations: u32,
    /// Final ‖r‖².
    pub residual: f64,
    /// Sum of all solution entries (a global checksum).
    pub checksum: f64,
}

fn block_range(n: usize, p: u32, r: u32) -> (usize, usize) {
    let base = n / p as usize;
    let extra = n % p as usize;
    let lo = r as usize * base + (r as usize).min(extra);
    let len = base + usize::from((r as usize) < extra);
    (lo, len)
}

/// Exchange halo values with block neighbours and apply the 1-D
/// Laplacian `A = tridiag(-1, 2, -1)` to `v`.
fn laplacian_matvec<C: Channel>(mpi: &mut Mpi<C>, v: &[f64], out: &mut Vec<f64>) -> MpiResult<()> {
    let me = mpi.rank().0;
    let p = mpi.size();
    let left = (me > 0).then(|| Rank(me - 1));
    let right = (me + 1 < p).then(|| Rank(me + 1));
    let first = *v.first().unwrap_or(&0.0);
    let last = *v.last().unwrap_or(&0.0);

    // Paired halo exchange (nonblocking sends; no deadlock).
    let mut reqs = Vec::new();
    if let Some(l) = left {
        reqs.push(mpi.isend(l, HALO, &first.to_le_bytes())?);
    }
    if let Some(rk) = right {
        reqs.push(mpi.isend(rk, HALO, &last.to_le_bytes())?);
    }
    let halo_left = match left {
        Some(l) => {
            let (_, _, b) = mpi.recv(Source::Rank(l), Tag::Value(HALO))?;
            f64::from_le_bytes(b.as_slice().try_into().expect("8 bytes"))
        }
        None => 0.0,
    };
    let halo_right = match right {
        Some(rk) => {
            let (_, _, b) = mpi.recv(Source::Rank(rk), Tag::Value(HALO))?;
            f64::from_le_bytes(b.as_slice().try_into().expect("8 bytes"))
        }
        None => 0.0,
    };
    for rq in reqs {
        mpi.wait(rq)?;
    }

    out.clear();
    out.reserve(v.len());
    for i in 0..v.len() {
        let lo = if i == 0 { halo_left } else { v[i - 1] };
        let hi = if i + 1 == v.len() {
            halo_right
        } else {
            v[i + 1]
        };
        out.push(2.0 * v[i] - lo - hi);
    }
    Ok(())
}

fn dot<C: Channel>(mpi: &mut Mpi<C>, a: &[f64], b: &[f64]) -> MpiResult<f64> {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    Ok(mpi.allreduce(ReduceOp::Sum, &[local])?[0])
}

/// Run (or resume) CG for `Ax = b` with `b = 1`. Checkpoint sites sit at
/// iteration boundaries.
pub fn cg<C: Channel>(
    mpi: &mut Mpi<C>,
    cfg: &CgConfig,
    restored: Option<CgState>,
) -> MpiResult<CgResult> {
    let (_, len) = block_range(cfg.n, mpi.size(), mpi.rank().0);
    let mut st = restored.unwrap_or_else(|| {
        // x = 0, r = p = b = 1.
        let b = vec![1.0; len];
        let rr = (cfg.n) as f64; // sum of 1²
        CgState {
            iter: 0,
            x: vec![0.0; len],
            r: b.clone(),
            p: b,
            rr,
        }
    });

    let mut ap = Vec::new();
    while st.iter < cfg.max_iter && st.rr > cfg.tol {
        laplacian_matvec(mpi, &st.p, &mut ap)?;
        let p_ap = dot(mpi, &st.p, &ap)?;
        let alpha = st.rr / p_ap;
        for (i, &api) in ap.iter().enumerate().take(len) {
            st.x[i] += alpha * st.p[i];
            st.r[i] -= alpha * api;
        }
        let rr_new = dot(mpi, &st.r, &st.r)?;
        let beta = rr_new / st.rr;
        for i in 0..len {
            st.p[i] = st.r[i] + beta * st.p[i];
        }
        st.rr = rr_new;
        st.iter += 1;
        mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
    }

    let local_sum: f64 = st.x.iter().sum();
    let checksum = mpi.allreduce(ReduceOp::Sum, &[local_sum])?[0];
    Ok(CgResult {
        iterations: st.iter,
        residual: st.rr,
        checksum,
    })
}

// ---------------------------------------------------------------------
// 1-D heat stencil
// ---------------------------------------------------------------------

/// Stencil configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StencilConfig {
    /// Global cells.
    pub n: usize,
    /// Time steps.
    pub steps: u32,
}

/// The (checkpointable) stencil state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StencilState {
    /// Step counter.
    pub step: u32,
    /// Local cells.
    pub u: Vec<f64>,
}

/// Run (or resume) the explicit heat stepper; returns the global sum
/// (conserved up to boundary loss — a strong cross-run invariant).
pub fn stencil<C: Channel>(
    mpi: &mut Mpi<C>,
    cfg: &StencilConfig,
    restored: Option<StencilState>,
) -> MpiResult<f64> {
    let me = mpi.rank().0;
    let p = mpi.size();
    let (lo, len) = block_range(cfg.n, p, me);
    let mut st = restored.unwrap_or_else(|| StencilState {
        step: 0,
        // Deterministic bumpy initial condition.
        u: (0..len)
            .map(|i| (((lo + i) % 17) as f64) / 17.0 + 1.0)
            .collect(),
    });
    let left = (me > 0).then(|| Rank(me - 1));
    let right = (me + 1 < p).then(|| Rank(me + 1));

    while st.step < cfg.steps {
        let first = *st.u.first().expect("nonempty block");
        let last = *st.u.last().expect("nonempty block");
        let mut reqs = Vec::new();
        if let Some(l) = left {
            reqs.push(mpi.isend(l, HALO, &first.to_le_bytes())?);
        }
        if let Some(rk) = right {
            reqs.push(mpi.isend(rk, HALO, &last.to_le_bytes())?);
        }
        let hl = match left {
            Some(l) => {
                let (_, _, b) = mpi.recv(Source::Rank(l), Tag::Value(HALO))?;
                f64::from_le_bytes(b.as_slice().try_into().expect("8 bytes"))
            }
            None => first, // reflecting boundary
        };
        let hr = match right {
            Some(rk) => {
                let (_, _, b) = mpi.recv(Source::Rank(rk), Tag::Value(HALO))?;
                f64::from_le_bytes(b.as_slice().try_into().expect("8 bytes"))
            }
            None => last,
        };
        for rq in reqs {
            mpi.wait(rq)?;
        }
        let mut next = Vec::with_capacity(st.u.len());
        for i in 0..st.u.len() {
            let l = if i == 0 { hl } else { st.u[i - 1] };
            let r = if i + 1 == st.u.len() { hr } else { st.u[i + 1] };
            next.push(0.5 * st.u[i] + 0.25 * (l + r));
        }
        st.u = next;
        st.step += 1;
        mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
    }
    let local: f64 = st.u.iter().sum();
    Ok(mpi.allreduce(ReduceOp::Sum, &[local])?[0])
}

// ---------------------------------------------------------------------
// Cannon's matrix multiplication
// ---------------------------------------------------------------------

/// Cannon configuration: C = A·B on a q×q process torus (p = q² ranks),
/// with n divisible by q.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CannonConfig {
    /// Global matrix dimension.
    pub n: usize,
}

/// The (checkpointable) Cannon state: the local blocks and the shift
/// stage reached.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CannonState {
    /// Completed shift stages.
    pub stage: u32,
    /// Local A block (row-major).
    pub a: Vec<f64>,
    /// Local B block.
    pub b: Vec<f64>,
    /// Local C accumulator.
    pub c: Vec<f64>,
}

fn cannon_grid(p: u32) -> u32 {
    let q = (p as f64).sqrt().round() as u32;
    assert_eq!(q * q, p, "Cannon needs a square process count, got {p}");
    q
}

/// Deterministic input entries.
fn a_entry(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 13) as f64 - 6.0
}

fn b_entry(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 23) % 11) as f64 - 5.0
}

fn local_block(n: usize, q: usize, bi: usize, bj: usize, f: fn(usize, usize) -> f64) -> Vec<f64> {
    let nb = n / q;
    let mut out = Vec::with_capacity(nb * nb);
    for i in 0..nb {
        for j in 0..nb {
            out.push(f(bi * nb + i, bj * nb + j));
        }
    }
    out
}

fn block_mul_acc(c: &mut [f64], a: &[f64], b: &[f64], nb: usize) {
    for i in 0..nb {
        for k in 0..nb {
            let aik = a[i * nb + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..nb {
                c[i * nb + j] += aik * b[k * nb + j];
            }
        }
    }
}

/// Run (or resume) Cannon's algorithm; returns the global checksum
/// `Σᵢⱼ C[i][j]` (verified against a closed-form single-node reference in
/// the tests). Checkpoint sites sit between shift stages.
pub fn cannon<C: Channel>(
    mpi: &mut Mpi<C>,
    cfg: &CannonConfig,
    restored: Option<CannonState>,
) -> MpiResult<f64> {
    let p = mpi.size();
    let q = cannon_grid(p) as usize;
    let me = mpi.rank().0 as usize;
    let (row, col) = (me / q, me % q);
    let nb = cfg.n / q;
    assert_eq!(nb * q, cfg.n, "n must divide the grid");

    let mut st = restored.unwrap_or_else(|| {
        // Initial skew: A block (i,j) starts from column (j+i) mod q;
        // B block from row (i+j) mod q.
        let a = local_block(cfg.n, q, row, (col + row) % q, a_entry);
        let b = local_block(cfg.n, q, (row + col) % q, col, b_entry);
        CannonState {
            stage: 0,
            a,
            b,
            c: vec![0.0; nb * nb],
        }
    });

    let left = Rank((row * q + (col + q - 1) % q) as u32);
    let right = Rank((row * q + (col + 1) % q) as u32);
    let up = Rank((((row + q - 1) % q) * q + col) as u32);
    let down = Rank((((row + 1) % q) * q + col) as u32);

    while (st.stage as usize) < q {
        block_mul_acc(&mut st.c, &st.a, &st.b, nb);
        if (st.stage as usize) + 1 < q || q > 1 {
            // Shift A left, B up (skip when q == 1).
            if q > 1 {
                let (_, _, abody) = mpi.sendrecv(
                    left,
                    31,
                    &encode_f64s(&st.a),
                    Source::Rank(right),
                    Tag::Value(31),
                )?;
                let (_, _, bbody) = mpi.sendrecv(
                    up,
                    32,
                    &encode_f64s(&st.b),
                    Source::Rank(down),
                    Tag::Value(32),
                )?;
                st.a = decode_f64s(abody.as_slice())?;
                st.b = decode_f64s(bbody.as_slice())?;
            }
        }
        st.stage += 1;
        mpi.checkpoint_site(&bincode::serialize(&st).expect("serializable"))?;
    }

    let local_sum: f64 = st.c.iter().sum();
    Ok(mpi.allreduce(ReduceOp::Sum, &[local_sum])?[0])
}

fn encode_f64s(v: &[f64]) -> Vec<u8> {
    mvr_mpi::encode_slice(v)
}

fn decode_f64s(bytes: &[u8]) -> MpiResult<Vec<f64>> {
    mvr_mpi::decode_slice(bytes)
}

/// Single-node reference checksum of C = A·B for the deterministic inputs.
pub fn cannon_reference_checksum(n: usize) -> f64 {
    // Σᵢⱼ Σₖ A[i][k]·B[k][j] = Σₖ (Σᵢ A[i][k]) · (Σⱼ B[k][j]).
    let mut total = 0.0;
    for k in 0..n {
        let col_a: f64 = (0..n).map(|i| a_entry(i, k)).sum();
        let row_b: f64 = (0..n).map(|j| b_entry(k, j)).sum();
        total += col_a * row_b;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_mpi::testing::run_local;

    #[test]
    fn cg_converges_on_local_cluster() {
        for p in [1u32, 2, 4] {
            let out = run_local(p, |mut mpi| {
                let cfg = CgConfig {
                    n: 512,
                    max_iter: 600,
                    tol: 1e-10,
                };
                cg(&mut mpi, &cfg, None)
            })
            .unwrap();
            for r in &out {
                assert!(
                    r.residual < 1e-10 || r.iterations == 600,
                    "residual {}",
                    r.residual
                );
            }
            // All ranks agree on the checksum.
            for r in &out {
                assert!((r.checksum - out[0].checksum).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cg_checksum_is_partition_independent() {
        let c1 = run_local(1, |mut mpi| {
            cg(
                &mut mpi,
                &CgConfig {
                    n: 256,
                    max_iter: 400,
                    tol: 1e-10,
                },
                None,
            )
        })
        .unwrap()[0]
            .checksum;
        let c4 = run_local(4, |mut mpi| {
            cg(
                &mut mpi,
                &CgConfig {
                    n: 256,
                    max_iter: 400,
                    tol: 1e-10,
                },
                None,
            )
        })
        .unwrap()[0]
            .checksum;
        assert!((c1 - c4).abs() / c1.abs() < 1e-6, "{c1} vs {c4}");
    }

    #[test]
    fn stencil_conserves_mass_with_reflecting_boundaries() {
        let out = run_local(3, |mut mpi| {
            let me = mpi.rank().0;
            let p = mpi.size();
            let (lo, len) = block_range(900, p, me);
            let initial: f64 = (0..len)
                .map(|i| (((lo + i) % 17) as f64) / 17.0 + 1.0)
                .sum();
            let total = mpi.allreduce(ReduceOp::Sum, &[initial])?[0];
            let after = stencil(&mut mpi, &StencilConfig { n: 900, steps: 50 }, None)?;
            Ok((total, after))
        })
        .unwrap();
        for (before, after) in out {
            assert!(
                (before - after).abs() / before < 1e-9,
                "{before} vs {after}"
            );
        }
    }

    #[test]
    fn block_ranges_tile_exactly() {
        for n in [10usize, 97, 1024] {
            for p in [1u32, 3, 8] {
                let mut total = 0;
                let mut next = 0;
                for r in 0..p {
                    let (lo, len) = block_range(n, p, r);
                    assert_eq!(lo, next);
                    next = lo + len;
                    total += len;
                }
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn cannon_matches_reference_on_square_grids() {
        for (p, n) in [(1u32, 8usize), (4, 12), (9, 18)] {
            let cfg = CannonConfig { n };
            let out = run_local(p, move |mut mpi| cannon(&mut mpi, &cfg, None)).unwrap();
            let expect = cannon_reference_checksum(n);
            for v in out {
                assert!((v - expect).abs() < 1e-6, "p={p} n={n}: {v} vs {expect}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn cannon_rejects_non_square_grids() {
        let cfg = CannonConfig { n: 8 };
        let _ = run_local(2, move |mut mpi| cannon(&mut mpi, &cfg, None));
    }
}
