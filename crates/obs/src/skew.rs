//! Clock correction for merged cross-process timelines.
//!
//! Each child process of a socket-backend deployment stamps its flight
//! records against its own translation of the supervisor's wall-clock
//! epoch ([`epoch_from_unix_ns`](crate::epoch_from_unix_ns)), so real
//! clock skew between hosts leaks straight into the merged timeline: a
//! delivery can appear *before* its send, and critical-path attribution
//! over such a timeline lies. The fix is the classic NTP/trace-
//! correction move: the dump already contains causal edges — a `Send`
//! on rank *a* must precede the matching `Deliver`/`ReplayStep` on rank
//! *b* — and every such edge bounds the offset difference between the
//! two ranks' clocks at the two instants it names.
//!
//! The clock model is one **piecewise-linear offset track** per rank
//! ([`OffsetTrack`]): the run is cut into uniform time segments, each
//! rank gets an offset anchor at every segment boundary, every causal
//! edge constrains the anchors surrounding its two endpoints
//! (conservatively, so the interpolated offsets are guaranteed to
//! satisfy the edge), and intra-rank continuity constraints keep each
//! track non-decreasing with a bounded rise per segment. Offsets never
//! fall because the raise-only solver (below) measures every clock
//! against the fastest one, against which a constant rate difference is
//! a growing offset; a track that sank wherever the evidence thins out
//! would make the drift reverse in quiet stretches. Continuity also
//! propagates corrections into quiet segments and keeps corrected
//! per-rank time monotone. Clocks that merely *disagree* are the
//! zero-segment case:
//! one anchor per rank, a constant offset. Clocks that *drift* (run at
//! slightly different rates — the normal state of unconditioned quartz
//! over long horizons) need more anchors, so [`estimate_skew`] starts
//! at zero segments and escalates 2, 4, … until the track removes every
//! inversion or a cap is hit; residual inversions are reported loudly
//! instead of being papered over.
//!
//! The solver is deliberately minimal-correction: anchors start at zero
//! and are only ever *raised* to satisfy a violated bound (longest-path
//! relaxation, Bellman-Ford style), so a skew-free timeline solves to
//! all-zero tracks and byte-identical output. Bounds from ranks with no
//! inversions stay slack and cost nothing.

use crate::event::{FlightRecord, ProtoEvent, DISPATCHER_RANK};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A piecewise-linear clock-offset track for one rank: offset anchors
/// at uniform segment boundaries, linearly interpolated in between and
/// held constant beyond the ends. `anchors[k]` is the offset (ns, added
/// to the rank's recorded timestamps) at time `start_ns + k * seg_ns`.
/// A single anchor is a constant offset. All-integer, like everything
/// else in the dump header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OffsetTrack {
    /// Timestamp (recorded ns) of the first anchor.
    pub start_ns: u64,
    /// Uniform segment length between anchors, ns.
    pub seg_ns: u64,
    /// Offset anchors, ns; `len() == segments + 1`.
    pub anchors: Vec<i64>,
}

impl OffsetTrack {
    /// The correction to add to a timestamp this rank recorded at
    /// `ts_ns`: linear interpolation between the surrounding anchors,
    /// constant extrapolation outside the anchored range.
    pub fn offset_at(&self, ts_ns: u64) -> i64 {
        let Some(&first) = self.anchors.first() else {
            return 0;
        };
        if self.anchors.len() == 1 || self.seg_ns == 0 || ts_ns <= self.start_ns {
            return first;
        }
        let rel = ts_ns - self.start_ns;
        let k = (rel / self.seg_ns) as usize;
        if k + 1 >= self.anchors.len() {
            return *self.anchors.last().unwrap();
        }
        let a = self.anchors[k] as i128;
        let b = self.anchors[k + 1] as i128;
        let frac = (rel % self.seg_ns) as i128;
        (a + (b - a) * frac / self.seg_ns as i128) as i64
    }

    /// Overall drift rate of the track in parts-per-billion: the slope
    /// from first to last anchor. Display-only; interpolation uses the
    /// individual anchors.
    pub fn drift_ppb(&self) -> i64 {
        if self.anchors.len() < 2 || self.seg_ns == 0 {
            return 0;
        }
        let rise = (*self.anchors.last().unwrap() - self.anchors[0]) as i128;
        let run = (self.seg_ns as i128) * (self.anchors.len() as i128 - 1);
        (rise * 1_000_000_000 / run) as i64
    }

    fn is_zero(&self) -> bool {
        self.anchors.iter().all(|&a| a == 0)
    }
}

/// `+N ns` for a constant offset; start offset, drift rate and anchor
/// count for a piecewise one. The one rendering merge summaries and
/// `obs_analyze` share.
impl std::fmt::Display for OffsetTrack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let start = self.anchors.first().copied().unwrap_or(0);
        if self.anchors.len() < 2 {
            return write!(f, "{start:+} ns");
        }
        write!(
            f,
            "{start:+} ns at start, drift {:+} ppb ({} anchors)",
            self.drift_ppb(),
            self.anchors.len()
        )
    }
}

/// One rank's offset track as published in the dump header.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankTrack {
    /// The rank the track applies to.
    pub rank: u32,
    /// Timestamp (recorded ns) of the first anchor.
    pub start_ns: u64,
    /// Uniform segment length between anchors, ns.
    pub seg_ns: u64,
    /// Offset anchors, ns.
    pub anchors: Vec<i64>,
}

impl RankTrack {
    /// View the header form as an [`OffsetTrack`].
    pub fn track(&self) -> OffsetTrack {
        OffsetTrack {
            start_ns: self.start_ns,
            seg_ns: self.seg_ns,
            anchors: self.anchors.clone(),
        }
    }
}

/// The result of a skew-estimation pass over a merged timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkewEstimate {
    /// The offset track of every rank that appears in a causal edge
    /// (all-zero for a rank that needed no correction).
    pub track: BTreeMap<u32, OffsetTrack>,
    /// Ranks that appear in the timeline but in no causal edge: their
    /// offset is 0 by construction, not by evidence. Flagged explicitly
    /// in the dump header so a silent gap reads as what it is.
    pub unconstrained: Vec<u32>,
    /// Segments per track (0 = one anchor, a constant offset).
    pub segments: usize,
    /// Causal send→deliver edges matched in the timeline.
    pub edges: usize,
    /// Deliver-before-send timestamp inversions in the raw timeline.
    pub inversions_before: usize,
    /// Inversions remaining after applying the correction (0 unless the
    /// bound system was infeasible even piecewise).
    pub inversions_after: usize,
    /// `true` when residual inversions remain after the best correction
    /// the solver could find — the clock model (piecewise-linear within
    /// the slope limit) cannot explain the timeline.
    pub infeasible: bool,
}

impl SkewEstimate {
    /// `true` when at least one rank needs a non-zero correction.
    pub fn is_correction(&self) -> bool {
        self.track.values().any(|t| !t.is_zero())
    }

    /// The tracks in header form (ranks whose track is not identically
    /// zero).
    pub fn header_track(&self) -> Vec<RankTrack> {
        self.track
            .iter()
            .filter(|(_, t)| !t.is_zero())
            .map(|(&rank, t)| RankTrack {
                rank,
                start_ns: t.start_ns,
                seg_ns: t.seg_ns,
                anchors: t.anchors.clone(),
            })
            .collect()
    }

    /// One-line human summary for supervisor and tooling output.
    pub fn summary(&self) -> String {
        let mut out = if !self.is_correction() {
            format!(
                "clock skew: none detected ({} causal edges, {} inversions)",
                self.edges, self.inversions_after
            )
        } else {
            let tracks: Vec<String> = self
                .track
                .iter()
                .filter(|(_, t)| !t.is_zero())
                .map(|(r, t)| format!("rank {r}: {t}"))
                .collect();
            format!(
                "clock skew: corrected {} -> {} inversion(s) over {} causal edges, \
                 {} segment(s) [{}]",
                self.inversions_before,
                self.inversions_after,
                self.edges,
                self.segments,
                tracks.join(", ")
            )
        };
        if !self.unconstrained.is_empty() {
            let list: Vec<String> = self.unconstrained.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(
                "; rank(s) {} UNCONSTRAINED (no causal edges, offset 0 by construction)",
                list.join(",")
            ));
        }
        if self.infeasible || self.inversions_after > 0 {
            out.push_str(&format!(
                "; WARNING: {} residual inversion(s) — clock model infeasible, \
                 timestamps near them are untrustworthy",
                self.inversions_after
            ));
        }
        out
    }
}

/// A matched causal edge: the earliest `Send` of a `(sender, receiver,
/// sender_clock)` key and one `Deliver`/`ReplayStep` consuming it.
struct CausalPair {
    send_rank: u32,
    send_ts: u64,
    recv_rank: u32,
    recv_ts: u64,
}

/// Match sends to deliveries. Suppressed sends are excluded — a
/// re-executed send whose transmission the peer's watermark suppressed
/// *follows* the delivery it names, so pairing it would manufacture a
/// false constraint. For duplicate keys the earliest send wins (a
/// re-executed wire send is causally after the original), and every
/// delivery occurrence (fresh or replayed) is paired: each one is
/// causally after the earliest send.
fn causal_pairs(timeline: &[FlightRecord]) -> Vec<CausalPair> {
    let mut sends: HashMap<(u32, u32, u64), u64> = HashMap::new();
    for rec in timeline {
        if rec.rank == DISPATCHER_RANK {
            continue;
        }
        if let ProtoEvent::Send {
            to,
            clock,
            disposition,
            ..
        } = &rec.event
        {
            if *disposition == crate::event::SendDisposition::Suppressed {
                continue;
            }
            let slot = sends.entry((rec.rank, *to, *clock)).or_insert(rec.ts_ns);
            if rec.ts_ns < *slot {
                *slot = rec.ts_ns;
            }
        }
    }
    let mut pairs = Vec::new();
    for rec in timeline {
        if rec.rank == DISPATCHER_RANK {
            continue;
        }
        let (from, sender_clock) = match &rec.event {
            ProtoEvent::Deliver {
                from, sender_clock, ..
            }
            | ProtoEvent::ReplayStep {
                from, sender_clock, ..
            } => (*from, *sender_clock),
            _ => continue,
        };
        if let Some(&send_ts) = sends.get(&(from, rec.rank, sender_clock)) {
            pairs.push(CausalPair {
                send_rank: from,
                send_ts,
                recv_rank: rec.rank,
                recv_ts: rec.ts_ns,
            });
        }
    }
    pairs
}

fn inversions(pairs: &[CausalPair], track: &BTreeMap<u32, OffsetTrack>) -> usize {
    let off = |rank: u32, ts: u64| track.get(&rank).map_or(0, |t| t.offset_at(ts));
    pairs
        .iter()
        .filter(|p| {
            let s = p.send_ts as i64 + off(p.send_rank, p.send_ts);
            let r = p.recv_ts as i64 + off(p.recv_rank, p.recv_ts);
            r < s
        })
        .count()
}

/// Count deliver-before-send timestamp inversions in a raw (or already
/// corrected) timeline — the skew-visibility metric the merge reports.
#[cfg(test)]
pub(crate) fn count_inversions(timeline: &[FlightRecord]) -> usize {
    inversions(&causal_pairs(timeline), &BTreeMap::new())
}

/// Hard cap on the piecewise segment escalation. 256 segments over a
/// week-long run is a ~40-minute fit granularity; over a 200ms test
/// run it resolves drift down to the network-latency floor.
const MAX_SEGMENTS: usize = 256;

/// How far an anchor may rise above its predecessor, as a fraction of
/// the segment span (numerator/denominator = 1/2 → drift ≤ 50%).
const SLOPE_LIMIT_NUM: i64 = 1;
const SLOPE_LIMIT_DEN: i64 = 2;

/// Solve per-rank offset anchors for `segs` uniform segments spanning
/// `[t0, t1]` (`segs == 0`: one anchor per rank, a constant offset).
/// Returns the per-rank tracks and whether the raise-only relaxation
/// converged (an unconverged system still yields the best
/// monotonicity-safe track found).
///
/// Every matched pair demands `send_ts + off[s] <= recv_ts + off[r]`,
/// i.e. `off[r] - off[s] >= send_ts - recv_ts`. Anchors start at zero
/// and a longest-path relaxation raises them until every bound holds
/// (at most `anchors + 1` sweeps — further sweeps only chase an
/// infeasible system, so the loop stops there and the caller reports
/// residual inversions instead).
fn solve_piecewise(
    pairs: &[CausalPair],
    t0: u64,
    t1: u64,
    segs: usize,
) -> (BTreeMap<u32, OffsetTrack>, bool) {
    let span = ((t1 - t0).max(1)).div_ceil(segs.max(1) as u64).max(1);
    let limit = ((span as i64) * SLOPE_LIMIT_NUM / SLOPE_LIMIT_DEN).max(1);
    let ranks: BTreeSet<u32> = pairs
        .iter()
        .flat_map(|p| [p.send_rank, p.recv_rank])
        .collect();
    let idx: BTreeMap<u32, usize> = ranks.iter().copied().zip(0..).collect();
    let anchors_per_rank = segs + 1;
    let node = |rank: u32, k: usize| idx[&rank] * anchors_per_rank + k;
    let anchor_lo = |ts: u64| (((ts.max(t0) - t0) / span) as usize).min(segs);

    // Difference constraints `val[to] - val[from] >= lb`, tightest lower
    // bound per node pair. A causal edge constrains *both* anchors
    // surrounding each endpoint, so the interpolated offsets are
    // guaranteed to satisfy it once the anchors do. Ordered map: when
    // the sweep cap is hit the anchors depend on relaxation order, and
    // two merges of the same dumps must print the same tracks.
    let mut cons: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    let mut add = |from: usize, to: usize, lb: i64| {
        let slot = cons.entry((from, to)).or_insert(lb);
        if lb > *slot {
            *slot = lb;
        }
    };
    for p in pairs {
        let lb = p.send_ts as i64 - p.recv_ts as i64;
        let si = anchor_lo(p.send_ts);
        let ri = anchor_lo(p.recv_ts);
        for s_k in [si, (si + 1).min(segs)] {
            for r_k in [ri, (ri + 1).min(segs)] {
                add(node(p.send_rank, s_k), node(p.recv_rank, r_k), lb);
            }
        }
    }
    // Intra-rank continuity: each anchor sits at or above its
    // predecessor (offsets never fall, so corrected per-rank time stays
    // monotone, which `validate_records` requires) and at most `limit`
    // above it.
    for &r in &ranks {
        for k in 0..segs {
            add(node(r, k), node(r, k + 1), 0);
            add(node(r, k + 1), node(r, k), -limit);
        }
    }

    let n_nodes = ranks.len() * anchors_per_rank;
    let mut val = vec![0i64; n_nodes];
    let mut converged = false;
    for _ in 0..n_nodes + 1 {
        let mut changed = false;
        for (&(from, to), &lb) in &cons {
            let want = val[from].saturating_add(lb);
            if val[to] < want {
                val[to] = want;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }

    let mut track = BTreeMap::new();
    for &r in &ranks {
        let mut anchors: Vec<i64> = (0..anchors_per_rank).map(|k| val[node(r, k)]).collect();
        // Monotonicity backstop for the unconverged case: raise each
        // anchor to its predecessor, so corrected per-rank time never
        // runs backwards even when the system was infeasible.
        for k in 0..segs {
            anchors[k + 1] = anchors[k + 1].max(anchors[k]);
        }
        track.insert(
            r,
            OffsetTrack {
                start_ns: t0,
                seg_ns: span,
                anchors,
            },
        );
    }
    (track, converged)
}

/// Estimate per-rank clock-offset tracks from the causal edges in
/// `timeline`: one anchor per rank first (the cheap, byte-stable case
/// that covers pure skew), then 2, 4, … 256 segments while
/// inversions remain. The track with the fewest residual inversions
/// wins; residuals after the best correction mark the estimate
/// `infeasible`.
pub fn estimate_skew(timeline: &[FlightRecord]) -> SkewEstimate {
    let pairs = causal_pairs(timeline);
    let endpoints = || pairs.iter().flat_map(|p| [p.send_ts, p.recv_ts]);
    let t0 = endpoints().min().unwrap_or(0);
    let t1 = endpoints().max().unwrap_or(0).max(t0 + 1);
    let mut est = SkewEstimate {
        edges: pairs.len(),
        inversions_before: inversions(&pairs, &BTreeMap::new()),
        ..SkewEstimate::default()
    };
    let mut best_converged = false;
    let mut segs = 0;
    while segs <= MAX_SEGMENTS {
        let (track, converged) = solve_piecewise(&pairs, t0, t1, segs);
        let inv = inversions(&pairs, &track);
        // Fewer residuals wins; on a tie a *converged* (feasible) solve
        // beats one the monotonicity backstop had to rescue.
        if segs == 0
            || inv < est.inversions_after
            || (inv == est.inversions_after && converged && !best_converged)
        {
            est.track = track;
            est.segments = segs;
            est.inversions_after = inv;
            best_converged = converged;
        }
        if inv == 0 && converged {
            break;
        }
        segs = (segs * 2).max(2);
    }
    est.infeasible = est.inversions_after > 0 || !best_converged;
    // "Offset 0 by construction" must not be confused with "offset 0 by
    // evidence": ranks in the timeline but in no causal pair are named.
    let seen: BTreeSet<u32> = timeline
        .iter()
        .filter(|r| r.rank != DISPATCHER_RANK)
        .map(|r| r.rank)
        .collect();
    est.unconstrained = seen
        .into_iter()
        .filter(|r| !est.track.contains_key(r))
        .collect();
    est
}

/// Apply offset tracks to a timeline in place. The solver's tracks never
/// decrease, which keeps corrected per-rank timestamps monotone; callers
/// re-sort by the merge key afterwards.
pub fn apply_track(timeline: &mut [FlightRecord], track: &BTreeMap<u32, OffsetTrack>) {
    for rec in timeline.iter_mut() {
        if let Some(t) = track.get(&rec.rank) {
            rec.ts_ns = (rec.ts_ns as i64)
                .saturating_add(t.offset_at(rec.ts_ns))
                .max(0) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SendDisposition;

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    fn send(to: u32, clock: u64) -> ProtoEvent {
        ProtoEvent::Send {
            to,
            clock,
            bytes: 8,
            disposition: SendDisposition::Wire,
        }
    }

    fn deliver(from: u32, sc: u64, rc: u64) -> ProtoEvent {
        ProtoEvent::Deliver {
            from,
            sender_clock: sc,
            receiver_clock: rc,
            replay: false,
        }
    }

    #[test]
    fn skew_free_timeline_solves_to_zero_offsets() {
        let tl = vec![
            rec(0, 1, 100, send(1, 1)),
            rec(1, 1, 250, deliver(0, 1, 1)),
            rec(1, 2, 300, send(0, 2)),
            rec(0, 2, 450, deliver(1, 2, 2)),
        ];
        let est = estimate_skew(&tl);
        assert_eq!(est.edges, 2);
        assert_eq!(est.inversions_before, 0);
        assert!(!est.is_correction(), "{est:?}");
        assert!(est.header_track().is_empty());
        assert_eq!(est.segments, 0);
        assert_eq!(count_inversions(&tl), 0);
    }

    #[test]
    fn skewed_receiver_is_raised_until_causality_holds() {
        // Rank 1's clock runs 5ms behind: its deliveries appear before
        // rank 0's sends.
        let tl = vec![
            rec(0, 1, 5_000_000, send(1, 1)),
            rec(1, 1, 100_000, deliver(0, 1, 1)),
            rec(0, 2, 5_200_000, send(1, 2)),
            rec(1, 2, 300_000, deliver(0, 2, 2)),
        ];
        let est = estimate_skew(&tl);
        assert_eq!(est.inversions_before, 2);
        assert_eq!(est.inversions_after, 0);
        assert!(est.is_correction());
        // A constant lag is the one-anchor case, and the minimal raise
        // puts rank 1 exactly at the tightest bound.
        assert_eq!(est.segments, 0);
        assert_eq!(est.track[&1].anchors, vec![5_000_000 - 100_000]);
        assert_eq!(est.track[&0].anchors, vec![0]);
        let mut corrected = tl.clone();
        apply_track(&mut corrected, &est.track);
        assert_eq!(count_inversions(&corrected), 0);
        assert!(est.summary().contains("corrected 2 -> 0"));
        assert!(est.summary().contains("rank 1: +4900000 ns"));
        // Header form carries only the non-zero entries.
        let hdr = est.header_track();
        assert_eq!(hdr.len(), 1);
        assert_eq!(hdr[0].rank, 1);
    }

    #[test]
    fn chained_skew_propagates_through_intermediate_ranks() {
        // 0 -> 1 -> 2 where both 1 and 2 lag; the relaxation must
        // propagate 1's raise into 2's bound.
        let tl = vec![
            rec(0, 1, 10_000_000, send(1, 1)),
            rec(1, 1, 1_000_000, deliver(0, 1, 1)),
            rec(1, 2, 1_100_000, send(2, 2)),
            rec(2, 1, 200_000, deliver(1, 2, 1)),
        ];
        let est = estimate_skew(&tl);
        assert_eq!(est.inversions_after, 0);
        assert_eq!(est.track[&1].anchors, vec![9_000_000]);
        // Corrected send at 1: 1_100_000 + 9_000_000 = 10_100_000, so
        // rank 2 must be raised past it.
        assert_eq!(est.track[&2].anchors, vec![9_900_000]);
    }

    #[test]
    fn suppressed_sends_do_not_create_false_edges() {
        // The delivery precedes the (re-executed, suppressed) send; the
        // pair must not be matched, or the solver would "correct" a
        // perfectly healthy timeline.
        let tl = vec![
            rec(1, 1, 100, deliver(0, 7, 1)),
            rec(
                0,
                7,
                900,
                ProtoEvent::Send {
                    to: 1,
                    clock: 7,
                    bytes: 8,
                    disposition: SendDisposition::Suppressed,
                },
            ),
        ];
        let est = estimate_skew(&tl);
        assert_eq!(est.edges, 0);
        assert!(!est.is_correction());
    }

    #[test]
    fn track_interpolates_between_anchors() {
        let t = OffsetTrack {
            start_ns: 1_000,
            seg_ns: 100,
            anchors: vec![0, 1_000, 1_000],
        };
        assert_eq!(t.offset_at(0), 0); // before start: first anchor
        assert_eq!(t.offset_at(1_000), 0);
        assert_eq!(t.offset_at(1_050), 500); // midway up the first segment
        assert_eq!(t.offset_at(1_100), 1_000);
        assert_eq!(t.offset_at(1_150), 1_000);
        assert_eq!(t.offset_at(9_999), 1_000); // past the end: last anchor
        assert_eq!(t.drift_ppb(), 1_000 * 1_000_000_000 / 200);
        let empty = OffsetTrack::default();
        assert_eq!(empty.offset_at(123), 0);
        assert_eq!(empty.drift_ppb(), 0);
    }

    #[test]
    fn unconstrained_rank_gets_explicit_zero_and_flag() {
        let tl = vec![
            rec(0, 1, 100, send(1, 1)),
            rec(1, 1, 250, deliver(0, 1, 1)),
            // Rank 5 only does local work — no cross-rank evidence.
            rec(5, 1, 400, ProtoEvent::Finish { clock: 1 }),
        ];
        let est = estimate_skew(&tl);
        assert!(!est.track.contains_key(&5));
        assert_eq!(est.unconstrained, vec![5]);
        assert!(est.summary().contains("UNCONSTRAINED"));
        assert!(est.header_track().is_empty());
    }

    /// Synthetic bidirectional ping-pong where rank 1's clock runs slow
    /// by `drift` (a rate, not an offset). True event times step by
    /// 1ms; wire latency is a fixed 100µs.
    fn drifting_timeline(iters: u64, drift_num: u64, drift_den: u64) -> Vec<FlightRecord> {
        let slow = |t: u64| t - t * drift_num / drift_den;
        let mut tl = Vec::new();
        let delta = 100_000u64; // 100µs latency
        for i in 0..iters {
            let t = 1_000_000 + i * 1_000_000;
            // 0 -> 1: send stamped true, delivery stamped by the slow clock.
            tl.push(rec(0, 2 * i + 1, t, send(1, 2 * i + 1)));
            tl.push(rec(
                1,
                2 * i + 1,
                slow(t + delta),
                deliver(0, 2 * i + 1, 2 * i + 1),
            ));
            // 1 -> 0: send stamped slow, delivery stamped true.
            let t2 = t + 500_000;
            tl.push(rec(1, 2 * i + 2, slow(t2), send(0, 2 * i + 2)));
            tl.push(rec(
                0,
                2 * i + 2,
                t2 + delta,
                deliver(1, 2 * i + 2, 2 * i + 2),
            ));
        }
        tl
    }

    #[test]
    fn constant_offsets_cannot_fix_drift_but_piecewise_can() {
        // 2% drift over 200ms: end-of-run error ≈ 4ms, far above the
        // 100µs latency floor, so the raw timeline inverts and the best
        // constant offset still leaves inversions at one end.
        let tl = drifting_timeline(200, 2, 100);
        let pairs = causal_pairs(&tl);
        let (constant, converged) = solve_piecewise(&pairs, 1_000_000, 201_000_000, 0);
        assert!(
            inversions(&pairs, &constant) > 0 && !converged,
            "a constant offset should not be able to explain drift: {constant:?}"
        );

        let est = estimate_skew(&tl);
        assert!(est.inversions_before >= 1, "{est:?}");
        assert_eq!(est.inversions_after, 0, "{}", est.summary());
        assert!(!est.infeasible);
        assert!(!est.track.is_empty());
        assert!(est.segments >= 2);
        assert!(est.is_correction());
        // The drifting rank's track must climb: its recorded clock runs
        // slow, so late timestamps need a larger correction.
        let t1 = &est.track[&1];
        assert!(
            *t1.anchors.last().unwrap() > t1.anchors[0],
            "track should rise: {t1:?}"
        );
        assert!(
            t1.drift_ppb() > 1_000_000,
            "≈2% drift, got {}",
            t1.drift_ppb()
        );
        // Applying the track heals the timeline.
        let mut corrected = tl.clone();
        apply_track(&mut corrected, &est.track);
        assert_eq!(count_inversions(&corrected), 0);
        // ... without ever running any rank's clock backwards.
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &corrected {
            let prev = last.insert(r.rank, r.ts_ns).unwrap_or(0);
            assert!(r.ts_ns >= prev, "rank {} time ran backwards", r.rank);
        }
        let hdr = est.header_track();
        assert!(hdr.iter().any(|t| t.rank == 1));
        assert!(est.summary().contains("drift +"), "{}", est.summary());
    }

    /// The records of a fixture in `testdata/` (format in its header).
    fn fixture(text: &str) -> Vec<FlightRecord> {
        let lines = text.lines().filter(|l| !l.starts_with('#'));
        lines
            .map(|line| {
                let f: Vec<&str> = line.split_whitespace().collect();
                let n = |i: usize| f[i].parse::<u64>().expect("numeric field");
                let event = match f[3] {
                    "send" => ProtoEvent::Send {
                        to: n(4) as u32,
                        clock: n(5),
                        bytes: 36,
                        disposition: match f[6] {
                            "wire" => SendDisposition::Wire,
                            "gated" => SendDisposition::Gated,
                            _ => SendDisposition::Suppressed,
                        },
                    },
                    _ => deliver(n(4) as u32, n(5), n(6)),
                };
                rec(n(0) as u32, n(1), n(2), event)
            })
            .collect()
    }

    #[test]
    fn a_drifting_clock_keeps_its_correction_through_a_quiet_tail() {
        // A loaded run whose last milliseconds carry no binding edge:
        // rank 1 runs 3 % fast, so rank 0's offset must keep growing —
        // the drift does not reverse because the evidence thins out.
        let tl = fixture(include_str!("testdata/drift_ring150_loaded.txt"));
        let est = estimate_skew(&tl);
        assert!(est.inversions_before >= 1, "{}", est.summary());
        assert_eq!(est.inversions_after, 0, "{}", est.summary());
        assert!(!est.infeasible, "{}", est.summary());
        let t0 = &est.track[&0];
        assert!(t0.anchors.len() >= 2, "{t0:?}");
        assert!(
            t0.anchors.windows(2).all(|w| w[1] >= w[0]),
            "offsets never decrease: {t0:?}"
        );
        assert!(t0.anchors.last() > t0.anchors.first(), "{t0:?}");
    }

    #[test]
    fn infeasible_system_solves_to_the_same_track_every_time() {
        // Each rank delivers 9ms before the other sent: no clock model
        // explains both directions, so the relaxation hits its sweep
        // cap and the anchors it stops at depend on relaxation order.
        // Every call builds its constraint map afresh; a hash-ordered
        // map would let two merges of one dump print different tracks.
        let tl: Vec<FlightRecord> = (0..40u64)
            .flat_map(|i| {
                let t = 10_000_000 + i * 1_000_000;
                [
                    rec(0, 2 * i + 1, t, send(1, 2 * i + 1)),
                    rec(
                        1,
                        2 * i + 1,
                        t - 9_000_000,
                        deliver(0, 2 * i + 1, 2 * i + 1),
                    ),
                    rec(1, 2 * i + 2, t, send(0, 2 * i + 2)),
                    rec(
                        0,
                        2 * i + 2,
                        t - 9_000_000,
                        deliver(1, 2 * i + 2, 2 * i + 2),
                    ),
                ]
            })
            .collect();
        let first = estimate_skew(&tl);
        assert!(first.infeasible, "{}", first.summary());
        assert!(first.inversions_after > 0);
        assert!(first.summary().contains("WARNING"));
        for _ in 0..8 {
            assert_eq!(estimate_skew(&tl), first);
        }
    }

    #[test]
    fn replay_steps_pair_with_the_original_send() {
        let tl = vec![
            rec(0, 3, 7_000_000, send(1, 3)),
            rec(
                1,
                1,
                500_000,
                ProtoEvent::ReplayStep {
                    from: 0,
                    sender_clock: 3,
                    receiver_clock: 1,
                },
            ),
        ];
        let est = estimate_skew(&tl);
        assert_eq!(est.edges, 1);
        assert_eq!(est.inversions_before, 1);
        assert_eq!(est.inversions_after, 0);
    }
}
