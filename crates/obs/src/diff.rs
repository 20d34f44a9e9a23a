//! The `obs_diff` regression oracle: reduce a merged dump to a compact
//! integer-only [`RunProfile`] and compare two profiles under a
//! percentage tolerance.
//!
//! A profile captures the three observability surfaces a performance
//! regression shows up on:
//!
//! 1. the protocol-interval timing summaries (gate wait, EL ack RTT,
//!    checkpoint store, replay) folded from the dump's events;
//! 2. the critical-path wall-clock attribution per edge category
//!    ([`CausalGraph::critical_path`]);
//! 3. the event-kind counters (sends, replays, chaos kills, …).
//!
//! Comparison is deliberately asymmetric where the semantics are:
//! timing and critical-path metrics regress only when the *current*
//! run is slower than baseline beyond tolerance; event counters are
//! gated in both directions, because a run that suddenly replays 10×
//! more — or records no checkpoints at all — has changed behaviour
//! even if it got faster. Tiny absolute values are ignored via a
//! noise floor so nanosecond jitter on near-zero metrics cannot fail
//! a gate.
//!
//! Profiles serialize to integer-only JSON and parse back through the
//! same derive — the same no-floats discipline as the dump format, so
//! baselines can be committed and diffed as text.

use crate::causal::CausalGraph;
use crate::event::FlightRecord;
use crate::timings::{ProtocolTimings, TimingSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Timing deltas below this many nanoseconds are never flagged —
/// bucket-floor jitter on near-empty histograms, not regressions.
pub const NOISE_FLOOR_NS: u64 = 1_000;
/// Counter deltas below this many events are never flagged.
pub const NOISE_FLOOR_EVENTS: u64 = 8;

/// A run's compact performance profile, reduced from a merged dump.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Records in the source timeline.
    pub records: u64,
    /// Protocol-interval histogram summaries folded from the events.
    pub timings: TimingSummary,
    /// Nanoseconds covered by the critical path (0 when the timeline
    /// has no causal structure).
    pub critical_total_ns: u64,
    /// Critical-path wall-clock per edge category
    /// (`local`/`network`/`gate-wait`/`el-rtt`/`ckpt-store`/`replay`).
    pub critical: BTreeMap<String, u64>,
    /// Records per event kind.
    pub events: BTreeMap<String, u64>,
}

impl RunProfile {
    /// Reduce a merged timeline to its profile.
    pub fn from_dump(timeline: &[FlightRecord]) -> RunProfile {
        let mut timings = ProtocolTimings::new();
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for rec in timeline {
            *events.entry(rec.event.kind().to_string()).or_insert(0) += 1;
            timings.observe(&rec.event);
        }
        let (critical_total_ns, critical) =
            match CausalGraph::build(timeline).critical_path(timeline) {
                Some(cp) => (
                    cp.total_ns,
                    cp.by_category
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                ),
                None => (0, BTreeMap::new()),
            };
        RunProfile {
            records: timeline.len() as u64,
            timings: timings.summary(),
            critical_total_ns,
            critical,
            events,
        }
    }

    /// Render the profile as pretty integer-only JSON (committable as
    /// a baseline).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile is all-integer")
    }

    /// Parse a profile previously rendered by [`RunProfile::to_json`].
    pub fn parse(text: &str) -> Result<RunProfile, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// One metric whose current value left the tolerance band.
#[derive(Clone, Debug, Serialize)]
pub struct MetricDelta {
    /// Metric path, e.g. `timing/gate_wait/p99_ns`.
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Signed relative change in percent (current vs baseline;
    /// baseline 0 reports 100% per unit of appearance).
    pub change_pct: i64,
}

/// The obs_diff verdict: which metrics regressed, out of how many
/// compared.
#[derive(Clone, Debug, Serialize)]
pub struct DiffReport {
    /// Tolerance applied, percent.
    pub tolerance_pct: u64,
    /// Metrics compared.
    pub compared: u64,
    /// Metrics outside tolerance, worst relative change first.
    pub regressions: Vec<MetricDelta>,
}

impl DiffReport {
    /// True when every metric stayed inside tolerance.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn change_pct(baseline: u64, current: u64) -> i64 {
    if baseline == 0 {
        return if current == 0 {
            0
        } else {
            100 * current as i64
        };
    }
    let delta = current as i128 - baseline as i128;
    (delta * 100 / baseline as i128) as i64
}

/// Compare `current` against `baseline`: timing and critical-path
/// metrics regress when slower than `tolerance_pct` percent over
/// baseline; event counters when changed beyond tolerance in either
/// direction. See the module docs for the noise floors.
pub fn compare(baseline: &RunProfile, current: &RunProfile, tolerance_pct: u64) -> DiffReport {
    let mut compared = 0u64;
    let mut regressions: Vec<MetricDelta> = Vec::new();
    let mut gate = |metric: String, base: u64, cur: u64, floor: u64, both_ways: bool| {
        compared += 1;
        let worse = cur > base;
        let out_of_band = if worse || both_ways {
            let (lo, hi) = if cur >= base {
                (base, cur)
            } else {
                (cur, base)
            };
            hi - lo > floor && change_pct(lo.max(1), hi) as u64 > tolerance_pct
        } else {
            false
        };
        if out_of_band {
            regressions.push(MetricDelta {
                metric,
                baseline: base,
                current: cur,
                change_pct: change_pct(base, cur),
            });
        }
    };

    let intervals = [
        (
            "gate_wait",
            &baseline.timings.gate_wait,
            &current.timings.gate_wait,
        ),
        (
            "el_ack_rtt",
            &baseline.timings.el_ack_rtt,
            &current.timings.el_ack_rtt,
        ),
        (
            "ckpt_store",
            &baseline.timings.ckpt_store,
            &current.timings.ckpt_store,
        ),
        ("replay", &baseline.timings.replay, &current.timings.replay),
    ];
    for (name, b, c) in intervals {
        for (stat, bv, cv) in [
            ("p50_ns", b.p50, c.p50),
            ("p99_ns", b.p99, c.p99),
            ("sum_ns", b.sum, c.sum),
        ] {
            gate(
                format!("timing/{name}/{stat}"),
                bv,
                cv,
                NOISE_FLOOR_NS,
                false,
            );
        }
    }

    gate(
        "critical/total_ns".to_string(),
        baseline.critical_total_ns,
        current.critical_total_ns,
        NOISE_FLOOR_NS,
        false,
    );
    for (cat, bv) in &baseline.critical {
        let cv = current.critical.get(cat).copied().unwrap_or(0);
        gate(format!("critical/{cat}_ns"), *bv, cv, NOISE_FLOOR_NS, false);
    }
    for (cat, cv) in &current.critical {
        if !baseline.critical.contains_key(cat) {
            gate(format!("critical/{cat}_ns"), 0, *cv, NOISE_FLOOR_NS, false);
        }
    }

    for (kind, bv) in &baseline.events {
        let cv = current.events.get(kind).copied().unwrap_or(0);
        gate(format!("events/{kind}"), *bv, cv, NOISE_FLOOR_EVENTS, true);
    }
    for (kind, cv) in &current.events {
        if !baseline.events.contains_key(kind) {
            gate(format!("events/{kind}"), 0, *cv, NOISE_FLOOR_EVENTS, true);
        }
    }

    regressions.sort_by_key(|d| std::cmp::Reverse(d.change_pct.unsigned_abs()));
    DiffReport {
        tolerance_pct,
        compared,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProtoEvent, SendDisposition};

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    fn sample_timeline() -> Vec<FlightRecord> {
        vec![
            rec(
                0,
                1,
                1_000,
                ProtoEvent::Send {
                    to: 1,
                    clock: 1,
                    bytes: 8,
                    disposition: SendDisposition::Wire,
                },
            ),
            rec(
                1,
                1,
                90_000,
                ProtoEvent::Deliver {
                    from: 0,
                    sender_clock: 1,
                    receiver_clock: 1,
                    replay: false,
                },
            ),
            rec(
                1,
                2,
                150_000,
                ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 60_000,
                },
            ),
            rec(
                1,
                3,
                400_000,
                ProtoEvent::ElAck {
                    up_to: 1,
                    batches_retired: 1,
                    rtt_ns: 120_000,
                },
            ),
        ]
    }

    #[test]
    fn profile_roundtrips_through_json() {
        let p = RunProfile::from_dump(&sample_timeline());
        assert_eq!(p.records, 4);
        assert_eq!(p.timings.gate_wait.count, 1);
        assert_eq!(p.timings.el_ack_rtt.sum, 120_000);
        assert_eq!(p.events.get("send"), Some(&1));
        let parsed = RunProfile::parse(&p.to_json()).expect("parses");
        assert_eq!(parsed, p);
    }

    #[test]
    fn self_diff_is_clean_at_zero_tolerance() {
        let p = RunProfile::from_dump(&sample_timeline());
        let report = compare(&p, &p, 0);
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(report.compared > 0);
    }

    #[test]
    fn slowdown_is_named_and_speedup_is_not() {
        let base = RunProfile::from_dump(&sample_timeline());
        let mut slow = base.clone();
        slow.timings.gate_wait.p99 = base.timings.gate_wait.p99 * 4;
        slow.timings.gate_wait.sum = base.timings.gate_wait.sum * 4;
        let report = compare(&base, &slow, 50);
        assert!(!report.is_clean());
        assert!(
            report
                .regressions
                .iter()
                .any(|d| d.metric == "timing/gate_wait/p99_ns"),
            "{:?}",
            report.regressions
        );
        // The inverse comparison is a speedup: timing gates are
        // one-sided, so it stays clean.
        let inverse = compare(&slow, &base, 50);
        assert!(inverse.is_clean(), "{:?}", inverse.regressions);
    }

    #[test]
    fn counter_shifts_gate_both_directions_above_the_floor() {
        let base = RunProfile::from_dump(&sample_timeline());
        let mut changed = base.clone();
        changed.events.insert("send".to_string(), 500);
        let report = compare(&base, &changed, 100);
        assert!(
            report.regressions.iter().any(|d| d.metric == "events/send"),
            "{:?}",
            report.regressions
        );
        // A drop to zero is just as loud.
        let mut vanished = base.clone();
        vanished.events.insert("send".to_string(), 0);
        // ... but only above the absolute floor: 1 -> 0 is noise.
        let quiet = compare(&base, &vanished, 100);
        assert!(quiet.is_clean(), "{:?}", quiet.regressions);
        let mut big = base.clone();
        big.events.insert("send".to_string(), 100);
        let vanish_report = compare(&big, &base, 100);
        assert!(
            vanish_report
                .regressions
                .iter()
                .any(|d| d.metric == "events/send"),
            "{:?}",
            vanish_report.regressions
        );
    }

    #[test]
    fn near_zero_timing_jitter_stays_under_the_noise_floor() {
        let base = RunProfile::from_dump(&sample_timeline());
        let mut jitter = base.clone();
        jitter.timings.replay.p99 = base.timings.replay.p99 + 400;
        jitter.timings.replay.sum = base.timings.replay.sum + 400;
        let report = compare(&base, &jitter, 10);
        assert!(report.is_clean(), "{:?}", report.regressions);
    }
}
