//! Per-engine latency histograms for the four hot protocol intervals,
//! and the one mapping from a completion record to the interval it
//! closes ([`ProtocolTimings::observe`]).

use crate::event::ProtoEvent;
use crate::hist::{HistSummary, LogHistogram};
use serde::{Deserialize, Serialize};

/// The four hot-interval histograms the protocol maintains per engine:
/// gate-wait time, EL ack round-trip, checkpoint upload duration and
/// replay duration. Mergeable across ranks and incarnations.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolTimings {
    /// Time sends spent queued behind the closed pessimism gate.
    pub gate_wait: LogHistogram,
    /// Round-trip from shipping an event batch to the EL ack covering it.
    pub el_ack_rtt: LogHistogram,
    /// Checkpoint arm → checkpoint-server commit duration.
    pub ckpt_store: LogHistogram,
    /// Recovery-begin → replay-complete duration.
    pub replay: LogHistogram,
}

impl ProtocolTimings {
    /// Empty timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one completion record into the histogram of the interval it
    /// closes, and return that interval's name and measured duration:
    /// `GateOpen` → `gate-wait`, `ElAck` → `el-ack-rtt`, `CkptCommit` →
    /// `ckpt-store`, `ReplayDone` → `replay`. Every other event, and a
    /// zero (unmeasured) duration, folds nothing. The live telemetry
    /// sink, the `obs_diff` profile and the trace writer all read
    /// intervals through here.
    pub fn observe(&mut self, event: &ProtoEvent) -> Option<(&'static str, u64)> {
        let (name, hist, ns) = match *event {
            ProtoEvent::GateOpen { waited_ns, .. } => ("gate-wait", &mut self.gate_wait, waited_ns),
            ProtoEvent::ElAck { rtt_ns, .. } => ("el-ack-rtt", &mut self.el_ack_rtt, rtt_ns),
            ProtoEvent::CkptCommit { store_ns, .. } => {
                ("ckpt-store", &mut self.ckpt_store, store_ns)
            }
            ProtoEvent::ReplayDone { replay_ns, .. } => ("replay", &mut self.replay, replay_ns),
            _ => return None,
        };
        if ns == 0 {
            return None;
        }
        hist.record(ns);
        Some((name, ns))
    }

    /// Fold another set of timings into this one.
    pub fn merge(&mut self, other: &ProtocolTimings) {
        self.gate_wait.merge(&other.gate_wait);
        self.el_ack_rtt.merge(&other.el_ack_rtt);
        self.ckpt_store.merge(&other.ckpt_store);
        self.replay.merge(&other.replay);
    }

    /// The window of samples recorded since `earlier` was snapshotted:
    /// interval-wise [`LogHistogram::diff`]. The windowed-metrics ring
    /// is built on this.
    pub fn diff(&self, earlier: &ProtocolTimings) -> ProtocolTimings {
        ProtocolTimings {
            gate_wait: self.gate_wait.diff(&earlier.gate_wait),
            el_ack_rtt: self.el_ack_rtt.diff(&earlier.el_ack_rtt),
            ckpt_store: self.ckpt_store.diff(&earlier.ckpt_store),
            replay: self.replay.diff(&earlier.replay),
        }
    }

    /// Compact all-integer summaries for status messages and JSON.
    pub fn summary(&self) -> TimingSummary {
        TimingSummary {
            gate_wait: self.gate_wait.summary(),
            el_ack_rtt: self.el_ack_rtt.summary(),
            ckpt_store: self.ckpt_store.summary(),
            replay: self.replay.summary(),
        }
    }
}

/// All-integer summaries of [`ProtocolTimings`] — rides in
/// `Eq`-deriving wire messages and `BENCH_*.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSummary {
    /// Gate-wait distribution summary.
    pub gate_wait: HistSummary,
    /// EL ack RTT distribution summary.
    pub el_ack_rtt: HistSummary,
    /// Checkpoint upload duration summary.
    pub ckpt_store: HistSummary,
    /// Replay duration summary.
    pub replay: HistSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ProtocolTimings::new();
        let mut b = ProtocolTimings::new();
        a.gate_wait.record(100);
        b.gate_wait.record(300);
        b.replay.record(1_000_000);
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.gate_wait.count, 2);
        assert_eq!(s.gate_wait.sum, 400);
        assert_eq!(s.replay.count, 1);
        assert_eq!(s.el_ack_rtt.count, 0);
    }

    #[test]
    fn observe_folds_the_four_completion_records_only() {
        let mut t = ProtocolTimings::new();
        let gate = ProtoEvent::GateOpen {
            released: 1,
            waited_ns: 4_000,
        };
        assert_eq!(t.observe(&gate), Some(("gate-wait", 4_000)));
        let unmeasured = ProtoEvent::ElAck {
            up_to: 1,
            batches_retired: 1,
            rtt_ns: 0,
        };
        assert_eq!(t.observe(&unmeasured), None);
        assert_eq!(t.observe(&ProtoEvent::Finish { clock: 1 }), None);
        let commit = ProtoEvent::CkptCommit {
            seq: 1,
            store_ns: 900,
        };
        assert_eq!(t.observe(&commit), Some(("ckpt-store", 900)));
        let done = ProtoEvent::ReplayDone {
            replayed: 2,
            replay_ns: 7_000,
        };
        assert_eq!(t.observe(&done), Some(("replay", 7_000)));
        let s = t.summary();
        assert_eq!(s.gate_wait.sum, 4_000);
        assert_eq!(s.el_ack_rtt.count, 0);
        assert_eq!((s.ckpt_store.count, s.replay.count), (1, 1));
    }

    #[test]
    fn diff_isolates_the_window() {
        let mut t = ProtocolTimings::new();
        t.gate_wait.record(100);
        t.el_ack_rtt.record(5_000);
        let snap = t.clone();
        t.gate_wait.record(900);
        t.replay.record(77_000);
        let w = t.diff(&snap);
        assert_eq!(w.gate_wait.count(), 1);
        assert_eq!(w.gate_wait.sum(), 900);
        assert_eq!(w.el_ack_rtt.count(), 0);
        assert_eq!(w.replay.count(), 1);
        // Merging the window back onto the snapshot restores cumulative.
        let mut rebuilt = snap.clone();
        rebuilt.merge(&w);
        assert_eq!(rebuilt.summary().gate_wait.count, 2);
        assert_eq!(rebuilt.summary().gate_wait.sum, 1000);
    }
}
