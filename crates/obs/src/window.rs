//! Windowed metrics for long-horizon runs.
//!
//! Cumulative histograms answer "what happened since boot", which is
//! the wrong question once a deployment has been up for hours: a
//! latency regression that started five minutes ago is invisible under
//! millions of healthy samples. This module turns the cheap
//! snapshot/delta algebra of [`LogHistogram`](crate::LogHistogram)
//! ([`ProtocolTimings::diff`]) into a small in-memory ring of
//! fixed-length time windows, each holding the protocol-interval
//! histograms for *just that window*. Health endpoints publish the ring
//! alongside the cumulative families, so a scrape sees both the
//! lifetime percentiles and the last few windows' worth.
//!
//! The ring never touches the hot path: callers feed it the cumulative
//! [`ProtocolTimings`] they already maintain, at whatever cadence they
//! already poll (telemetry ticks, health refreshes). Closing a window
//! costs one `diff` (a fixed-size bucket subtraction) and one clone of
//! the cumulative snapshot as the next baseline.

use crate::timings::ProtocolTimings;
use std::collections::VecDeque;

/// Default window length: 5 seconds.
pub const DEFAULT_WINDOW_NS: u64 = 5_000_000_000;
/// Default number of closed windows retained in the ring.
pub const DEFAULT_WINDOW_RING: usize = 8;

/// One closed (or in-progress) metrics window: the protocol-interval
/// histograms restricted to `[start_ns, end_ns)`.
#[derive(Clone, Debug)]
pub struct MetricsWindow {
    /// Window start, nanoseconds since the deployment epoch.
    pub start_ns: u64,
    /// Window end (exclusive). For the in-progress window this is the
    /// observation time, not a boundary.
    pub end_ns: u64,
    /// Interval histograms for samples recorded inside the window.
    pub timings: ProtocolTimings,
}

impl MetricsWindow {
    /// Window length in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A ring of fixed-length metrics windows over a cumulative
/// [`ProtocolTimings`], fed by periodic observations.
///
/// Attribution is bounded by the feed cadence: samples land in the
/// window that was current when [`WindowRing::advance`] saw them in
/// the cumulative totals. When several boundaries pass between two
/// calls (a stall), the whole backlog is attributed to the first
/// window crossed — the one that was current when the samples could
/// last have been observed — and the skipped windows close empty.
#[derive(Clone, Debug)]
pub struct WindowRing {
    window_ns: u64,
    cap: usize,
    baseline: ProtocolTimings,
    current_start_ns: u64,
    closed: VecDeque<MetricsWindow>,
}

impl WindowRing {
    /// A ring of `cap` retained windows, each `window_ns` long, with
    /// the first window starting at `start_ns`.
    pub fn new(start_ns: u64, window_ns: u64, cap: usize) -> Self {
        WindowRing {
            window_ns: window_ns.max(1),
            cap: cap.max(1),
            baseline: ProtocolTimings::new(),
            current_start_ns: start_ns,
            closed: VecDeque::new(),
        }
    }

    /// A ring with the default 5 s windows and 8-deep retention.
    pub fn with_defaults(start_ns: u64) -> Self {
        WindowRing::new(start_ns, DEFAULT_WINDOW_NS, DEFAULT_WINDOW_RING)
    }

    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Observe the cumulative totals at time `now_ns`, closing every
    /// window whose boundary has passed.
    pub fn advance(&mut self, now_ns: u64, cumulative: &ProtocolTimings) {
        while now_ns.saturating_sub(self.current_start_ns) >= self.window_ns {
            let end = self.current_start_ns + self.window_ns;
            let delta = cumulative.diff(&self.baseline);
            self.closed.push_back(MetricsWindow {
                start_ns: self.current_start_ns,
                end_ns: end,
                timings: delta,
            });
            while self.closed.len() > self.cap {
                self.closed.pop_front();
            }
            self.baseline = cumulative.clone();
            self.current_start_ns = end;
        }
    }

    /// The retained closed windows, oldest first.
    pub fn closed(&self) -> impl Iterator<Item = &MetricsWindow> {
        self.closed.iter()
    }

    /// The in-progress window: everything since the last boundary up
    /// to `now_ns`. Does not mutate the ring, so it can be rendered on
    /// every scrape without perturbing window boundaries.
    pub fn current(&self, now_ns: u64, cumulative: &ProtocolTimings) -> MetricsWindow {
        MetricsWindow {
            start_ns: self.current_start_ns,
            end_ns: now_ns.max(self.current_start_ns),
            timings: cumulative.diff(&self.baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings_with(gate: &[u64]) -> ProtocolTimings {
        let mut t = ProtocolTimings::new();
        for &v in gate {
            t.gate_wait.record(v);
        }
        t
    }

    #[test]
    fn windows_partition_the_cumulative_series() {
        let mut ring = WindowRing::new(0, 1_000, 4);
        let mut cum = ProtocolTimings::new();
        // Three windows' worth of samples. Advance-then-record is the
        // sink's discipline: boundaries close over the pre-sample
        // totals, so each sample lands in the window holding its
        // timestamp.
        for (now, v) in [(500u64, 10u64), (1_500, 20), (2_500, 30)] {
            ring.advance(now, &cum);
            cum.gate_wait.record(v);
        }
        ring.advance(3_000, &cum);
        let closed: Vec<_> = ring.closed().collect();
        assert_eq!(closed.len(), 3);
        for (i, w) in closed.iter().enumerate() {
            assert_eq!(w.start_ns, i as u64 * 1_000);
            assert_eq!(w.span_ns(), 1_000);
            assert_eq!(w.timings.gate_wait.summary().count, 1, "window {i}");
        }
        // Sum of windows == cumulative.
        let mut merged = ProtocolTimings::new();
        for w in &closed {
            merged.merge(&w.timings);
        }
        assert_eq!(
            merged.gate_wait.summary(),
            cum.gate_wait.summary(),
            "window deltas must repartition the cumulative series"
        );
    }

    #[test]
    fn stall_attributes_backlog_to_first_crossed_window_and_skips_close_empty() {
        let mut ring = WindowRing::new(0, 1_000, 8);
        let mut cum = timings_with(&[5]);
        ring.advance(100, &cum); // still inside window 0
        cum.gate_wait.record(7);
        // Next observation jumps three windows at once.
        ring.advance(3_200, &cum);
        let closed: Vec<_> = ring.closed().collect();
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].timings.gate_wait.summary().count, 2);
        assert_eq!(closed[1].timings.gate_wait.summary().count, 0);
        assert_eq!(closed[2].timings.gate_wait.summary().count, 0);
    }

    #[test]
    fn ring_caps_retention_and_current_window_tracks_the_tail() {
        let mut ring = WindowRing::new(0, 100, 2);
        let mut cum = ProtocolTimings::new();
        for i in 0..5u64 {
            cum.gate_wait.record(i + 1);
            ring.advance((i + 1) * 100, &cum);
        }
        assert_eq!(ring.closed().count(), 2, "retention capped");
        let oldest = ring.closed().next().expect("non-empty");
        assert_eq!(oldest.start_ns, 300);
        cum.gate_wait.record(99);
        let cur = ring.current(560, &cum);
        assert_eq!(cur.start_ns, 500);
        assert_eq!(cur.end_ns, 560);
        assert_eq!(cur.timings.gate_wait.summary().count, 1);
        assert_eq!(cur.timings.gate_wait.summary().max, 99);
    }
}
