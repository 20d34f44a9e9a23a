//! The sender-based message log — the `SAVED_p` set of Appendix A.
//!
//! "Every time a message is sent to a computing node, it is stored locally
//! in a list for further usages (sender based). Moreover the value of the
//! sender logical clock is stored with the message copy." (§4.5)
//!
//! The log lives on the (volatile!) computing node; it is lost on a crash
//! and rebuilt during re-execution (Lemma 1), and it is *included in
//! checkpoint images* to avoid the domino effect (§4.1). Storage is
//! reclaimed by per-destination watermarks once the destination has
//! checkpointed (§4.6.1).
//!
//! Layout: one clock-ordered `VecDeque<(u64, Payload)>` per destination.
//! Sends append in clock order and collection frees a prefix, so the
//! common operations touch only the two ends; a log is never serialized
//! as a whole (checkpoint images carry its entries as shared segments,
//! see `ImageBlob`), so the layout is free to change.

use crate::ids::Rank;
use crate::payload::Payload;
use std::collections::{BTreeMap, VecDeque};

/// One saved emission: `(m, H_p, q)` of the protocol, keyed by the clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedMsg {
    /// Sender clock at emission (`h`).
    pub sender_clock: u64,
    /// The copied payload: the very frame that was sent, sharing its
    /// bytes. A frame of `ARENA_MIN_FRAME` bytes or more lives in its
    /// sending rank's huge-page arena chunk, which this entry keeps
    /// alive until it is collected (see `crate::payload`).
    pub payload: Payload,
}

/// Per-destination ordered log of sent payloads with byte accounting.
///
/// Each destination's messages sit in one clock-ordered `VecDeque`: a live
/// send carries the highest clock so far and is a `push_back`, garbage
/// collection drops a prefix from the front, and the re-send and lookup
/// paths binary-search. That is 32 bytes per message in one contiguous
/// buffer, where an ordered map spent a node per ~6 messages (its nodes
/// stay about half full under in-order inserts) and a pointer chase per
/// lookup.
#[derive(Clone, Debug, Default)]
pub struct SenderLog {
    /// For each destination, saved messages in strictly increasing clock
    /// order.
    per_dst: BTreeMap<Rank, VecDeque<(u64, Payload)>>,
    /// Total payload bytes currently held.
    bytes: u64,
    /// Cumulative bytes ever appended (monotonic; for scheduler status).
    total_appended: u64,
    /// Cumulative messages ever appended.
    total_msgs: u64,
}

impl SenderLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an emission. Idempotent for a given `(dst, clock)`: during
    /// re-execution the same deterministic send re-appends the same message
    /// (Lemma 1) and must not double-count. The payload is moved in (a
    /// `Payload` clone is only a refcount bump, but the move keeps the hot
    /// path allocation-free even if the representation ever changes).
    pub fn append(&mut self, dst: Rank, sender_clock: u64, payload: Payload) {
        let q = self.per_dst.entry(dst).or_default();
        let len = payload.len() as u64;
        match q.back() {
            Some(&(last, _)) if sender_clock <= last => {
                // A re-execution re-appending, or a rebuilt log filled out
                // of order: insert in place unless already held.
                match q.binary_search_by_key(&sender_clock, |e| e.0) {
                    Ok(_) => return,
                    Err(at) => q.insert(at, (sender_clock, payload)),
                }
            }
            _ => q.push_back((sender_clock, payload)),
        }
        self.bytes += len;
        self.total_appended += len;
        self.total_msgs += 1;
    }

    /// Retrieve the saved messages for `dst` with clock strictly greater
    /// than `after` — the re-send set of the `RESTART1`/`RESTART2` rules.
    pub fn resend_after(&self, dst: Rank, after: u64) -> impl Iterator<Item = SavedMsg> + '_ {
        self.per_dst
            .get(&dst)
            .into_iter()
            .flat_map(move |q| q.range(q.partition_point(|e| e.0 <= after)..))
            .map(|(sender_clock, payload)| SavedMsg {
                sender_clock: *sender_clock,
                payload: payload.clone(),
            })
    }

    /// A specific saved message, if still held.
    pub fn get(&self, dst: Rank, sender_clock: u64) -> Option<&Payload> {
        let q = self.per_dst.get(&dst)?;
        let at = q.binary_search_by_key(&sender_clock, |e| e.0).ok()?;
        Some(&q[at].1)
    }

    /// Garbage-collect: drop every message to `dst` with clock
    /// `<= watermark` (the destination checkpointed past them, §4.6.1).
    /// Returns the number of bytes reclaimed.
    pub fn collect(&mut self, dst: Rank, watermark: u64) -> u64 {
        let Some(q) = self.per_dst.get_mut(&dst) else {
            return 0;
        };
        let n = q.partition_point(|e| e.0 <= watermark);
        let freed: u64 = q.drain(..n).map(|(_, p)| p.len() as u64).sum();
        self.bytes -= freed;
        freed
    }

    /// Bytes currently held (drives checkpoint scheduling, §4.6.2).
    pub fn bytes_held(&self) -> u64 {
        self.bytes
    }

    /// Cumulative bytes ever appended.
    pub fn bytes_appended(&self) -> u64 {
        self.total_appended
    }

    /// Messages currently held.
    pub fn msgs_held(&self) -> usize {
        self.per_dst.values().map(|q| q.len()).sum()
    }

    /// Cumulative messages ever appended.
    pub fn msgs_appended(&self) -> u64 {
        self.total_msgs
    }

    /// Destinations with at least one saved message.
    pub fn destinations(&self) -> impl Iterator<Item = Rank> + '_ {
        self.per_dst
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&r, _)| r)
    }

    /// Every held entry in `(dst, clock)` order, payloads *borrowed* —
    /// the checkpoint path clones these into image segments, which for
    /// the refcounted [`Payload`] is a pointer bump, not a byte copy.
    /// Unlike [`SenderLog::resend_after`] this covers clock 0 too.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Rank, u64, &Payload)> + '_ {
        self.per_dst
            .iter()
            .flat_map(|(&dst, q)| q.iter().map(move |(clock, p)| (dst, *clock, p)))
    }

    /// Rebuild a log from checkpoint-image segments, restoring the
    /// cumulative counters that the current entries alone cannot recover
    /// (collected entries still count toward `*_appended`).
    pub fn from_entries<I>(entries: I, total_appended: u64, total_msgs: u64) -> Self
    where
        I: IntoIterator<Item = (Rank, u64, Payload)>,
    {
        let mut log = SenderLog::new();
        for (dst, clock, payload) in entries {
            log.append(dst, clock, payload);
        }
        log.total_appended = total_appended;
        log.total_msgs = total_msgs;
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn log_with(entries: &[(u32, u64, usize)]) -> SenderLog {
        let mut l = SenderLog::new();
        for &(dst, clock, len) in entries {
            l.append(Rank(dst), clock, Payload::filled(1, len));
        }
        l
    }

    #[test]
    fn append_and_accounting() {
        let l = log_with(&[(1, 1, 10), (1, 3, 20), (2, 2, 5)]);
        assert_eq!(l.bytes_held(), 35);
        assert_eq!(l.msgs_held(), 3);
        assert_eq!(l.msgs_appended(), 3);
    }

    #[test]
    fn append_is_idempotent_per_clock() {
        let mut l = SenderLog::new();
        l.append(Rank(1), 5, Payload::filled(0, 100));
        l.append(Rank(1), 5, Payload::filled(0, 100)); // replayed send
        assert_eq!(l.bytes_held(), 100);
        assert_eq!(l.msgs_held(), 1);
        assert_eq!(l.msgs_appended(), 1);
    }

    #[test]
    fn resend_after_returns_strictly_newer_in_order() {
        let l = log_with(&[(1, 1, 1), (1, 5, 1), (1, 9, 1), (2, 4, 1)]);
        let clocks: Vec<u64> = l.resend_after(Rank(1), 4).map(|s| s.sender_clock).collect();
        assert_eq!(clocks, vec![5, 9]);
        let clocks: Vec<u64> = l.resend_after(Rank(1), 0).map(|s| s.sender_clock).collect();
        assert_eq!(clocks, vec![1, 5, 9]);
        assert_eq!(l.resend_after(Rank(3), 0).count(), 0);
    }

    #[test]
    fn collect_frees_only_at_or_below_watermark() {
        let mut l = log_with(&[(1, 1, 10), (1, 5, 20), (1, 9, 30)]);
        let freed = l.collect(Rank(1), 5);
        assert_eq!(freed, 30);
        assert_eq!(l.bytes_held(), 30);
        assert_eq!(l.resend_after(Rank(1), 0).count(), 1);
        assert!(l.get(Rank(1), 9).is_some());
        assert!(l.get(Rank(1), 5).is_none());
        // Collecting an unknown destination is a no-op.
        assert_eq!(l.collect(Rank(7), 100), 0);
    }

    #[test]
    fn collect_at_max_watermark_drops_everything_without_overflow() {
        // Regression: `split_off(&(watermark + 1))` overflowed (debug
        // panic) when a peer advertised u64::MAX as its watermark.
        let mut l = log_with(&[(1, 1, 10), (1, u64::MAX, 20)]);
        let freed = l.collect(Rank(1), u64::MAX);
        assert_eq!(freed, 30);
        assert_eq!(l.bytes_held(), 0);
        assert_eq!(l.msgs_held(), 0);
    }

    #[test]
    fn destinations_skips_emptied() {
        let mut l = log_with(&[(1, 1, 10), (2, 1, 10)]);
        l.collect(Rank(1), 10);
        let d: Vec<Rank> = l.destinations().collect();
        assert_eq!(d, vec![Rank(2)]);
    }

    #[test]
    fn iter_entries_covers_clock_zero_and_rebuild_restores_counters() {
        let mut l = log_with(&[(1, 0, 10), (1, 5, 20), (2, 3, 7)]);
        l.collect(Rank(2), 3); // drop one entry; cumulative counters keep it
        let entries: Vec<(Rank, u64, Payload)> = l
            .iter_entries()
            .map(|(d, c, p)| (d, c, p.clone()))
            .collect();
        assert_eq!(
            entries.iter().map(|&(d, c, _)| (d, c)).collect::<Vec<_>>(),
            vec![(Rank(1), 0), (Rank(1), 5)]
        );
        let rebuilt = SenderLog::from_entries(entries, l.bytes_appended(), l.msgs_appended());
        assert_eq!(rebuilt.bytes_held(), l.bytes_held());
        assert_eq!(rebuilt.msgs_held(), l.msgs_held());
        assert_eq!(rebuilt.bytes_appended(), 37);
        assert_eq!(rebuilt.msgs_appended(), 3);
        assert!(rebuilt.get(Rank(1), 0).is_some());
    }

    #[test]
    fn payload_handle_stays_small() {
        // The log holds one handle per saved message, and the MPI layer
        // one per queued message. Measured on the benchmark workloads: a
        // 32-byte handle (`Arc<[u8]>` plus two `usize`) raised
        // `peak_rss_mb` by 10.7 % on `stream_small_v2` with the
        // ordered-map log, and by 5 % on `recovery_replay_v2` even with
        // this flat one; the 24-byte handle (`u32` offset and length)
        // with the flat log lowered it by 4–12 %.
        assert!(std::mem::size_of::<Payload>() <= 24);
    }

    #[test]
    fn a_collected_log_holds_no_arena_chunk() {
        use crate::payload::{FrameArena, ARENA_CHUNK, ARENA_MIN_FRAME};
        // A chunk's worth of large frames, sent alternately to two
        // destinations and each read back, as re-sends would.
        let arena = &mut FrameArena::new();
        let mut l = SenderLog::new();
        let per_chunk = (ARENA_CHUNK / ARENA_MIN_FRAME) as u64;
        let mut start = None;
        for clock in 0..per_chunk {
            let frame = arena.concat(&[&[clock as u8; ARENA_MIN_FRAME]]);
            start.get_or_insert(frame.as_slice().as_ptr());
            l.append(Rank((clock % 2) as u32 + 1), clock, frame);
        }
        assert_eq!(l.resend_after(Rank(1), 0).count() as u64, per_chunk / 2 - 1);
        l.collect(Rank(1), per_chunk);
        assert!(l.get(Rank(2), 1).is_some());
        l.collect(Rank(2), per_chunk);
        assert_eq!((l.msgs_held(), l.bytes_held()), (0, 0));
        // Nothing holds the full chunk any more: the arena writes it again.
        let next = arena.concat(&[&[0xEE; ARENA_MIN_FRAME]]);
        assert_eq!(Some(next.as_slice().as_ptr()), start);
    }

    /// One step of the model test.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Append { dst: u32, clock: u64, len: usize },
        Collect { dst: u32, watermark: u64 },
        ResendAfter { dst: u32, after: u64 },
        Get { dst: u32, clock: u64 },
        Rebuild,
    }

    fn clock() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), Just(u64::MAX - 1), 0u64..40]
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..10, 0u32..3, clock(), 0usize..5).prop_map(|(kind, dst, clock, len)| {
            match kind {
                // Appends dominate; low clocks repeat and go backwards.
                0..=4 => Op::Append { dst, clock, len },
                5 | 6 => Op::Collect {
                    dst,
                    watermark: clock,
                },
                7 => Op::ResendAfter { dst, after: clock },
                8 => Op::Get { dst, clock },
                _ => Op::Rebuild,
            }
        });
        collection::vec(op, 0..60)
    }

    /// The log agrees with the reference map and counters.
    fn agrees(l: &SenderLog, model: &BTreeMap<(Rank, u64), Payload>, appended: (u64, u64)) {
        let ours: Vec<(Rank, u64, Payload)> = l
            .iter_entries()
            .map(|(d, c, p)| (d, c, p.clone()))
            .collect();
        let want: Vec<(Rank, u64, Payload)> =
            model.iter().map(|(&(d, c), p)| (d, c, p.clone())).collect();
        assert_eq!(ours, want);
        let bytes: u64 = model.values().map(|p| p.len() as u64).sum();
        assert_eq!(l.bytes_held(), bytes);
        assert_eq!(l.msgs_held(), model.len());
        assert_eq!((l.bytes_appended(), l.msgs_appended()), appended);
        let mut dsts: Vec<Rank> = model.keys().map(|&(d, _)| d).collect();
        dsts.dedup();
        assert_eq!(l.destinations().collect::<Vec<_>>(), dsts);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn matches_an_ordered_map_model(ops in ops()) {
            let mut l = SenderLog::new();
            let mut model: BTreeMap<(Rank, u64), Payload> = BTreeMap::new();
            let mut appended = (0u64, 0u64);
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Append { dst, clock, len } => {
                        // Distinct content per append: a repeated clock
                        // must keep the first payload.
                        let p = Payload::filled(i as u8, len);
                        l.append(Rank(dst), clock, p.clone());
                        if let std::collections::btree_map::Entry::Vacant(v) =
                            model.entry((Rank(dst), clock))
                        {
                            v.insert(p);
                            appended.0 += len as u64;
                            appended.1 += 1;
                        }
                    }
                    Op::Collect { dst, watermark } => {
                        let gone: Vec<(Rank, u64)> = model
                            .range((Rank(dst), 0)..=(Rank(dst), watermark))
                            .map(|(&k, _)| k)
                            .collect();
                        let freed: u64 = gone
                            .iter()
                            .map(|k| model.remove(k).unwrap().len() as u64)
                            .sum();
                        prop_assert_eq!(l.collect(Rank(dst), watermark), freed);
                    }
                    Op::ResendAfter { dst, after } => {
                        let ours: Vec<(u64, Payload)> = l
                            .resend_after(Rank(dst), after)
                            .map(|m| (m.sender_clock, m.payload))
                            .collect();
                        let want: Vec<(u64, Payload)> = model
                            .range((Rank(dst), 0)..=(Rank(dst), u64::MAX))
                            .filter(|(&(_, c), _)| c > after)
                            .map(|(&(_, c), p)| (c, p.clone()))
                            .collect();
                        prop_assert_eq!(ours, want);
                    }
                    Op::Get { dst, clock } => {
                        prop_assert_eq!(l.get(Rank(dst), clock), model.get(&(Rank(dst), clock)));
                    }
                    Op::Rebuild => {
                        let entries: Vec<(Rank, u64, Payload)> =
                            l.iter_entries().map(|(d, c, p)| (d, c, p.clone())).collect();
                        l = SenderLog::from_entries(entries, appended.0, appended.1);
                    }
                }
                agrees(&l, &model, appended);
            }
        }
    }

    #[test]
    fn boundaries_of_collect_and_resend() {
        let mut l = SenderLog::new();
        assert_eq!(l.collect(Rank(1), 0), 0); // empty log
        assert_eq!(l.collect(Rank(1), u64::MAX), 0);
        for c in [0, 1, 2, 5, u64::MAX] {
            l.append(Rank(1), c, Payload::filled(1, 1));
        }
        // `resend_after` is strictly-after: 0 excludes clock 0, u64::MAX
        // excludes everything.
        let after = |l: &SenderLog, a| {
            l.resend_after(Rank(1), a)
                .map(|m| m.sender_clock)
                .collect::<Vec<_>>()
        };
        assert_eq!(after(&l, 0), vec![1, 2, 5, u64::MAX]);
        assert_eq!(after(&l, u64::MAX - 1), vec![u64::MAX]);
        assert!(after(&l, u64::MAX).is_empty());
        // `collect` at 0 drops clock 0 only; in the middle a prefix.
        assert_eq!(l.collect(Rank(1), 0), 1);
        assert_eq!(l.collect(Rank(1), 3), 2);
        assert_eq!(after(&l, 0), vec![5, u64::MAX]);
        // Re-appending below the last held clock inserts in order.
        l.append(Rank(1), 4, Payload::filled(2, 3));
        assert_eq!(after(&l, 0), vec![4, 5, u64::MAX]);
        assert_eq!(l.bytes_held(), 5);
    }
}
