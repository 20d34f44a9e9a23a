//! Shard routing and replica quorum accounting for the sharded Event
//! Logger.
//!
//! The paper's constraint (§4.5) is that "every communication daemon
//! must be connected to exactly one event logger" and that "event
//! loggers do not have to communicate with each other". Sharding by
//! receiver rank preserves both: a daemon's reception events are all
//! owned by its own rank, so the consistent-hash [`ShardMap`] assigns
//! each daemon exactly one shard, and shards never exchange state.
//! Within a shard, R replicas each hold the full shard ledger; the
//! pessimism gate opens when a majority quorum ([`quorum_of`]) of them
//! has acked, so a single replica crash neither stalls the gate nor
//! loses any quorum-acked event (write quorum ∩ read quorum is
//! non-empty). The daemon's engine folds the replica acks into the
//! quorum watermark (`V2Engine` in `mvr-core`).

use mvr_core::{Rank, ReceptionEvent};

/// 64-bit FNV-1a with a splitmix64 finalizer, the hash behind the
/// consistent-hash ring. Chosen for determinism across runs and
/// platforms — the map must be a pure function of `(shards,)` so
/// daemons, dispatcher and recovery all agree on shard ownership
/// without coordination. Raw FNV-1a clusters badly on the u64 ring for
/// the short, mostly-zero keys used here (sequential ranks land on one
/// shard); the finalizer's avalanche spreads them uniformly.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic consistent-hash map from receiver rank to EL shard.
///
/// Each shard contributes [`ShardMap::VNODES`] points on a 64-bit ring;
/// a rank is owned by the first point at or after its own hash
/// (wrapping). With one shard the map is trivially constant, so the
/// `el_shards = 1` deployment is byte-identical to the unsharded one.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: u32,
    /// Sorted `(point, shard)` ring.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Virtual nodes per shard — enough to keep the rank partition
    /// within a few percent of uniform at paper scale (32 nodes).
    pub const VNODES: u32 = 16;

    /// Build the ring for `shards` shards. Panics if `shards == 0`.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "at least one event-logger shard is required");
        let mut ring = Vec::with_capacity((shards * Self::VNODES) as usize);
        for s in 0..shards {
            for v in 0..Self::VNODES {
                let mut key = [0u8; 8];
                key[..4].copy_from_slice(&s.to_le_bytes());
                key[4..].copy_from_slice(&v.to_le_bytes());
                ring.push((ring_hash(&key), s));
            }
        }
        ring.sort_unstable();
        // Identical points (astronomically unlikely) resolve to the
        // lowest shard, deterministically.
        ring.dedup_by_key(|e| e.0);
        ShardMap { shards, ring }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `rank`'s reception events.
    pub fn shard_for(&self, rank: Rank) -> u32 {
        if self.shards == 1 {
            return 0;
        }
        let h = ring_hash(&rank.0.to_le_bytes());
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if idx == self.ring.len() { 0 } else { idx }].1
    }
}

/// Majority quorum size for `replicas` replicas (`R/2 + 1`); one
/// replica is its own quorum.
pub fn quorum_of(replicas: u32) -> u32 {
    replicas.max(1) / 2 + 1
}

/// Cluster-wide unique-event view over flat-indexed per-replica ledger
/// counts (`flat = shard * replicas + replica`): replicas of one shard
/// hold copies of the same events, so a shard's unique count is the max
/// over its replicas and the cluster total is the sum over shards. With
/// `replicas = 1` this degenerates to a plain sum.
pub fn merged_unique_events(per_replica: &[u64], replicas: usize) -> u64 {
    let r = replicas.max(1);
    per_replica
        .chunks(r)
        .map(|shard| shard.iter().copied().max().unwrap_or(0))
        .sum()
}

/// Union-merge several replicas' `DownloadEL` answers (each receiver-
/// clock ordered) into one deduplicated, ordered event list. Any
/// replica missed by a write quorum lacks at most the events the
/// others hold, so the union over a read quorum recovers every
/// quorum-acked event.
pub fn merge_downloads(mut lists: Vec<Vec<ReceptionEvent>>) -> Vec<ReceptionEvent> {
    if lists.len() <= 1 {
        return lists.pop().unwrap_or_default();
    }
    let mut merged: Vec<ReceptionEvent> = Vec::new();
    for list in lists {
        let mut out = Vec::with_capacity(merged.len() + list.len());
        let (mut i, mut j) = (0, 0);
        while i < merged.len() && j < list.len() {
            let (a, b) = (merged[i], list[j]);
            if a.receiver_clock == b.receiver_clock {
                out.push(a);
                i += 1;
                j += 1;
            } else if a.receiver_clock < b.receiver_clock {
                out.push(a);
                i += 1;
            } else {
                out.push(b);
                j += 1;
            }
        }
        out.extend_from_slice(&merged[i..]);
        out.extend_from_slice(&list[j..]);
        merged = out;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_is_constant() {
        let m = ShardMap::new(1);
        for r in 0..64 {
            assert_eq!(m.shard_for(Rank(r)), 0);
        }
    }

    #[test]
    fn map_is_deterministic_and_total() {
        let a = ShardMap::new(4);
        let b = ShardMap::new(4);
        for r in 0..256 {
            let s = a.shard_for(Rank(r));
            assert!(s < 4);
            assert_eq!(s, b.shard_for(Rank(r)), "pure function of (shards, rank)");
        }
    }

    #[test]
    fn map_is_roughly_balanced() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for r in 0..1024 {
            counts[m.shard_for(Rank(r)) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (100..=500).contains(&c),
                "shard {s} owns {c} of 1024 ranks — ring badly skewed"
            );
        }
    }

    #[test]
    fn every_shard_owns_someone_at_paper_scale() {
        let m = ShardMap::new(4);
        let mut seen = [false; 4];
        for r in 0..32 {
            seen[m.shard_for(Rank(r)) as usize] = true;
        }
        assert_eq!(seen, [true; 4], "32 ranks must touch all 4 shards");
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(quorum_of(1), 1);
        assert_eq!(quorum_of(2), 2);
        assert_eq!(quorum_of(3), 2);
        assert_eq!(quorum_of(4), 3);
        assert_eq!(quorum_of(5), 3);
    }

    #[test]
    fn merged_unique_view() {
        // 2 shards × 2 replicas, flat-indexed. Replica copies dedupe by
        // max; shards sum.
        assert_eq!(merged_unique_events(&[10, 8, 4, 4], 2), 14);
        // R=1: plain sum.
        assert_eq!(merged_unique_events(&[3, 5], 1), 8);
        assert_eq!(merged_unique_events(&[], 2), 0);
    }
}
