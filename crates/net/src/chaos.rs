//! The seeded chaos layer of the fabric ("turbulence").
//!
//! The paper's whole point is surviving *volatile* nodes; this module is
//! the systematic fault injector that exercises that claim. A
//! [`TurbulenceConfig`] installed on a [`Fabric`](crate::Fabric) hooks the
//! send/deliver path and injects, all from **one RNG seed**:
//!
//! * **per-link message delay** — every send sleeps a deterministic
//!   pseudo-random duration derived from `(seed, from, to, nth-send)`,
//!   perturbing thread interleavings without breaking the per-sender FIFO
//!   guarantee (the delay happens on the sending thread, before enqueue);
//! * **crash-on-Nth-send / crash-on-Nth-receive** ([`CountTrigger`]) —
//!   when a watched node's cumulative send (or delivery) counter reaches
//!   the trigger count, a whole fail-stop group of nodes is killed. Count
//!   triggers place a crash at an exact point in a node's own causal
//!   history (e.g. "mid-replay", "mid-checkpoint-upload"), which
//!   wall-clock sleeps can never do reliably.
//!
//! Kills at a *time* are not this layer's business: the runtime's
//! supervisor executes those (its fault plan holds each until the
//! victim's current incarnation is ready).
//!
//! Determinism contract: the *schedule* — which node dies at which point
//! of its own message history, and every injected delay value — is a pure
//! function of the seed and the configuration. (Thread interleaving
//! between nodes still varies across runs; the protocol must tolerate
//! every interleaving, which is exactly what the chaos soak asserts.)

use mvr_core::{NodeId, Rank};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Kill `kill` when `watch`'s monitored counter reaches `at`.
///
/// Counters are cumulative across incarnations of the same [`NodeId`], so
/// a second trigger at a higher count lands on the *reincarnation* —
/// typically while it is still replaying (crash-during-replay).
#[derive(Clone, Debug)]
pub struct CountTrigger {
    /// The node whose counter is watched.
    pub watch: NodeId,
    /// Fire when the counter reaches this value (1-based).
    pub at: u64,
    /// The fail-stop group to kill (usually the watched node's, see
    /// [`fail_stop_group`]).
    pub kill: Vec<NodeId>,
}

/// The seeded fault plan installed on a fabric.
#[derive(Clone, Debug, Default)]
pub struct TurbulenceConfig {
    /// The single RNG seed everything derives from.
    pub seed: u64,
    /// Upper bound (µs) of the deterministic per-link send delay; 0
    /// disables delay injection.
    pub max_delay_us: u64,
    /// Crash when a node completes its Nth send.
    pub crash_on_send: Vec<CountTrigger>,
    /// Crash when a node's mailbox accepts its Nth message.
    pub crash_on_recv: Vec<CountTrigger>,
}

impl TurbulenceConfig {
    /// Delay-only turbulence: seeded per-link jitter, no crashes.
    pub fn delays(seed: u64, max_delay_us: u64) -> Self {
        TurbulenceConfig {
            seed,
            max_delay_us,
            ..Default::default()
        }
    }
}

/// The fail-stop unit of a computing node: its communication daemon and
/// its co-located MPI process share the node's one fabric slot, so a
/// machine crash (§4.1) takes that slot.
pub fn fail_stop_group(rank: Rank) -> Vec<NodeId> {
    vec![NodeId::Computing(rank)]
}

/// SplitMix64 finalizer: a statistically solid 64-bit mixer, used to
/// derive independent per-(link, message) values from the single seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stable small code per node identity, fed into the delay hash.
fn node_code(n: NodeId) -> u64 {
    match n {
        NodeId::Computing(r) => 0x0100 + r.0 as u64,
        NodeId::EventLogger(i) => 0x0300 + i as u64,
        NodeId::CheckpointServer(i) => 0x0400 + i as u64,
        NodeId::CheckpointScheduler => 0x0500,
        NodeId::Dispatcher => 0x0600,
        NodeId::ChannelMemory(i) => 0x0700 + i as u64,
    }
}

/// What the fabric must do for one send, as decided by the chaos layer.
pub(crate) struct SendVerdict {
    /// Sleep this long before enqueueing (sender thread; preserves FIFO).
    pub delay: Duration,
    /// Kill these nodes, then fail the send with `SenderDead`.
    pub kill_sender_group: Option<Vec<NodeId>>,
}

pub(crate) struct Turbulence {
    cfg: TurbulenceConfig,
    sends: Mutex<HashMap<NodeId, u64>>,
    recvs: Mutex<HashMap<NodeId, u64>>,
}

impl Turbulence {
    pub(crate) fn new(cfg: TurbulenceConfig) -> Self {
        Turbulence {
            cfg,
            sends: Mutex::new(HashMap::new()),
            recvs: Mutex::new(HashMap::new()),
        }
    }

    /// Account one send from `from` to `to`; decide delay and crash.
    pub(crate) fn on_send(&self, from: NodeId, to: NodeId) -> SendVerdict {
        let count = {
            let mut sends = self.sends.lock();
            let c = sends.entry(from).or_insert(0);
            *c += 1;
            *c
        };
        let delay = if self.cfg.max_delay_us == 0 {
            Duration::ZERO
        } else {
            let h = mix(self
                .cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(node_code(from) << 32)
                .wrapping_add(node_code(to) << 16)
                .wrapping_add(count));
            Duration::from_micros(h % (self.cfg.max_delay_us + 1))
        };
        let kill_sender_group = self
            .cfg
            .crash_on_send
            .iter()
            .find(|t| t.watch == from && t.at == count)
            .map(|t| t.kill.clone());
        SendVerdict {
            delay,
            kill_sender_group,
        }
    }

    /// Account one delivery into `to`'s mailbox; decide whether the
    /// receiver crashes *instead of* accepting the message.
    pub(crate) fn on_deliver(&self, to: NodeId) -> Option<Vec<NodeId>> {
        if self.cfg.crash_on_recv.is_empty() {
            return None;
        }
        let count = {
            let mut recvs = self.recvs.lock();
            let c = recvs.entry(to).or_insert(0);
            *c += 1;
            *c
        };
        self.cfg
            .crash_on_recv
            .iter()
            .find(|t| t.watch == to && t.at == count)
            .map(|t| t.kill.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_in_the_seed() {
        let a = Turbulence::new(TurbulenceConfig::delays(7, 500));
        let b = Turbulence::new(TurbulenceConfig::delays(7, 500));
        let c = Turbulence::new(TurbulenceConfig::delays(8, 500));
        let from = NodeId::Computing(Rank(0));
        let to = NodeId::Computing(Rank(1));
        let da: Vec<Duration> = (0..32).map(|_| a.on_send(from, to).delay).collect();
        let db: Vec<Duration> = (0..32).map(|_| b.on_send(from, to).delay).collect();
        let dc: Vec<Duration> = (0..32).map(|_| c.on_send(from, to).delay).collect();
        assert_eq!(da, db, "same seed, same delays");
        assert_ne!(da, dc, "different seed, different delays");
        assert!(da.iter().all(|d| *d <= Duration::from_micros(500)));
    }

    #[test]
    fn send_trigger_fires_exactly_once_at_the_count() {
        let t = Turbulence::new(TurbulenceConfig {
            crash_on_send: vec![CountTrigger {
                watch: NodeId::Computing(Rank(2)),
                at: 3,
                kill: fail_stop_group(Rank(2)),
            }],
            ..Default::default()
        });
        let from = NodeId::Computing(Rank(2));
        let to = NodeId::Computing(Rank(0));
        assert!(t.on_send(from, to).kill_sender_group.is_none());
        assert!(t.on_send(from, to).kill_sender_group.is_none());
        let g = t.on_send(from, to).kill_sender_group.expect("3rd send");
        assert_eq!(g, [NodeId::Computing(Rank(2))], "the node's one slot");
        assert!(t.on_send(from, to).kill_sender_group.is_none());
    }

    #[test]
    fn recv_trigger_counts_cumulatively() {
        let t = Turbulence::new(TurbulenceConfig {
            crash_on_recv: vec![
                CountTrigger {
                    watch: NodeId::Computing(Rank(1)),
                    at: 2,
                    kill: fail_stop_group(Rank(1)),
                },
                CountTrigger {
                    watch: NodeId::Computing(Rank(1)),
                    at: 4,
                    kill: fail_stop_group(Rank(1)),
                },
            ],
            ..Default::default()
        });
        let n = NodeId::Computing(Rank(1));
        assert!(t.on_deliver(n).is_none());
        assert!(t.on_deliver(n).is_some(), "2nd delivery crashes");
        assert!(t.on_deliver(n).is_none());
        assert!(
            t.on_deliver(n).is_some(),
            "counter keeps running across the reincarnation"
        );
    }
}
