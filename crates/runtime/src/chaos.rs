//! Seeded crash storms: randomized, replayable kill schedules for a
//! live deployment, executed by the supervisor's fault plan.
//!
//! Where `mvr_net::chaos` places faults at exact points of a node's own
//! message history (count triggers), this module models the *volatile
//! desktop-grid* environment of the paper: nodes die at random times, in
//! overlapping bursts, sometimes again while their reincarnation is still
//! replaying, and occasionally the checkpoint server goes down with them
//! (§4.3). The whole schedule — gaps, victims, burst sizes, re-kills,
//! checkpoint-server kills — is a **pure function of one seed**
//! ([`ChaosConfig::plan`]), so any failing soak run is reproducible from
//! the seed its harness printed.

use crate::deploy::Topology;
use mvr_core::Rank;
use std::time::Duration;

/// Parameters of a randomized crash storm.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The RNG seed the whole schedule derives from.
    pub seed: u64,
    /// Total number of rank kills to schedule (re-kills included).
    pub kills: u32,
    /// Minimum gap between kill events.
    pub min_gap: Duration,
    /// Maximum gap between kill events.
    pub max_gap: Duration,
    /// Maximum ranks killed simultaneously in one event (overlapping
    /// crashes; 1 disables bursts).
    pub max_burst: u32,
    /// Percent chance (0–100) that an event also kills the checkpoint
    /// server (§4.3: affected nodes then restart from scratch).
    pub cs_kill_pct: u8,
    /// Percent chance (0–100) that a kill is followed, after a sub-replay
    /// gap (0.5–3 ms), by a re-kill of the same rank — crashing the
    /// reincarnation while it is still recovering.
    pub rekill_pct: u8,
    /// Percent chance (0–100) that an event also kills one event-logger
    /// replica, picked uniformly among the topology's
    /// [`el_total`](Topology::el_total) flat indices. Drawn only on
    /// replicated deployments (`el_replicas > 1`), where the surviving
    /// quorum keeps the pessimism gates open and the dispatcher revives
    /// the victim; otherwise, and with 0, the plan draws no extra RNG
    /// values, so schedules of EL-oblivious configs are unchanged.
    pub el_kill_pct: u8,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            kills: 6,
            min_gap: Duration::from_millis(4),
            max_gap: Duration::from_millis(14),
            max_burst: 2,
            cs_kill_pct: 0,
            rekill_pct: 25,
            el_kill_pct: 0,
        }
    }
}

/// One scheduled kill event of a chaos plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Gap since the previous event (the first: since launch).
    pub after: Duration,
    /// Ranks killed simultaneously.
    pub victims: Vec<Rank>,
    /// Whether the checkpoint server is killed too.
    pub kill_checkpoint_server: bool,
    /// Whether this event re-kills a rank whose reincarnation is
    /// (likely) still replaying.
    pub rekill: bool,
    /// Flat index of an event-logger replica killed by this event, if any.
    pub kill_el_replica: Option<u32>,
}

impl ChaosConfig {
    /// The full kill schedule — a pure function of `(self, topology)`.
    /// Two calls with the same inputs return identical plans; this is the
    /// replayability contract of the soak harness.
    pub fn plan(&self, topology: &Topology) -> Vec<ChaosEvent> {
        let world = topology.world();
        let el_total = topology.el_total();
        let el_kills = self.el_kill_pct > 0 && topology.el_replicas() > 1;
        let mut rng = rand::Rng::seed_from_u64(self.seed ^ 0xC4A0_5EED);
        let span_us = self.max_gap.saturating_sub(self.min_gap).as_micros().max(1) as u64;
        let mut events = Vec::new();
        let mut remaining = self.kills as u64;
        while remaining > 0 {
            let gap = self.min_gap + Duration::from_micros(rng.next_u64() % span_us);
            let burst = (1 + rng.next_u64() % self.max_burst.max(1) as u64)
                .min(remaining)
                .min(world as u64);
            let mut victims: Vec<Rank> = Vec::new();
            while victims.len() < burst as usize {
                let v = Rank((rng.next_u64() % world as u64) as u32);
                if !victims.contains(&v) {
                    victims.push(v);
                }
            }
            let cs = rng.next_u64() % 100 < self.cs_kill_pct as u64;
            // EL-kill draws are guarded so EL-oblivious configs consume
            // exactly the same RNG sequence as before the field existed.
            let el = if el_kills {
                (rng.next_u64() % 100 < self.el_kill_pct as u64)
                    .then(|| (rng.next_u64() % el_total as u64) as u32)
            } else {
                None
            };
            remaining -= burst;
            let rekill = remaining > 0 && rng.next_u64() % 100 < self.rekill_pct as u64;
            let rekill_victim = victims[0];
            let rekill_gap = Duration::from_micros(500 + rng.next_u64() % 2500);
            events.push(ChaosEvent {
                after: gap,
                victims,
                kill_checkpoint_server: cs,
                rekill: false,
                kill_el_replica: el,
            });
            if rekill {
                remaining -= 1;
                events.push(ChaosEvent {
                    after: rekill_gap,
                    victims: vec![rekill_victim],
                    kill_checkpoint_server: false,
                    rekill: true,
                    kill_el_replica: None,
                });
            }
        }
        events
    }
}

/// What the supervisor's fault plan actually did during a run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// The full planned schedule (print this — plus the seed — to replay).
    pub plan: Vec<ChaosEvent>,
    /// Rank kills executed before the run completed.
    pub rank_kills: u64,
    /// Checkpoint-server kills executed.
    pub cs_kills: u64,
    /// Event-logger replica kills executed.
    pub el_kills: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(world: u32, el_shards: u32, el_replicas: u32) -> Topology {
        Topology::new(world, el_shards, el_replicas).expect("valid topology")
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let cfg = ChaosConfig {
            seed: 42,
            kills: 12,
            max_burst: 3,
            cs_kill_pct: 20,
            rekill_pct: 40,
            ..Default::default()
        };
        assert_eq!(
            cfg.plan(&topo(5, 1, 1)),
            cfg.plan(&topo(5, 1, 1)),
            "same seed, same plan"
        );
        let other = ChaosConfig { seed: 43, ..cfg };
        assert_ne!(
            cfg.plan(&topo(5, 1, 1)),
            other.plan(&topo(5, 1, 1)),
            "seed changes the plan"
        );
    }

    #[test]
    fn plan_schedules_exactly_the_requested_kills() {
        for seed in 0..20u64 {
            let cfg = ChaosConfig {
                seed,
                kills: 9,
                max_burst: 3,
                rekill_pct: 50,
                cs_kill_pct: 30,
                ..Default::default()
            };
            let plan = cfg.plan(&topo(4, 1, 1));
            let total: usize = plan.iter().map(|e| e.victims.len()).sum();
            assert_eq!(total, 9, "seed {seed}");
            for ev in &plan {
                assert!(!ev.victims.is_empty());
                assert!(ev.victims.iter().all(|v| v.0 < 4));
                // Victims in one burst are distinct (overlap = distinct ranks).
                let mut vs = ev.victims.clone();
                vs.dedup();
                assert_eq!(vs.len(), ev.victims.len());
            }
        }
    }

    #[test]
    fn el_kills_are_planned_only_when_enabled() {
        let base = ChaosConfig {
            seed: 11,
            kills: 10,
            max_burst: 2,
            cs_kill_pct: 20,
            rekill_pct: 40,
            ..Default::default()
        };
        // el_kill_pct == 0 draws no RNG values: the schedule of an
        // EL-oblivious config is bit-identical whatever the topology.
        assert_eq!(base.plan(&topo(4, 1, 1)), base.plan(&topo(4, 2, 2)));
        let storm = ChaosConfig {
            el_kill_pct: 100,
            ..base.clone()
        };
        for t in [topo(4, 2, 2), topo(4, 1, 3)] {
            let plan = storm.plan(&t);
            assert!(plan
                .iter()
                .filter(|e| !e.rekill)
                .all(|e| e.kill_el_replica.is_some()));
            assert!(plan
                .iter()
                .filter_map(|e| e.kill_el_replica)
                .all(|f| f < t.el_total()));
            assert!(plan
                .iter()
                .filter(|e| e.rekill)
                .all(|e| e.kill_el_replica.is_none()));
        }
        // An unreplicated logger is never a victim, and drawing none
        // leaves the rest of the schedule as it was.
        let single = storm.plan(&topo(4, 1, 1));
        assert!(single.iter().all(|e| e.kill_el_replica.is_none()));
        assert_eq!(single, base.plan(&topo(4, 1, 1)));
    }

    #[test]
    fn burst_size_respects_world_and_config() {
        let cfg = ChaosConfig {
            seed: 7,
            kills: 30,
            max_burst: 8,
            ..Default::default()
        };
        let plan = cfg.plan(&topo(3, 1, 1));
        assert!(plan.iter().all(|e| e.victims.len() <= 3));
    }
}
