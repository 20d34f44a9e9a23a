//! The cross-rank happens-before DAG of a merged timeline, and the
//! critical path through it with per-component attribution.
//!
//! Nodes are timeline records; edges are the protocol's causal
//! dependencies: per-rank program order, send → delivery (network),
//! gate defer → gate open (pessimism stall), EL ship → EL ack
//! (logging round-trip), checkpoint begin → commit (upload), and
//! recovery begin → replay done (replay).
//!
//! Every edge's weight is the timestamp difference of its endpoints,
//! so *all* start→end paths telescope to the same total — the path
//! itself is not interesting, its *composition* is. The critical path
//! is therefore reconstructed backwards from the last record, at each
//! node following the incoming edge whose source is latest: that edge
//! is the binding dependency (the one the node actually waited for),
//! and summing each hop's Δt per edge category attributes the run's
//! wall-clock to gate waits vs. EL round-trips vs. checkpoints vs.
//! replay vs. plain computation.
//!
//! The analysis is text only (`obs_analyze` prints
//! [`CriticalPath::report`]); the per-message arrows of the same send →
//! delivery edges are drawn by the one trace writer,
//! [`write_trace`](crate::write_trace).

use crate::event::{FlightRecord, ProtoEvent};
use crate::span::SpanKey;
use std::collections::{BTreeMap, HashMap};

/// Category of a happens-before edge — the component a hop's wall
/// clock is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeCat {
    /// Per-rank program order (computation / local progress).
    Local,
    /// Send → delivery across the network.
    Net,
    /// Gate defer → gate open (pessimism stall).
    GateWait,
    /// EL ship → EL ack (logging round-trip).
    ElRtt,
    /// Checkpoint begin → commit (image upload).
    CkptStore,
    /// Recovery begin → replay done, and send → replayed delivery.
    Replay,
}

impl EdgeCat {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeCat::Local => "local",
            EdgeCat::Net => "network",
            EdgeCat::GateWait => "gate-wait",
            EdgeCat::ElRtt => "el-rtt",
            EdgeCat::CkptStore => "ckpt-store",
            EdgeCat::Replay => "replay",
        }
    }
}

/// The happens-before DAG over a merged timeline. Node `i` is
/// `timeline[i]`.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Incoming edges per node: `(source index, category)`.
    preds: Vec<Vec<(usize, EdgeCat)>>,
    edges: usize,
}

impl CausalGraph {
    /// Build the DAG from a merged, per-rank-ordered timeline.
    pub fn build(timeline: &[FlightRecord]) -> CausalGraph {
        let mut g = CausalGraph {
            preds: vec![Vec::new(); timeline.len()],
            edges: 0,
        };
        let mut prev_of_rank: HashMap<u32, usize> = HashMap::new();
        let mut send_of: HashMap<SpanKey, usize> = HashMap::new();
        let mut defers_of_rank: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut ships_of_rank: HashMap<u32, Vec<(u64, usize)>> = HashMap::new();
        let mut ckpt_of: HashMap<(u32, u64), usize> = HashMap::new();
        let mut recovery_of_rank: HashMap<u32, usize> = HashMap::new();
        for (i, rec) in timeline.iter().enumerate() {
            if let Some(&p) = prev_of_rank.get(&rec.rank) {
                g.add(p, i, EdgeCat::Local);
            }
            prev_of_rank.insert(rec.rank, i);
            match &rec.event {
                ProtoEvent::Send { clock, .. } => {
                    send_of.entry((rec.rank, *clock)).or_insert(i);
                }
                ProtoEvent::GateDefer { .. } => {
                    defers_of_rank.entry(rec.rank).or_default().push(i);
                }
                ProtoEvent::GateOpen { .. } => {
                    for d in defers_of_rank.entry(rec.rank).or_default().drain(..) {
                        g.add(d, i, EdgeCat::GateWait);
                    }
                }
                ProtoEvent::Deliver {
                    from, sender_clock, ..
                } => {
                    if let Some(&s) = send_of.get(&(*from, *sender_clock)) {
                        g.add(s, i, EdgeCat::Net);
                    }
                }
                ProtoEvent::ReplayStep {
                    from, sender_clock, ..
                } => {
                    if let Some(&s) = send_of.get(&(*from, *sender_clock)) {
                        g.add(s, i, EdgeCat::Replay);
                    }
                }
                ProtoEvent::ElShip { up_to, .. } => {
                    ships_of_rank.entry(rec.rank).or_default().push((*up_to, i));
                }
                ProtoEvent::ElAck { up_to, .. } => {
                    let ships = ships_of_rank.entry(rec.rank).or_default();
                    let mut kept = Vec::new();
                    for (ship_up_to, s) in ships.drain(..) {
                        if ship_up_to <= *up_to {
                            g.add(s, i, EdgeCat::ElRtt);
                        } else {
                            kept.push((ship_up_to, s));
                        }
                    }
                    *ships = kept;
                }
                ProtoEvent::CkptBegin { seq, .. } => {
                    ckpt_of.insert((rec.rank, *seq), i);
                }
                ProtoEvent::CkptCommit { seq, .. } => {
                    if let Some(&b) = ckpt_of.get(&(rec.rank, *seq)) {
                        g.add(b, i, EdgeCat::CkptStore);
                    }
                }
                ProtoEvent::RecoveryBegin { .. } => {
                    recovery_of_rank.insert(rec.rank, i);
                    // In-flight EL batches and defers died with the
                    // previous incarnation.
                    ships_of_rank.entry(rec.rank).or_default().clear();
                    defers_of_rank.entry(rec.rank).or_default().clear();
                }
                ProtoEvent::ReplayDone { .. } => {
                    if let Some(r) = recovery_of_rank.remove(&rec.rank) {
                        g.add(r, i, EdgeCat::Replay);
                    }
                }
                _ => {}
            }
        }
        g
    }

    fn add(&mut self, from: usize, to: usize, cat: EdgeCat) {
        self.preds[to].push((from, cat));
        self.edges += 1;
    }

    /// Number of edges in the DAG.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of nodes in the DAG.
    pub fn node_count(&self) -> usize {
        self.preds.len()
    }

    /// Reconstruct the critical path ending at the timeline's last
    /// record (the run's completion). `None` on an empty timeline.
    pub fn critical_path(&self, timeline: &[FlightRecord]) -> Option<CriticalPath> {
        let end = (0..timeline.len()).max_by_key(|&i| (timeline[i].ts_ns, i))?;
        let mut steps = Vec::new();
        let mut by_category: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut cur = end;
        // The DAG is acyclic (edges follow causality), so the walk
        // terminates; the cap is a defensive bound against a future
        // edge-construction bug turning it into a livelock.
        for _ in 0..=self.preds.len() {
            let Some(&(pred, cat)) = self.preds[cur]
                .iter()
                .max_by_key(|(p, _)| (timeline[*p].ts_ns, *p))
            else {
                break;
            };
            let dt = timeline[cur].ts_ns.saturating_sub(timeline[pred].ts_ns);
            *by_category.entry(cat.name()).or_insert(0) += dt;
            steps.push(CriticalStep {
                from_idx: pred,
                to_idx: cur,
                cat,
                dt_ns: dt,
            });
            cur = pred;
        }
        steps.reverse();
        Some(CriticalPath {
            total_ns: timeline[end].ts_ns.saturating_sub(timeline[cur].ts_ns),
            start_idx: cur,
            end_idx: end,
            steps,
            by_category,
        })
    }
}

/// One hop of the critical path.
#[derive(Clone, Copy, Debug)]
pub struct CriticalStep {
    /// Source node (timeline index).
    pub from_idx: usize,
    /// Target node (timeline index).
    pub to_idx: usize,
    /// Edge category the hop's Δt is attributed to.
    pub cat: EdgeCat,
    /// Nanoseconds between the two records.
    pub dt_ns: u64,
}

/// The binding-dependency chain from the run's first implicated record
/// to its last, with wall-clock attribution per edge category.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Nanoseconds covered by the path.
    pub total_ns: u64,
    /// Timeline index the path starts at.
    pub start_idx: usize,
    /// Timeline index the path ends at (the run's last record).
    pub end_idx: usize,
    /// Hops, oldest first.
    pub steps: Vec<CriticalStep>,
    /// Total nanoseconds attributed to each edge category.
    pub by_category: BTreeMap<&'static str, u64>,
}

impl CriticalPath {
    /// The category holding the most wall-clock, `(name, ns)`.
    pub fn dominant(&self) -> Option<(&'static str, u64)> {
        self.by_category
            .iter()
            .max_by_key(|(name, ns)| (**ns, **name))
            .map(|(name, ns)| (*name, *ns))
    }

    /// Multi-line human report of the attribution and longest hops.
    pub fn report(&self, timeline: &[FlightRecord], top: usize) -> String {
        let mut out = format!(
            "critical path: {} hops, {}ns total\n",
            self.steps.len(),
            self.total_ns
        );
        let mut cats: Vec<(&'static str, u64)> =
            self.by_category.iter().map(|(n, v)| (*n, *v)).collect();
        cats.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        for (name, ns) in &cats {
            let pct = if self.total_ns > 0 {
                *ns as f64 * 100.0 / self.total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!("  {name}: {ns}ns ({pct:.1}%)\n"));
        }
        if let Some((name, ns)) = self.dominant() {
            out.push_str(&format!("  dominant component: {name} ({ns}ns)\n"));
        }
        let mut slow: Vec<&CriticalStep> = self.steps.iter().collect();
        slow.sort_by_key(|s| std::cmp::Reverse(s.dt_ns));
        for s in slow.iter().take(top) {
            let from = &timeline[s.from_idx];
            let to = &timeline[s.to_idx];
            out.push_str(&format!(
                "  hop: r{} {} → r{} {} = {}ns [{}]\n",
                from.rank,
                from.event.kind(),
                to.rank,
                to.event.kind(),
                s.dt_ns,
                s.cat.name()
            ));
        }
        out
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

    fn send(to: u32, clock: u64, disposition: SendDisposition) -> ProtoEvent {
        ProtoEvent::Send {
            to,
            clock,
            bytes: 8,
            disposition,
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

    /// rank 0 sends; rank 1 delivers, ships, waits a long EL RTT, then
    /// finishes. The EL round-trip dominates the critical path.
    fn el_bound_timeline() -> Vec<FlightRecord> {
        vec![
            rec(0, 1, 100, send(1, 1, SendDisposition::Wire)),
            rec(1, 1, 200, deliver(0, 1, 1)),
            rec(
                1,
                1,
                250,
                ProtoEvent::ElShip {
                    events: 1,
                    from_clock: 1,
                    up_to: 1,
                },
            ),
            rec(
                1,
                1,
                9_000,
                ProtoEvent::ElAck {
                    up_to: 1,
                    batches_retired: 1,
                    rtt_ns: 8_750,
                },
            ),
            rec(1, 1, 9_100, ProtoEvent::Finish { clock: 1 }),
        ]
    }

    #[test]
    fn dag_has_expected_edges() {
        let tl = el_bound_timeline();
        let g = CausalGraph::build(&tl);
        // Local: 0 edges on rank 0 (single record), 3 on rank 1.
        // Cross: send→deliver, ship→ack.
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn critical_path_names_dominant_component() {
        let tl = el_bound_timeline();
        let g = CausalGraph::build(&tl);
        let cp = g.critical_path(&tl).unwrap();
        // 9_100 - 100 = 9_000 total, of which 8_750 is the EL RTT.
        assert_eq!(cp.total_ns, 9_000);
        let (name, ns) = cp.dominant().unwrap();
        assert_eq!(name, "el-rtt");
        assert_eq!(ns, 8_750);
        let report = cp.report(&tl, 3);
        assert!(report.contains("dominant component: el-rtt"), "{report}");
    }

    #[test]
    fn paths_telescope_to_the_same_total() {
        // Two parallel chains converging on the last record: the walk
        // picks the binding (latest-source) dependency at each node,
        // and the total equals end-start regardless of route.
        let tl = vec![
            rec(0, 1, 0, send(1, 1, SendDisposition::Wire)),
            rec(0, 2, 10, send(2, 2, SendDisposition::Wire)),
            rec(2, 1, 4000, deliver(0, 2, 1)),
            rec(1, 1, 5000, deliver(0, 1, 1)),
        ];
        let g = CausalGraph::build(&tl);
        let cp = g.critical_path(&tl).unwrap();
        assert_eq!(cp.total_ns, 5000);
        // Binding pred of the last deliver is the send at ts=0 on the
        // network edge (rank 1 has no other records).
        assert_eq!(cp.steps.last().unwrap().cat, EdgeCat::Net);
    }

    #[test]
    fn gate_wait_attributed() {
        let tl = vec![
            rec(1, 1, 0, deliver(0, 9, 1)),
            rec(
                1,
                2,
                10,
                ProtoEvent::GateDefer {
                    to: 0,
                    clock: 2,
                    queued: 1,
                },
            ),
            rec(
                1,
                1,
                20,
                ProtoEvent::ElShip {
                    events: 1,
                    from_clock: 1,
                    up_to: 1,
                },
            ),
            rec(
                1,
                1,
                3_000,
                ProtoEvent::ElAck {
                    up_to: 1,
                    batches_retired: 1,
                    rtt_ns: 2_980,
                },
            ),
            rec(
                1,
                2,
                3_050,
                ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 3_040,
                },
            ),
        ];
        let g = CausalGraph::build(&tl);
        let cp = g.critical_path(&tl).unwrap();
        // GateOpen's binding pred is the ElAck at 3_000 (local edge) —
        // gate-wait appears in the DAG but the ack is later.
        assert!(cp.by_category.contains_key("local"));
        // The defer→open edge exists.
        assert_eq!(
            g.preds[4]
                .iter()
                .filter(|(_, c)| *c == EdgeCat::GateWait)
                .count(),
            1
        );
    }

    #[test]
    fn empty_timeline_has_no_critical_path() {
        let g = CausalGraph::build(&[]);
        assert!(g.critical_path(&[]).is_none());
    }
}
