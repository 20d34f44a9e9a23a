//! Bounded exhaustive exploration of the protocol's state space — a mini
//! model checker for the Appendix-A proofs.
//!
//! Small deterministic programs run on a set of engines while the
//! explorer branches over **every interleaving** of in-flight deliveries
//! (peer messages and event-logger acknowledgements). On top of each
//! reachable state it additionally branches a **crash of every rank**,
//! runs the recovery deterministically, and checks that the completed
//! execution is equivalent to a fault-free one (every planned message
//! delivered exactly once, in per-pair order, with the right content).
//! On every delivery it also checks that no data message crosses one
//! channel twice between the same two incarnations: a recovery re-sends
//! what a peer lacks once, not once per RESTART message.
//!
//! Under a batch bound above 1 the explorer can also branch on the **host
//! shipping a rank's pending events** at any state — the runtime's
//! freedom to flush when it is about to go idle, or not until a send
//! gates.
//!
//! This complements the scenario and property tests: those sample the
//! space; this exhausts it (for small configurations).

use mvr_core::engine::{Input, Output};
use mvr_core::{EngineSnapshot, EventBatch, Payload, PeerMsg, Rank, ReceptionEvent, V2Engine};
use std::collections::{BTreeSet, VecDeque};

// ---------------------------------------------------------------------
// Deterministic test programs
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Send(u32),
    Recv,
}

fn payload_for(sender: u32, index: u32) -> Payload {
    Payload::from_vec(vec![sender as u8, index as u8, (sender ^ index) as u8])
}

/// Expected per-rank received sequences (per-pair FIFO; cross-pair order
/// free — we compare multisets per source).
fn expected_per_source(scripts: &[Vec<Op>]) -> Vec<Vec<Vec<Payload>>> {
    let n = scripts.len();
    let mut out = vec![vec![Vec::new(); n]; n]; // [receiver][sender] -> payloads in order
    for (src, script) in scripts.iter().enumerate() {
        let mut idx = 0u32;
        for op in script {
            if let Op::Send(dst) = op {
                out[*dst as usize][src].push(payload_for(src as u32, idx));
                idx += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// The explored world
// ---------------------------------------------------------------------

/// A checkpoint image: engine snapshot plus the process-side state
/// (pc, sends_done, received) captured at the same instant.
type Snapshot = (EngineSnapshot, usize, u32, Vec<(u32, Payload)>);

/// A deliverable in-flight item.
#[derive(Clone, Debug)]
enum Flight {
    Peer {
        from: Rank,
        to: Rank,
        msg: PeerMsg,
        /// The sender's incarnation, and the receiver's as the sender
        /// knew it when transmitting.
        incarnations: (u32, u32),
    },
    ElAck {
        to: Rank,
        up_to: u64,
    },
}

#[derive(Clone)]
struct World {
    engines: Vec<V2Engine>,
    scripts: Vec<Vec<Op>>,
    pc: Vec<usize>,
    waiting: Vec<bool>,
    sends_done: Vec<u32>,
    received: Vec<Vec<(u32, Payload)>>,
    /// In-flight deliveries; FIFO **per channel**, but the explorer may
    /// interleave across channels (that is the branching).
    flights: VecDeque<Flight>,
    /// The reliable event logger: stored events per rank.
    el: Vec<Vec<ReceptionEvent>>,
    snapshots: Vec<Option<Snapshot>>,
    /// Batch size bound of every engine, re-applied after a restore.
    batch_max: usize,
    /// Crashes each rank has gone through.
    incarnation: Vec<u32>,
    /// `[r][q]`: the incarnation of `q` that rank `r` addresses — the
    /// one alive at `r`'s own restart, or whose RESTART message `r` has
    /// handled since.
    peer_incarnation: Vec<Vec<u32>>,
    /// Every data message that crossed a channel: (sender, its
    /// incarnation, receiver, the incarnation addressed, sender clock).
    crossed: BTreeSet<(u32, u32, u32, u32, u64)>,
}

impl World {
    fn new(scripts: Vec<Vec<Op>>, batch_max: usize) -> Self {
        let n = scripts.len();
        World {
            engines: (0..n)
                .map(|r| {
                    let mut e = V2Engine::fresh(Rank(r as u32), n as u32);
                    e.set_batch_bound(batch_max);
                    e
                })
                .collect(),
            scripts,
            pc: vec![0; n],
            waiting: vec![false; n],
            sends_done: vec![0; n],
            received: vec![Vec::new(); n],
            flights: VecDeque::new(),
            el: vec![Vec::new(); n],
            snapshots: vec![None; n],
            batch_max,
            incarnation: vec![0; n],
            peer_incarnation: vec![vec![0; n]; n],
            crossed: BTreeSet::new(),
        }
    }

    fn n(&self) -> usize {
        self.scripts.len()
    }

    /// Route one engine's outputs into flights / the EL / the app.
    fn route_outputs(&mut self, r: usize) {
        for out in self.engines[r].drain_outputs() {
            match out {
                Output::Transmit { to, msg } => {
                    self.flights.push_back(Flight::Peer {
                        from: Rank(r as u32),
                        to,
                        msg,
                        incarnations: (self.incarnation[r], self.peer_incarnation[r][to.idx()]),
                    });
                }
                Output::LogEvents(EventBatch { owner, events }) => {
                    let store = &mut self.el[owner.idx()];
                    let mut up_to = 0;
                    for e in events {
                        if store
                            .last()
                            .map(|l| l.receiver_clock < e.receiver_clock)
                            .unwrap_or(true)
                        {
                            store.push(e);
                        }
                        up_to = store.last().map(|l| l.receiver_clock).unwrap_or(0);
                    }
                    self.flights.push_back(Flight::ElAck { to: owner, up_to });
                }
                Output::Deliver { from, payload } => {
                    assert!(self.waiting[r], "unsolicited delivery at rank {r}");
                    self.waiting[r] = false;
                    self.received[r].push((from.0, payload));
                    self.pc[r] += 1;
                }
                Output::ProbeAnswer(_) => unreachable!("no probes in these scripts"),
                Output::ElTruncate { up_to } => {
                    self.el[r].retain(|e| e.receiver_clock > up_to);
                }
                Output::ReplayComplete => {}
                Output::ReshipEvents { .. } => unreachable!("unreplicated event logger"),
            }
        }
    }

    /// Run every rank's program greedily until each is blocked on a recv
    /// or finished (app steps are deterministic; the nondeterminism under
    /// exploration is delivery order).
    fn run_apps(&mut self) {
        loop {
            let mut progressed = false;
            for r in 0..self.n() {
                if self.waiting[r] {
                    continue;
                }
                let Some(&op) = self.scripts[r].get(self.pc[r]) else {
                    continue;
                };
                match op {
                    Op::Send(dst) => {
                        let p = payload_for(r as u32, self.sends_done[r]);
                        self.sends_done[r] += 1;
                        self.pc[r] += 1;
                        self.engines[r]
                            .handle(Input::AppSend {
                                dst: Rank(dst),
                                payload: p,
                            })
                            .unwrap();
                    }
                    Op::Recv => {
                        self.waiting[r] = true;
                        self.engines[r].handle(Input::AppRecv).unwrap();
                    }
                }
                self.route_outputs(r);
                progressed = true;
            }
            if !progressed {
                return;
            }
        }
    }

    /// Deliver flight `i` (must respect per-channel FIFO: the caller only
    /// picks the *first* flight of each channel).
    fn deliver(&mut self, i: usize) {
        let f = self.flights.remove(i).expect("index valid");
        match f {
            Flight::Peer {
                from,
                to,
                msg,
                incarnations: (from_inc, to_inc),
            } => {
                match &msg {
                    PeerMsg::Data(d) => {
                        let key = (from.0, from_inc, to.0, to_inc, d.id.sender_clock);
                        assert!(
                            self.crossed.insert(key),
                            "data {key:?} (sender, inc, receiver, inc, clock) crossed its channel twice"
                        );
                    }
                    PeerMsg::Restart1 { .. } | PeerMsg::Restart2 { .. } => {
                        self.peer_incarnation[to.idx()][from.idx()] = from_inc;
                    }
                    PeerMsg::CkptNotify { .. } => {}
                }
                self.engines[to.idx()]
                    .handle(Input::Peer { from, msg })
                    .expect("no divergence");
                self.route_outputs(to.idx());
            }
            Flight::ElAck { to, up_to } => {
                self.engines[to.idx()]
                    .handle(Input::ElAck { up_to })
                    .unwrap();
                self.route_outputs(to.idx());
            }
        }
        self.run_apps();
    }

    /// The indices of flights that are deliverable next: the first flight
    /// of every distinct (kind, endpoint) channel.
    fn frontier(&self) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (i, f) in self.flights.iter().enumerate() {
            let key = match f {
                Flight::Peer { from, to, .. } => (0u8, from.0, to.0),
                Flight::ElAck { to, .. } => (1u8, 0, to.0),
            };
            if seen.insert(key) {
                out.push(i);
            }
        }
        out
    }

    fn done(&self) -> bool {
        (0..self.n()).all(|r| self.pc[r] >= self.scripts[r].len() && !self.waiting[r])
    }

    /// Crash every rank of `vs` at the same instant: drop its engine/app
    /// state and every flight touching it (channels emptied), restart
    /// (from snapshot if one was taken), download its EL events, and
    /// begin recovery. All restart before any runs, so their RESTART1
    /// messages cross.
    fn crash_and_restart(&mut self, vs: &[usize]) {
        for &v in vs {
            self.flights.retain(|f| match f {
                Flight::Peer { from, to, .. } => from.idx() != v && to.idx() != v,
                Flight::ElAck { to, .. } => to.idx() != v,
            });
            self.incarnation[v] += 1;
        }
        for &v in vs {
            self.restart(v);
        }
        for &v in vs {
            self.route_outputs(v);
        }
        self.run_apps();
    }

    /// Rebuild rank `v`'s engine and process from its image and begin
    /// its recovery; its RESTART1 messages wait in the engine's outputs.
    fn restart(&mut self, v: usize) {
        let (mut engine, pc, sends, received) = match self.snapshots[v].clone() {
            Some((snap, pc, sends, received)) => (V2Engine::restore(snap), pc, sends, received),
            None => (
                V2Engine::fresh(Rank(v as u32), self.n() as u32),
                0,
                0,
                Vec::new(),
            ),
        };
        engine.set_batch_bound(self.batch_max);
        let events: Vec<ReceptionEvent> = self.el[v]
            .iter()
            .copied()
            .filter(|e| e.receiver_clock > engine.clock())
            .collect();
        engine.begin_recovery(events);
        self.engines[v] = engine;
        self.pc[v] = pc;
        self.sends_done[v] = sends;
        self.received[v] = received;
        self.waiting[v] = false;
        self.peer_incarnation[v] = self.incarnation.clone();
    }

    /// The host ships rank `r`'s pending reception events now.
    fn host_flush(&mut self, r: usize) {
        self.engines[r].handle(Input::FlushEvents).unwrap();
        self.route_outputs(r);
        self.run_apps();
    }

    /// Take a checkpoint of rank `v` now, if the engine is quiescent.
    fn try_checkpoint(&mut self, v: usize) -> bool {
        self.engines[v].handle(Input::CheckpointOrder).unwrap();
        if self.engines[v].try_arm_checkpoint().is_none() {
            return false;
        }
        let snap = self.engines[v].snapshot();
        self.snapshots[v] = Some((
            snap,
            self.pc[v],
            self.sends_done[v],
            self.received[v].clone(),
        ));
        self.engines[v].handle(Input::CheckpointStored).unwrap();
        self.route_outputs(v);
        true
    }

    /// Drain all remaining work deterministically (FIFO deliveries).
    fn run_to_completion(&mut self, budget: &mut u64) {
        self.run_apps();
        while !self.done() {
            *budget -= 1;
            assert!(*budget > 0, "exploration wedged");
            assert!(
                !self.flights.is_empty(),
                "deadlock: nothing in flight but not done"
            );
            self.deliver(0);
        }
    }

    fn check_equivalence(&self, expected: &[Vec<Vec<Payload>>]) {
        for (r, got) in self.received.iter().enumerate() {
            let mut per_src: Vec<Vec<Payload>> = vec![Vec::new(); self.n()];
            for (from, p) in got {
                per_src[*from as usize].push(p.clone());
            }
            for s in 0..self.n() {
                assert_eq!(
                    per_src[s], expected[r][s],
                    "rank {r}: messages from {s} diverge from the fault-free run"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

struct Explorer {
    expected: Vec<Vec<Vec<Payload>>>,
    states_visited: u64,
    crash_runs: u64,
    max_states: u64,
    /// Also branch on "the host flushes rank r now" wherever rank r has
    /// unshipped events.
    host_flushes: bool,
    flush_branches: u64,
}

impl Explorer {
    fn explore(&mut self, w: World, crashes_left: u32, ckpts_left: u32) {
        self.states_visited += 1;
        assert!(
            self.states_visited < self.max_states,
            "state space larger than expected ({} states)",
            self.states_visited
        );

        // Branch: crash any rank here, then run deterministically.
        if crashes_left > 0 {
            for v in 0..w.n() {
                let mut fw = w.clone();
                fw.crash_and_restart(&[v]);
                let mut budget = 100_000u64;
                fw.run_to_completion(&mut budget);
                fw.check_equivalence(&self.expected);
                self.crash_runs += 1;

                // And crash once more during/after the first recovery,
                // deterministically (second-order faults).
                if crashes_left > 1 {
                    for v2 in 0..w.n() {
                        let mut fw2 = w.clone();
                        fw2.crash_and_restart(&[v]);
                        fw2.crash_and_restart(&[v2]);
                        let mut budget = 100_000u64;
                        fw2.run_to_completion(&mut budget);
                        fw2.check_equivalence(&self.expected);
                        self.crash_runs += 1;

                        // And both at once: the two recoveries
                        // handshake with each other.
                        if v2 > v {
                            let mut fw3 = w.clone();
                            fw3.crash_and_restart(&[v, v2]);
                            let mut budget = 100_000u64;
                            fw3.run_to_completion(&mut budget);
                            fw3.check_equivalence(&self.expected);
                            self.crash_runs += 1;
                        }
                    }
                }
            }
        }

        // Branch: checkpoint any rank here (changes later recoveries).
        if ckpts_left > 0 && crashes_left > 0 {
            for v in 0..w.n() {
                let mut cw = w.clone();
                if cw.try_checkpoint(v) {
                    self.explore(cw, crashes_left, ckpts_left - 1);
                }
            }
        }

        // Branch: the host ships any rank's pending events here. (The
        // branch that does not is every other branch of this state.)
        if self.host_flushes {
            for r in 0..w.n() {
                if w.engines[r].pending_event_count() > 0 {
                    let mut fw = w.clone();
                    fw.host_flush(r);
                    self.flush_branches += 1;
                    self.explore(fw, crashes_left, ckpts_left);
                }
            }
        }

        if w.done() {
            w.check_equivalence(&self.expected);
            return;
        }
        let frontier = w.frontier();
        assert!(
            !frontier.is_empty(),
            "deadlock: not done and nothing deliverable"
        );
        for i in frontier {
            let mut next = w.clone();
            next.deliver(i);
            self.explore(next, crashes_left, ckpts_left);
        }
    }
}

fn run_exploration(scripts: Vec<Vec<Op>>, crashes: u32, ckpts: u32, max_states: u64) -> (u64, u64) {
    // A batch bound of 1 maximizes in-flight EL traffic (one LogEvents/ElAck
    // pair per delivery) and hence the interleaving space explored.
    run_exploration_with(scripts, 1, crashes, ckpts, max_states)
}

fn run_exploration_with(
    scripts: Vec<Vec<Op>>,
    batch_max: usize,
    crashes: u32,
    ckpts: u32,
    max_states: u64,
) -> (u64, u64) {
    let ex = explore_from_start(scripts, batch_max, crashes, ckpts, max_states, false);
    (ex.states_visited, ex.crash_runs)
}

fn explore_from_start(
    scripts: Vec<Vec<Op>>,
    batch_max: usize,
    crashes: u32,
    ckpts: u32,
    max_states: u64,
    host_flushes: bool,
) -> Explorer {
    let expected = expected_per_source(&scripts);
    let mut world = World::new(scripts, batch_max);
    world.run_apps();
    let mut ex = Explorer {
        expected,
        states_visited: 0,
        crash_runs: 0,
        max_states,
        host_flushes,
        flush_branches: 0,
    };
    ex.explore(world, crashes, ckpts);
    ex
}

// ---------------------------------------------------------------------
// The test matrix
// ---------------------------------------------------------------------

#[test]
fn exhaustive_pingpong_with_crashes_everywhere() {
    // A: send, recv, send; B: recv, send, recv — every interleaving of
    // deliveries and acks, with a crash of either rank at every state.
    let scripts = vec![
        vec![Op::Send(1), Op::Recv, Op::Send(1)],
        vec![Op::Recv, Op::Send(0), Op::Recv],
    ];
    let (states, crash_runs) = run_exploration(scripts, 1, 0, 2_000_000);
    assert!(states >= 5, "exploration trivially small ({states})");
    assert!(crash_runs >= 10, "too few crash branches ({crash_runs})");
}

#[test]
fn exhaustive_pingpong_with_double_crashes() {
    let scripts = vec![vec![Op::Send(1), Op::Recv], vec![Op::Recv, Op::Send(0)]];
    let (_states, crash_runs) = run_exploration(scripts, 2, 0, 2_000_000);
    assert!(
        crash_runs >= 20,
        "double-crash coverage too small ({crash_runs})"
    );
}

#[test]
fn exhaustive_with_checkpoints_at_every_state() {
    let scripts = vec![
        vec![Op::Send(1), Op::Recv, Op::Send(1)],
        vec![Op::Recv, Op::Send(0), Op::Recv],
    ];
    let (states, crash_runs) = run_exploration(scripts, 1, 1, 4_000_000);
    assert!(states >= 10, "{states}");
    assert!(crash_runs >= 20, "{crash_runs}");
}

#[test]
fn exhaustive_three_ranks_fanin() {
    // Two senders racing into one receiver (nondeterministic reception
    // order), crashes everywhere.
    let scripts = vec![
        vec![Op::Send(2), Op::Send(2)],
        vec![Op::Send(2), Op::Send(2)],
        vec![
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Send(0),
            Op::Send(1),
        ],
    ];
    let mut scripts = scripts;
    scripts[0].push(Op::Recv);
    scripts[1].push(Op::Recv);
    let (states, crash_runs) = run_exploration(scripts, 1, 0, 8_000_000);
    assert!(states > 100);
    assert!(crash_runs > 100);
}

#[test]
fn exhaustive_lazy_batching_pingpong_with_crashes() {
    // Same matrix as the eager ping-pong, under a batch bound small
    // enough to exercise both the threshold flush and the gated-send
    // flush. Correctness (delivery equivalence across all crash branches)
    // must be identical; only the state count shrinks — batching removes
    // per-delivery EL round-trips, which is the point.
    let scripts = vec![
        vec![Op::Send(1), Op::Recv, Op::Send(1)],
        vec![Op::Recv, Op::Send(0), Op::Recv],
    ];
    let (states, crash_runs) = run_exploration_with(scripts, 2, 1, 0, 2_000_000);
    assert!(states >= 5, "exploration trivially small ({states})");
    assert!(crash_runs >= 10, "too few crash branches ({crash_runs})");
}

#[test]
fn exhaustive_lazy_batching_fanin_with_crashes() {
    // Fan-in under an effectively unbounded batch: events only flush when
    // the receiver's own sends queue behind the gate. Crashes at every
    // state verify that losing a pending (unflushed) batch never loses a
    // delivery another rank depends on.
    let scripts = vec![
        vec![Op::Send(2), Op::Send(2), Op::Recv],
        vec![Op::Send(2), Op::Send(2), Op::Recv],
        vec![
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Send(0),
            Op::Send(1),
        ],
    ];
    let (states, crash_runs) = run_exploration_with(scripts, 64, 1, 0, 8_000_000);
    assert!(states >= 20, "{states}");
    assert!(crash_runs >= 50, "{crash_runs}");
}

/// A batch bound no script reaches: the engine itself ships only when a
/// send gates, so every other ship is the host's choice.
const HOST_PACED: usize = 64;

#[test]
fn exhaustive_host_flush_freedom_pingpong_with_crashes() {
    // The runtime ships pending events when a driver is about to leave
    // the node idle — a point the protocol does not define. Explore it
    // as an action: at every state, for every rank with unshipped
    // events, the host may flush now or leave it (until a later state,
    // or until a send gates). Every schedule, with a crash of either
    // rank at every state, must equal the fault-free run.
    //
    // Volleys of two, so a receiver sits between receptions with an
    // unshipped event and no send of its own to force the flush.
    let scripts = vec![
        vec![Op::Send(1), Op::Send(1), Op::Recv, Op::Recv, Op::Send(1)],
        vec![Op::Recv, Op::Recv, Op::Send(0), Op::Send(0), Op::Recv],
    ];
    let ex = explore_from_start(scripts, HOST_PACED, 1, 0, 2_000_000, true);
    assert!(
        ex.flush_branches >= 10,
        "{} flush branches",
        ex.flush_branches
    );
    assert!(ex.crash_runs >= 100, "{} crash runs", ex.crash_runs);
}

#[test]
fn exhaustive_host_flush_freedom_fanin_with_crashes() {
    // Fan-in: the receiver accumulates up to four unshipped events
    // before its own sends gate, so the host's flush can split them into
    // any sequence of batches, interleaved with the racing deliveries.
    let scripts = vec![
        vec![Op::Send(2), Op::Send(2), Op::Recv],
        vec![Op::Send(2), Op::Send(2), Op::Recv],
        vec![
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Recv,
            Op::Send(0),
            Op::Send(1),
        ],
    ];
    let ex = explore_from_start(scripts, HOST_PACED, 1, 0, 8_000_000, true);
    assert!(
        ex.flush_branches >= 1_000,
        "{} flush branches",
        ex.flush_branches
    );
    assert!(ex.crash_runs >= 10_000, "{} crash runs", ex.crash_runs);
}

#[test]
fn exhaustive_relay_chain() {
    // A -> B -> C relay: B's emission causally depends on its reception —
    // the pessimism gate's canonical scenario.
    let scripts = vec![
        vec![Op::Send(1)],
        vec![Op::Recv, Op::Send(2)],
        vec![Op::Recv, Op::Send(0)],
    ];
    let mut scripts = scripts;
    scripts[0].push(Op::Recv);
    let (states, crash_runs) = run_exploration(scripts, 2, 0, 8_000_000);
    assert!(states >= 5, "{states}");
    assert!(crash_runs >= 30, "{crash_runs}");
}
