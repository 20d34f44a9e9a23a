//! End-to-end protocol scenarios: several `V2Engine`s wired together with
//! an in-test event logger and crash-lossy links, driven by deterministic
//! application scripts. Verifies the headline property of the paper: after
//! any number of fail-stop crashes (with or without checkpoints), the
//! execution is equivalent to a fault-free one — every planned message is
//! delivered exactly once, with the right content.

use mvr_core::engine::{Input, Output};
use mvr_core::{EngineSnapshot, EventBatch, Payload, PeerMsg, Rank, ReceptionEvent, V2Engine};
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------
// Test doubles
// ---------------------------------------------------------------------

/// Reliable in-test event logger: stores per-rank events, acks after a
/// configurable delay (in driver steps) to exercise the pessimism gate.
#[derive(Default)]
struct TestEl {
    events: BTreeMap<Rank, Vec<ReceptionEvent>>,
    /// Acks in flight: (deliver_at_step, rank, up_to).
    pending_acks: VecDeque<(u64, Rank, u64)>,
    ack_delay: u64,
}

impl TestEl {
    fn log(&mut self, now: u64, batch: EventBatch) {
        let v = self.events.entry(batch.owner).or_default();
        let up_to = batch.events.last().map(|e| e.receiver_clock).unwrap_or(0);
        for e in batch.events {
            if v.last()
                .map(|l| l.receiver_clock < e.receiver_clock)
                .unwrap_or(true)
            {
                v.push(e);
            }
        }
        self.pending_acks
            .push_back((now + self.ack_delay, batch.owner, up_to));
    }

    fn due_acks(&mut self, now: u64) -> Vec<(Rank, u64)> {
        let mut out = Vec::new();
        while let Some(&(at, r, up_to)) = self.pending_acks.front() {
            if at <= now {
                self.pending_acks.pop_front();
                out.push((r, up_to));
            } else {
                break;
            }
        }
        out
    }

    fn download(&self, rank: Rank, after: u64) -> Vec<ReceptionEvent> {
        self.events
            .get(&rank)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|e| e.receiver_clock > after)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn drop_acks_for(&mut self, rank: Rank) {
        self.pending_acks.retain(|&(_, r, _)| r != rank);
    }
}

/// Deterministic app payload: a function of (sender, per-sender index).
fn payload_for(sender: u32, index: u32) -> Payload {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&sender.to_le_bytes());
    v.extend_from_slice(&index.to_le_bytes());
    v.extend_from_slice(&(sender.wrapping_mul(2654435761) ^ index).to_le_bytes());
    Payload::from_vec(v)
}

/// One application operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Send(u32),
    Recv,
    Probe,
}

/// The (checkpointable) application state: program counter, per-sender
/// send index, and everything received so far.
#[derive(Clone, Debug, Default)]
struct AppState {
    pc: usize,
    sends_done: u32,
    received: Vec<(u32, Payload)>,
}

struct Node {
    engine: V2Engine,
    state: AppState,
    waiting_recv: bool,
    waiting_probe: bool,
    alive: bool,
    snapshot: Option<(EngineSnapshot, AppState)>,
    ckpt_wanted: bool,
}

struct World {
    scripts: Vec<Vec<Op>>,
    nodes: Vec<Node>,
    el: TestEl,
    /// FIFO links: links[src][dst] = in-flight messages.
    links: Vec<Vec<VecDeque<PeerMsg>>>,
    step_no: u64,
}

impl World {
    fn new(scripts: Vec<Vec<Op>>, ack_delay: u64) -> Self {
        let n = scripts.len();
        let nodes = (0..n)
            .map(|r| Node {
                engine: V2Engine::fresh(Rank(r as u32), n as u32),
                state: AppState::default(),
                waiting_recv: false,
                waiting_probe: false,
                alive: true,
                snapshot: None,
                ckpt_wanted: false,
            })
            .collect();
        World {
            scripts,
            nodes,
            el: TestEl {
                ack_delay,
                ..Default::default()
            },
            links: vec![vec![VecDeque::new(); n]; n],
            step_no: 0,
        }
    }

    fn n(&self) -> usize {
        self.scripts.len()
    }

    fn done(&self) -> bool {
        (0..self.n()).all(|r| {
            let node = &self.nodes[r];
            node.alive && node.state.pc >= self.scripts[r].len() && !node.waiting_recv
        })
    }

    /// Process every output of node `r`'s engine.
    fn drain(&mut self, r: usize) {
        let outs = self.nodes[r].engine.drain_outputs();
        for o in outs {
            match o {
                Output::Transmit { to, msg } => {
                    self.links[r][to.idx()].push_back(msg);
                }
                Output::LogEvents(batch) => {
                    self.el.log(self.step_no, batch);
                }
                Output::Deliver { from, payload } => {
                    let node = &mut self.nodes[r];
                    assert!(node.waiting_recv, "unsolicited delivery");
                    node.waiting_recv = false;
                    node.state.received.push((from.0, payload));
                    node.state.pc += 1;
                }
                Output::ProbeAnswer(_) => {
                    let node = &mut self.nodes[r];
                    assert!(node.waiting_probe);
                    node.waiting_probe = false;
                    node.state.pc += 1;
                }
                Output::ElTruncate { .. } | Output::ReplayComplete => {}
                Output::ReshipEvents { .. } => unreachable!("unreplicated event logger"),
            }
        }
    }

    /// Advance the app of node `r` by one operation if it is runnable.
    fn step_app(&mut self, r: usize) {
        let node = &mut self.nodes[r];
        if !node.alive || node.waiting_recv || node.waiting_probe {
            return;
        }
        let Some(&op) = self.scripts[r].get(node.state.pc) else {
            return;
        };
        match op {
            Op::Send(dst) => {
                let p = payload_for(r as u32, node.state.sends_done);
                node.state.sends_done += 1;
                node.state.pc += 1;
                node.engine
                    .handle(Input::AppSend {
                        dst: Rank(dst),
                        payload: p,
                    })
                    .unwrap();
            }
            Op::Recv => {
                node.waiting_recv = true;
                node.engine.handle(Input::AppRecv).unwrap();
            }
            Op::Probe => {
                node.waiting_probe = true;
                node.engine.handle(Input::AppProbe).unwrap();
            }
        }
        self.drain(r);
    }

    /// Deliver at most one in-flight message per link pair.
    fn step_network(&mut self) {
        for src in 0..self.n() {
            for dst in 0..self.n() {
                if src == dst || !self.nodes[dst].alive {
                    continue;
                }
                if let Some(msg) = self.links[src][dst].pop_front() {
                    self.nodes[dst]
                        .engine
                        .handle(Input::Peer {
                            from: Rank(src as u32),
                            msg,
                        })
                        .expect("replay divergence");
                    self.drain(dst);
                }
            }
        }
    }

    fn step_el(&mut self) {
        for (rank, up_to) in self.el.due_acks(self.step_no) {
            let r = rank.idx();
            if self.nodes[r].alive {
                self.nodes[r].engine.handle(Input::ElAck { up_to }).unwrap();
                self.drain(r);
            }
        }
    }

    fn step(&mut self) {
        self.step_no += 1;
        self.step_el();
        for r in 0..self.n() {
            if self.nodes[r].ckpt_wanted && self.nodes[r].alive {
                self.nodes[r].ckpt_wanted = false;
                self.nodes[r].engine.handle(Input::CheckpointOrder).unwrap();
                self.drain(r);
            }
            // Checkpoint sites: between app steps, poll for an armed
            // checkpoint (the cooperative-checkpointing quiescent point).
            if self.nodes[r].alive && self.nodes[r].engine.try_arm_checkpoint().is_some() {
                let node = &mut self.nodes[r];
                node.snapshot = Some((node.engine.snapshot(), node.state.clone()));
                node.engine
                    .handle(Input::CheckpointStored)
                    .expect("ckpt stored");
                self.drain(r);
            }
            self.step_app(r);
        }
        self.step_network();
    }

    fn crash(&mut self, r: usize) {
        assert!(self.nodes[r].alive);
        self.nodes[r].alive = false;
        // A crash empties every channel touching the node and loses acks.
        for x in 0..self.n() {
            self.links[r][x].clear();
            self.links[x][r].clear();
        }
        self.el.drop_acks_for(Rank(r as u32));
    }

    fn restart(&mut self, r: usize) {
        assert!(!self.nodes[r].alive);
        let (mut engine, state) = match self.nodes[r].snapshot.clone() {
            Some((snap, app)) => (V2Engine::restore(snap), app),
            None => (
                V2Engine::fresh(Rank(r as u32), self.n() as u32),
                AppState::default(),
            ),
        };
        let events = self.el.download(Rank(r as u32), engine.clock());
        engine.begin_recovery(events);
        let node = &mut self.nodes[r];
        node.engine = engine;
        node.state = state;
        node.waiting_recv = false;
        node.waiting_probe = false;
        node.alive = true;
        self.drain(r);
    }

    fn run(&mut self, max_steps: u64) {
        let mut steps = 0;
        while !self.done() {
            self.step();
            steps += 1;
            assert!(steps < max_steps, "world wedged after {steps} steps");
        }
    }

    /// Run with a crash/restart/checkpoint schedule: (at_step, action).
    fn run_with_schedule(&mut self, mut schedule: Vec<(u64, Action)>, max_steps: u64) {
        schedule.sort_by_key(|&(s, _)| s);
        let mut schedule: VecDeque<_> = schedule.into();
        let mut steps = 0u64;
        while !self.done() {
            while let Some(&(at, action)) = schedule.front() {
                if at > self.step_no {
                    break;
                }
                schedule.pop_front();
                match action {
                    Action::Crash(r) => {
                        if self.nodes[r].alive {
                            self.crash(r);
                        }
                    }
                    Action::Restart(r) => {
                        if !self.nodes[r].alive {
                            self.restart(r);
                        }
                    }
                    Action::Checkpoint(r) => {
                        self.nodes[r].ckpt_wanted = true;
                    }
                }
            }
            // Safety: if a node is dead and nothing will restart it, fail.
            self.step();
            steps += 1;
            assert!(steps < max_steps, "world wedged after {steps} steps");
        }
    }

    /// Keep stepping after completion so in-flight control traffic
    /// (EL acks, checkpoint notifications) settles.
    fn cooldown(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    fn received(&self, r: usize) -> &[(u32, Payload)] {
        &self.nodes[r].state.received
    }
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Crash(usize),
    Restart(usize),
    Checkpoint(usize),
}

/// Expected multiset of receptions per rank for a script set: every send
/// must be delivered exactly once with deterministic content.
fn expected_receptions(scripts: &[Vec<Op>]) -> Vec<Vec<(u32, Payload)>> {
    let n = scripts.len();
    let mut out = vec![Vec::new(); n];
    for (src, script) in scripts.iter().enumerate() {
        let mut idx = 0u32;
        for op in script {
            if let Op::Send(dst) = op {
                out[*dst as usize].push((src as u32, payload_for(src as u32, idx)));
                idx += 1;
            }
        }
    }
    for v in &mut out {
        v.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
    }
    out
}

fn check_equivalence(world: &World) {
    let expected = expected_receptions(&world.scripts);
    for (r, want) in expected.iter().enumerate().take(world.n()) {
        let mut got: Vec<(u32, Payload)> = world.received(r).to_vec();
        got.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
        assert_eq!(
            got.len(),
            want.len(),
            "rank {r}: delivered {} messages, expected {}",
            got.len(),
            want.len()
        );
        assert_eq!(
            &got, want,
            "rank {r}: delivered set diverges from fault-free run"
        );
    }
}

/// Token-ring scripts: rank 0 sends then receives; others receive then
/// send — exercises recv-before-send (gate-closed transmissions).
fn ring_scripts(n: usize, rounds: usize) -> Vec<Vec<Op>> {
    (0..n)
        .map(|r| {
            let mut ops = Vec::new();
            for _ in 0..rounds {
                if r == 0 {
                    ops.push(Op::Send(1 % n as u32));
                    ops.push(Op::Recv);
                } else {
                    ops.push(Op::Recv);
                    ops.push(Op::Send(((r + 1) % n) as u32));
                }
            }
            ops
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

#[test]
fn fault_free_ring_completes() {
    let scripts = ring_scripts(4, 5);
    let mut w = World::new(scripts, 2);
    w.run(100_000);
    check_equivalence(&w);
}

#[test]
fn fault_free_with_probes() {
    let n = 3;
    let scripts = vec![
        vec![Op::Send(1), Op::Probe, Op::Recv],
        vec![Op::Probe, Op::Recv, Op::Send(2), Op::Send(0)],
        vec![Op::Recv, Op::Probe, Op::Probe],
    ];
    assert_eq!(scripts.len(), n);
    let mut w = World::new(scripts, 1);
    w.run(100_000);
    check_equivalence(&w);
}

#[test]
fn single_crash_no_checkpoint_restarts_from_scratch() {
    let scripts = ring_scripts(4, 6);
    let mut w = World::new(scripts, 2);
    w.run_with_schedule(
        vec![(40, Action::Crash(2)), (45, Action::Restart(2))],
        200_000,
    );
    check_equivalence(&w);
}

#[test]
fn single_crash_with_checkpoint_resumes_midway() {
    let scripts = ring_scripts(4, 8);
    let mut w = World::new(scripts, 2);
    w.run_with_schedule(
        vec![
            (20, Action::Checkpoint(1)),
            (60, Action::Crash(1)),
            (65, Action::Restart(1)),
        ],
        200_000,
    );
    check_equivalence(&w);
    assert!(w.nodes[1].engine.metrics().checkpoints_taken >= 1 || w.nodes[1].snapshot.is_some());
}

#[test]
fn two_concurrent_crashes_recover() {
    let scripts = ring_scripts(5, 6);
    let mut w = World::new(scripts, 2);
    w.run_with_schedule(
        vec![
            (30, Action::Crash(1)),
            (30, Action::Crash(3)),
            (38, Action::Restart(1)),
            (44, Action::Restart(3)),
        ],
        300_000,
    );
    check_equivalence(&w);
}

#[test]
fn all_nodes_crash_and_recover() {
    // n concurrent faults of n processes — the headline tolerance claim.
    let scripts = ring_scripts(4, 5);
    let mut w = World::new(scripts, 2);
    w.run_with_schedule(
        vec![
            (25, Action::Crash(0)),
            (25, Action::Crash(1)),
            (25, Action::Crash(2)),
            (25, Action::Crash(3)),
            (30, Action::Restart(0)),
            (32, Action::Restart(1)),
            (34, Action::Restart(2)),
            (36, Action::Restart(3)),
        ],
        400_000,
    );
    check_equivalence(&w);
}

#[test]
fn repeated_crashes_of_same_node() {
    let scripts = ring_scripts(3, 8);
    let mut w = World::new(scripts, 2);
    w.run_with_schedule(
        vec![
            (15, Action::Checkpoint(1)),
            (30, Action::Crash(1)),
            (33, Action::Restart(1)),
            (50, Action::Crash(1)),
            (53, Action::Restart(1)),
            (70, Action::Crash(1)),
            (75, Action::Restart(1)),
        ],
        400_000,
    );
    check_equivalence(&w);
}

#[test]
fn crash_during_anothers_recovery() {
    let scripts = ring_scripts(4, 8);
    let mut w = World::new(scripts, 3);
    w.run_with_schedule(
        vec![
            (30, Action::Crash(1)),
            (32, Action::Restart(1)),
            // Crash the upstream neighbour while rank 1 is replaying.
            (33, Action::Crash(0)),
            (40, Action::Restart(0)),
        ],
        400_000,
    );
    check_equivalence(&w);
}

#[test]
fn checkpoints_garbage_collect_sender_logs() {
    let scripts = ring_scripts(3, 10);
    let mut w = World::new(scripts, 1);
    w.run_with_schedule(
        vec![
            (20, Action::Checkpoint(0)),
            (20, Action::Checkpoint(1)),
            (20, Action::Checkpoint(2)),
        ],
        200_000,
    );
    w.cooldown(50);
    check_equivalence(&w);
    let freed: u64 = (0..3)
        .map(|r| w.nodes[r].engine.metrics().gc_bytes_freed)
        .sum();
    assert!(
        freed > 0,
        "checkpoint notifications should have freed sender-log bytes"
    );
}

#[test]
fn crash_after_checkpoint_replays_only_tail() {
    let scripts = ring_scripts(3, 10);
    let mut w = World::new(scripts, 1);
    w.run_with_schedule(
        vec![
            (30, Action::Checkpoint(2)),
            (70, Action::Crash(2)),
            (74, Action::Restart(2)),
        ],
        300_000,
    );
    check_equivalence(&w);
    let m = w.nodes[2].engine.metrics();
    // With a checkpoint, the replay covers only post-checkpoint receptions.
    assert!(
        m.replayed_deliveries < 10,
        "replayed {} receptions; checkpoint should have truncated history",
        m.replayed_deliveries
    );
}

#[test]
fn randomized_crash_schedules_many_seeds() {
    // A light-weight randomized sweep (full property tests live in the
    // runtime crate): vary crash times and victims across seeds.
    for seed in 0..25u64 {
        let n = 3 + (seed % 3) as usize; // 3..=5 ranks
        let scripts = ring_scripts(n, 6);
        let victim = (seed % n as u64) as usize;
        let t = 10 + (seed * 7) % 60;
        let mut w = World::new(scripts, 1 + seed % 3);
        let mut schedule = vec![(t, Action::Crash(victim)), (t + 5, Action::Restart(victim))];
        if seed % 2 == 0 {
            schedule.push((t / 2, Action::Checkpoint(victim)));
        }
        if seed % 5 == 1 {
            let second = (victim + 1) % n;
            schedule.push((t + 2, Action::Crash(second)));
            schedule.push((t + 9, Action::Restart(second)));
        }
        let mut w2 = std::mem::replace(&mut w, World::new(vec![], 0));
        w2.run_with_schedule(schedule, 500_000);
        check_equivalence(&w2);
    }
}
