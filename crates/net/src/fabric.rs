//! The fabric: a registry of node mailboxes with fail-stop kill semantics.
//!
//! The fabric plays the role of the TCP mesh of an MPICH-V2 deployment.
//! Guarantees, chosen to match exactly what the protocol assumes (§4.1):
//!
//! * **Reliable FIFO while both ends live** — a message accepted by
//!   [`Identity::send`] is delivered unless the destination crashes first,
//!   and two messages from the same sender arrive in emission order.
//! * **Atomic messages** — a message is received completely or not at all.
//! * **Crash empties channels** — [`Fabric::kill`] closes the node's
//!   mailbox *and discards everything queued in it*; in-flight sends to it
//!   fail from that point on.
//! * **Disconnection is a trusty fault detector** — senders get
//!   [`SendError::Disconnected`] for dead/unregistered peers, and a killed
//!   incarnation's own sends fail with [`SendError::SenderDead`] so zombie
//!   threads stop, enforcing fail-stop.
//!
//! Each (node, incarnation) is identified by an [`Identity`] token handed
//! out at registration; a restarted node registers again and gets a new
//! generation, so stale incarnations cannot speak for the new one.
//!
//! ## Hot path (since the SPSC-ring rework)
//!
//! The registry `RwLock` is off the per-message path. A sender resolves
//! `(dst, generation)` once, caches a lock-free SPSC lane into the
//! receiver's mailbox, and every subsequent send is: one atomic
//! fail-stop check, one killed-receiver check, a wait-free ring write,
//! and a depth-counter bump. The cache is validated per send against the
//! receiver's killed flag, so a reincarnated destination forces one
//! re-resolve and a fresh lane (rings are generation-bound — a stale
//! lane can never feed a newer incarnation's mailbox).
//!
//! Fail-stop is enforced without the registry lock by a per-incarnation
//! `SendGuard`: senders wrap every lane push in an `in_flight` window
//! and re-check `alive` inside it; `kill` flips `alive` and then spins
//! until `in_flight` drains (all four accesses SeqCst — the classic
//! store-buffer handshake). So once `kill` returns, every send of the
//! killed incarnation has either fully landed (it was accepted before
//! the crash) or will fail `SenderDead` — no zombie delivery after the
//! kill, exactly as the registry-lock version guaranteed.
//!
//! ## Nodes that live elsewhere
//!
//! A node hosted by another OS process is registered with
//! [`Fabric::register_sink`]: it has no mailbox, and a send to it runs
//! the sink on the sending thread — which is how a daemon writes its own
//! socket instead of queueing for a relay. A sink is a wire, not a
//! mailbox: the send succeeds once the message is handed over, and what
//! happens to it afterwards is in-flight loss or delivery, as on any
//! asynchronous channel.

use crate::chaos::{Turbulence, TurbulenceConfig};
use crate::error::{RecvError, SendError};
use crate::mailbox::{Lane, MailCore, Mailbox};
use crate::ring::DEFAULT_RING_CAPACITY;
use mvr_core::NodeId;
use parking_lot::RwLock;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-incarnation fail-stop fence shared between the registry slot and
/// the incarnation's [`Identity`].
pub(crate) struct SendGuard {
    alive: AtomicBool,
    in_flight: AtomicUsize,
}

impl SendGuard {
    fn new() -> Arc<Self> {
        Arc::new(SendGuard {
            alive: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// Fence this incarnation and wait for in-flight pushes to land.
    fn kill_and_quiesce(&self) {
        self.alive.store(false, Ordering::SeqCst);
        let mut spins = 0u32;
        while self.in_flight.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What a send to a node that lives elsewhere runs (see module docs).
type Sink<M> = Arc<dyn Fn(M) + Send + Sync>;

/// One cached route, type-erased.
enum Route {
    /// A `Lane<M>` bound to the destination incarnation that was live
    /// at resolve time.
    Lane(Box<dyn Any + Send>),
    /// The `Sink<M>` of a node that lives elsewhere.
    Sink(Box<dyn Any + Send>),
}

fn wrong_type(to: NodeId) -> ! {
    panic!("node {to} registered with a different message type")
}

/// Cached view of the installed turbulence layer, refreshed by epoch.
struct TurbCache {
    epoch: u64,
    layer: Option<Arc<Turbulence>>,
}

/// The sending credential of one node incarnation.
///
/// Cloning yields an independent handle with an empty route cache: each
/// handle owns its SPSC lanes (single-producer contract), so per-sender
/// FIFO is guaranteed per handle — which matches the paper's model of
/// one channel per daemon socket.
pub struct Identity {
    /// The node this incarnation embodies.
    pub node: NodeId,
    generation: u64,
    fabric: Fabric,
    guard: Arc<SendGuard>,
    routes: RefCell<HashMap<NodeId, Route>>,
    turb: RefCell<TurbCache>,
}

impl Clone for Identity {
    fn clone(&self) -> Self {
        Identity {
            node: self.node,
            generation: self.generation,
            fabric: self.fabric.clone(),
            guard: self.guard.clone(),
            // Fresh caches: lanes are single-producer and must not be
            // shared across handles.
            routes: RefCell::new(HashMap::new()),
            turb: RefCell::new(TurbCache {
                epoch: u64::MAX,
                layer: None,
            }),
        }
    }
}

impl std::fmt::Debug for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Identity({} gen {})", self.node, self.generation)
    }
}

impl Identity {
    /// Send `msg` to `to`'s current incarnation.
    pub fn send<M: Send + 'static>(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.fabric.send_checked(self, to, msg).map_err(|(e, _m)| e)
    }

    /// Like [`send`](Self::send), but hands the message back on failure
    /// so retry loops need no per-attempt clone.
    pub fn send_reclaim<M: Send + 'static>(
        &self,
        to: NodeId,
        msg: M,
    ) -> Result<(), (SendError, M)> {
        self.fabric.send_checked(self, to, msg)
    }

    /// Whether this incarnation is still the live one. Lock-free.
    pub fn is_live(&self) -> bool {
        self.guard.alive.load(Ordering::SeqCst)
    }
}

struct Slot {
    generation: u64,
    alive: bool,
    /// `Arc<MailCore<M>>` — or the `Sink<M>` of a node that lives
    /// elsewhere — behind `dyn Any`.
    core: Box<dyn Any + Send + Sync>,
    /// Type-erased kill hook (closes + empties the mailbox).
    kill: Box<dyn Fn() + Send + Sync>,
    /// Fail-stop fence of this incarnation's *outbound* traffic.
    guard: Arc<SendGuard>,
}

#[derive(Default)]
struct Registry {
    slots: HashMap<NodeId, Slot>,
    next_generation: u64,
}

/// The shared fabric handle (cheaply cloneable).
#[derive(Clone)]
pub struct Fabric {
    reg: Arc<RwLock<Registry>>,
    /// The installed chaos layer, if any (see [`crate::chaos`]).
    turb: Arc<RwLock<Option<Arc<Turbulence>>>>,
    /// Bumped on every install/clear so senders can cache the layer.
    turb_epoch: Arc<AtomicU64>,
    /// Fast-path capacity of newly created SPSC lanes.
    ring_capacity: Arc<AtomicUsize>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// A new, empty fabric.
    pub fn new() -> Self {
        Fabric {
            reg: Arc::new(RwLock::new(Registry::default())),
            turb: Arc::new(RwLock::new(None)),
            turb_epoch: Arc::new(AtomicU64::new(0)),
            ring_capacity: Arc::new(AtomicUsize::new(DEFAULT_RING_CAPACITY)),
        }
    }

    /// Set the fast-path capacity of SPSC lanes created from now on
    /// (rounded up to a power of two). Tiny capacities force the spill
    /// lane constantly — used by the chaos suite to storm backpressure.
    pub fn set_ring_capacity(&self, capacity: usize) {
        self.ring_capacity.store(capacity.max(2), Ordering::SeqCst);
    }

    /// Install a seeded chaos layer on the send/deliver path. Replaces any
    /// previously installed one (counters restart from zero).
    pub fn install_turbulence(&self, cfg: TurbulenceConfig) {
        *self.turb.write() = Some(Arc::new(Turbulence::new(cfg)));
        self.turb_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Remove the chaos layer.
    pub fn clear_turbulence(&self) {
        *self.turb.write() = None;
        self.turb_epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn turbulence(&self) -> Option<Arc<Turbulence>> {
        self.turb.read().clone()
    }

    /// The turbulence layer as seen through `id`'s epoch cache: one
    /// atomic load per send while the layer is unchanged.
    fn turbulence_cached(&self, id: &Identity) -> Option<Arc<Turbulence>> {
        let epoch = self.turb_epoch.load(Ordering::SeqCst);
        let mut cache = id.turb.borrow_mut();
        if cache.epoch != epoch {
            cache.layer = self.turbulence();
            cache.epoch = epoch;
        }
        cache.layer.clone()
    }

    /// Register (or re-register after a crash) `node` with inbound message
    /// type `M`. Returns the mailbox and the incarnation's identity.
    ///
    /// Panics if the node is currently registered and alive — a node must
    /// be [`kill`](Self::kill)ed before being reincarnated.
    pub fn register<M: Send + 'static>(&self, node: NodeId) -> (Mailbox<M>, Identity) {
        let core = MailCore::<M>::new(self.ring_capacity.load(Ordering::SeqCst));
        let mailbox = Mailbox::new(core.clone());
        let guard = SendGuard::new();
        let kill_core = core.clone();
        let kill = Box::new(move || kill_core.kill());
        let generation = self.insert_slot(node, Box::new(core), kill, guard.clone());
        (
            mailbox,
            Identity {
                node,
                generation,
                fabric: self.clone(),
                guard,
                routes: RefCell::new(HashMap::new()),
                turb: RefCell::new(TurbCache {
                    epoch: u64::MAX,
                    layer: None,
                }),
            },
        )
    }

    /// Register `node` as living elsewhere: it gets no mailbox, and every
    /// message sent to it is handed to `sink` on the sending thread (see
    /// module docs). Panics like [`register`](Self::register) if the node
    /// is registered and alive.
    pub fn register_sink<M: Send + 'static>(
        &self,
        node: NodeId,
        sink: impl Fn(M) + Send + Sync + 'static,
    ) {
        let sink: Sink<M> = Arc::new(sink);
        self.insert_slot(node, Box::new(sink), Box::new(|| {}), SendGuard::new());
    }

    /// Install `node`'s next incarnation; returns its generation.
    fn insert_slot(
        &self,
        node: NodeId,
        core: Box<dyn Any + Send + Sync>,
        kill: Box<dyn Fn() + Send + Sync>,
        guard: Arc<SendGuard>,
    ) -> u64 {
        let mut reg = self.reg.write();
        if let Some(slot) = reg.slots.get(&node) {
            assert!(!slot.alive, "node {node} is already registered and alive");
        }
        reg.next_generation += 1;
        let generation = reg.next_generation;
        let slot = Slot {
            generation,
            alive: true,
            core,
            kill,
            guard,
        };
        reg.slots.insert(node, slot);
        generation
    }

    /// Crash `node`: close and empty its mailbox; all of its future sends
    /// and all sends to it fail until re-registration.
    pub fn kill(&self, node: NodeId) {
        self.kill_group(std::slice::from_ref(&node));
    }

    /// Crash a whole fail-stop group *atomically*: every member dies under
    /// one registry lock, so no observer ever sees the group half-dead
    /// between member kills. This matters to the dispatcher, which treats
    /// "daemon dead" as "the whole machine crashed" — a window where the
    /// daemon is dead but its co-located process still registers as alive
    /// would let a respawn race the second half of the kill.
    ///
    /// Returns only after every member's outbound traffic has quiesced:
    /// a sender mid-push when the kill struck has either completed (the
    /// message counts as delivered before the crash) or failed
    /// `SenderDead` — nothing of the killed incarnations lands later.
    pub fn kill_group(&self, nodes: &[NodeId]) {
        let mut guards = Vec::with_capacity(nodes.len());
        {
            let mut reg = self.reg.write();
            for node in nodes {
                if let Some(slot) = reg.slots.get_mut(node) {
                    if slot.alive {
                        slot.alive = false;
                        slot.guard.alive.store(false, Ordering::SeqCst);
                        (slot.kill)();
                        guards.push(slot.guard.clone());
                    }
                }
            }
        }
        // Quiesce outside the registry lock: in-flight pushes never take
        // it, so this cannot deadlock, and readers are not held up.
        for guard in guards {
            guard.kill_and_quiesce();
        }
    }

    /// Generation of `node`'s live incarnation, if any (diagnostic).
    pub fn generation_of(&self, node: NodeId) -> Option<u64> {
        let reg = self.reg.read();
        reg.slots
            .get(&node)
            .filter(|s| s.alive)
            .map(|s| s.generation)
    }

    /// Whether `node` currently has a live incarnation.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.reg
            .read()
            .slots
            .get(&node)
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    /// Send from an anonymous, always-live origin (used by the dispatcher,
    /// which is reliable by assumption). Goes through the mailbox's
    /// multi-producer control lane.
    pub fn send_from_reliable<M: Send + 'static>(
        &self,
        to: NodeId,
        msg: M,
    ) -> Result<(), SendError> {
        if let Some(t) = self.turbulence() {
            if let Some(group) = t.on_deliver(to) {
                self.kill_group(&group);
                return Err(SendError::Disconnected(to));
            }
        }
        let reg = self.reg.read();
        let slot = reg
            .slots
            .get(&to)
            .filter(|s| s.alive)
            .ok_or(SendError::Disconnected(to))?;
        if let Some(sink) = slot.core.downcast_ref::<Sink<M>>() {
            let sink = sink.clone();
            drop(reg);
            sink(msg);
            return Ok(());
        }
        let core = slot
            .core
            .downcast_ref::<Arc<MailCore<M>>>()
            .unwrap_or_else(|| wrong_type(to));
        if core.push_control(msg) {
            Ok(())
        } else {
            Err(SendError::Disconnected(to))
        }
    }

    fn send_checked<M: Send + 'static>(
        &self,
        from: &Identity,
        to: NodeId,
        msg: M,
    ) -> Result<(), (SendError, M)> {
        // Fast fail-stop check before the (possibly sleeping) chaos layer;
        // the authoritative check happens inside the in_flight window.
        if !from.is_live() {
            return Err((SendError::SenderDead, msg));
        }
        if let Some(t) = self.turbulence_cached(from) {
            let verdict = t.on_send(from.node, to);
            if !verdict.delay.is_zero() {
                // Sleep on the sending thread, before enqueue: per-sender
                // FIFO is preserved, only interleavings are perturbed.
                std::thread::sleep(verdict.delay);
            }
            if let Some(group) = verdict.kill_sender_group {
                self.kill_group(&group);
                return Err((SendError::SenderDead, msg));
            }
            if let Some(group) = t.on_deliver(to) {
                // The receiver crashes *while receiving* this message: the
                // message is lost whole (atomicity) and the node fails stop.
                self.kill_group(&group);
                return Err((SendError::Disconnected(to), msg));
            }
        }
        // Cached lane first; on miss or a dead lane, resolve through the
        // registry once and retry. (The cache borrow must end before
        // `resolve_and_push` re-borrows the cache mutably.)
        let mut msg = msg;
        {
            let routes = from.routes.borrow();
            if let Some(route) = routes.get(&to) {
                let lane = match route {
                    Route::Lane(lane) => lane.downcast_ref::<Lane<M>>(),
                    Route::Sink(sink) => {
                        sink.downcast_ref::<Sink<M>>()
                            .unwrap_or_else(|| wrong_type(to))(msg);
                        return Ok(());
                    }
                };
                let lane = lane.unwrap_or_else(|| wrong_type(to));
                if !lane.is_closed() {
                    match self.guarded_push(from, to, lane, msg) {
                        Ok(()) => return Ok(()),
                        Err((SendError::Disconnected(_), m)) => {
                            // Receiver died under us; re-resolve (it may
                            // already have a live reincarnation).
                            msg = m;
                        }
                        Err(e) => return Err(e),
                    }
                } // stale lane: fall through to re-resolve
            }
        }
        self.resolve_and_push(from, to, msg)
    }

    /// Slow path: look the destination up in the registry, attach a
    /// fresh SPSC lane to its current incarnation (or take its sink),
    /// cache it, push.
    fn resolve_and_push<M: Send + 'static>(
        &self,
        from: &Identity,
        to: NodeId,
        msg: M,
    ) -> Result<(), (SendError, M)> {
        let lane = {
            let reg = self.reg.read();
            let slot = match reg.slots.get(&to).filter(|s| s.alive) {
                Some(s) => s,
                None => {
                    from.routes.borrow_mut().remove(&to);
                    return Err((SendError::Disconnected(to), msg));
                }
            };
            if let Some(sink) = slot.core.downcast_ref::<Sink<M>>() {
                let sink = sink.clone();
                drop(reg);
                sink(msg);
                let route = Route::Sink(Box::new(sink));
                from.routes.borrow_mut().insert(to, route);
                return Ok(());
            }
            let core = slot
                .core
                .downcast_ref::<Arc<MailCore<M>>>()
                .unwrap_or_else(|| wrong_type(to));
            Lane::attach(core)
        };
        let res = self.guarded_push(from, to, &lane, msg);
        let route = Route::Lane(Box::new(lane));
        from.routes.borrow_mut().insert(to, route);
        res
    }

    /// Push inside the sender's fail-stop window (see module docs).
    fn guarded_push<M: Send + 'static>(
        &self,
        from: &Identity,
        to: NodeId,
        lane: &Lane<M>,
        msg: M,
    ) -> Result<(), (SendError, M)> {
        let g = &from.guard;
        g.in_flight.fetch_add(1, Ordering::SeqCst);
        let res = if !g.alive.load(Ordering::SeqCst) {
            Err((SendError::SenderDead, msg))
        } else {
            match lane.push(msg) {
                Ok(()) => Ok(()),
                Err(m) => Err((SendError::Disconnected(to), m)),
            }
        };
        g.in_flight.fetch_sub(1, Ordering::SeqCst);
        res
    }

    /// Blocking receive helper that maps a kill into `RecvError::Killed`.
    /// (Provided for symmetry; `Mailbox::recv` does the same.)
    pub fn recv<M>(&self, mailbox: &Mailbox<M>) -> Result<M, RecvError> {
        mailbox.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::Rank;
    use std::thread;
    use std::time::Duration;

    fn cn(r: u32) -> NodeId {
        NodeId::Computing(Rank(r))
    }

    #[test]
    fn register_send_recv() {
        let f = Fabric::new();
        let (mb, _id1) = f.register::<u32>(cn(1));
        let (_mb0, id0) = f.register::<u32>(cn(0));
        id0.send(cn(1), 99u32).unwrap();
        assert_eq!(mb.recv().unwrap(), 99);
    }

    #[test]
    fn send_to_unregistered_is_disconnected() {
        let f = Fabric::new();
        let (_mb, id) = f.register::<u32>(cn(0));
        assert_eq!(id.send(cn(9), 1u32), Err(SendError::Disconnected(cn(9))));
    }

    #[test]
    fn send_reclaim_hands_the_message_back() {
        let f = Fabric::new();
        let (_mb, id) = f.register::<String>(cn(0));
        let msg = String::from("precious");
        let (err, back) = id.send_reclaim(cn(9), msg).unwrap_err();
        assert_eq!(err, SendError::Disconnected(cn(9)));
        assert_eq!(back, "precious");
    }

    #[test]
    fn kill_disconnects_both_directions() {
        let f = Fabric::new();
        let (mb1, id1) = f.register::<u32>(cn(1));
        let (_mb0, id0) = f.register::<u32>(cn(0));
        id0.send(cn(1), 1u32).unwrap();
        f.kill(cn(1));
        // Queued message lost (channel emptied), receiver sees Killed.
        assert_eq!(mb1.recv(), Err(RecvError::Killed));
        // Senders to it are refused.
        assert_eq!(id0.send(cn(1), 2u32), Err(SendError::Disconnected(cn(1))));
        // Its own incarnation may no longer speak.
        assert_eq!(id1.send(cn(0), 3u32), Err(SendError::SenderDead));
        assert!(!f.is_alive(cn(1)));
    }

    #[test]
    fn reincarnation_gets_fresh_mailbox_and_generation() {
        let f = Fabric::new();
        let (_mb, old_id) = f.register::<u32>(cn(1));
        let (_mb0, id0) = f.register::<u32>(cn(0));
        // Warm id0's route cache toward the first incarnation.
        id0.send(cn(1), 7u32).unwrap();
        f.kill(cn(1));
        let (mb2, new_id) = f.register::<u32>(cn(1));
        assert!(new_id.is_live());
        assert!(!old_id.is_live());
        // The cached (now dead) lane is replaced transparently.
        id0.send(cn(1), 42u32).unwrap();
        assert_eq!(mb2.recv().unwrap(), 42);
        // The zombie still cannot speak.
        assert_eq!(old_id.send(cn(0), 1u32), Err(SendError::SenderDead));
    }

    /// A message parked in a stale incarnation's lane must never surface
    /// in the reincarnation's mailbox.
    #[test]
    fn stale_incarnation_lane_never_feeds_the_reincarnation() {
        let f = Fabric::new();
        let (mb_old, _id1) = f.register::<u32>(cn(1));
        let (_mb0, id0) = f.register::<u32>(cn(0));
        // Queue into the first incarnation's lane, undelivered.
        id0.send(cn(1), 111u32).unwrap();
        let old_gen = f.generation_of(cn(1)).unwrap();
        f.kill(cn(1));
        drop(mb_old);
        let (mb_new, _id1b) = f.register::<u32>(cn(1));
        assert!(f.generation_of(cn(1)).unwrap() > old_gen);
        id0.send(cn(1), 222u32).unwrap();
        // Only the post-reincarnation message arrives.
        assert_eq!(mb_new.recv().unwrap(), 222);
        assert_eq!(mb_new.try_recv().unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "already registered and alive")]
    fn double_registration_panics() {
        let f = Fabric::new();
        let _a = f.register::<u32>(cn(0));
        let _b = f.register::<u32>(cn(0));
    }

    #[test]
    fn per_sender_fifo_across_fabric() {
        let f = Fabric::new();
        let (mb, _id1) = f.register::<(u32, u32)>(cn(1));
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let (_mb_s, id) = f.register::<(u32, u32)>(cn(10 + s));
            handles.push(thread::spawn(move || {
                for i in 0..500u32 {
                    id.send(cn(1), (s, i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [0u32; 4];
        let mut count = 0;
        while let Some((s, i)) = mb.try_recv().unwrap() {
            if i > 0 {
                assert_eq!(last[s as usize], i - 1, "per-sender FIFO violated");
            }
            last[s as usize] = i;
            count += 1;
        }
        assert_eq!(count, 2000);
    }

    /// Same FIFO property with a tiny ring capacity, so every sender
    /// wraps its ring and overflows into the spill lane constantly.
    #[test]
    fn per_sender_fifo_across_fabric_under_backpressure() {
        let f = Fabric::new();
        f.set_ring_capacity(2);
        let (mb, _id1) = f.register::<(u32, u32)>(cn(1));
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let (_mb_s, id) = f.register::<(u32, u32)>(cn(10 + s));
            handles.push(thread::spawn(move || {
                for i in 0..2000u32 {
                    id.send(cn(1), (s, i)).unwrap();
                }
            }));
        }
        let mut last = [None::<u32>; 4];
        let mut count = 0;
        let mut buf = Vec::with_capacity(64);
        while count < 8000 {
            buf.clear();
            count += mb.recv_many(&mut buf, 64).unwrap();
            for &(s, i) in &buf {
                if let Some(prev) = last[s as usize] {
                    assert_eq!(prev + 1, i, "per-sender FIFO under backpressure");
                }
                last[s as usize] = Some(i);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn dispatcher_can_always_send() {
        let f = Fabric::new();
        let (mb, _id) = f.register::<&'static str>(cn(0));
        f.send_from_reliable(cn(0), "restart").unwrap();
        assert_eq!(mb.recv().unwrap(), "restart");
    }

    /// Once `kill` returns, nothing more from the killed incarnation may
    /// arrive anywhere — even from a sender thread that was mid-send when
    /// the kill struck. The sender wraps every lane push in a SeqCst
    /// `in_flight` window and `kill` quiesces it, so there is no window
    /// in which a zombie's in-flight send can land in a reincarnated
    /// peer's fresh mailbox.
    #[test]
    fn no_delivery_from_killed_incarnation_after_kill_returns() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let f = Fabric::new();
        let (mb_b, _id_b) = f.register::<u64>(cn(1));
        for round in 0..100u64 {
            let (_mb_a, id_a) = f.register::<u64>(cn(0));
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = stop.clone();
            let spammer = thread::spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    if id_a.send(cn(1), round).is_err() {
                        break;
                    }
                }
            });
            thread::sleep(Duration::from_micros(200));
            f.kill(cn(0));
            // Anything delivered completed before the kill; drain it.
            while mb_b.try_recv().unwrap().is_some() {}
            thread::sleep(Duration::from_millis(1));
            assert_eq!(
                mb_b.try_recv().unwrap(),
                None,
                "zombie send landed after kill returned (round {round})"
            );
            stop.store(true, Ordering::Relaxed);
            spammer.join().unwrap();
        }
    }

    /// A node registered as a sink has no mailbox and no thread: both
    /// send paths run the sink before they return, on the caller.
    #[test]
    fn sends_to_a_sink_node_run_the_sink_on_the_sending_thread() {
        let f = Fabric::new();
        let (_mb0, id0) = f.register::<u32>(cn(0));
        let (seen_tx, seen) = std::sync::mpsc::channel();
        f.register_sink(cn(1), move |m: u32| {
            let _ = seen_tx.send((m, thread::current().id()));
        });
        let me = thread::current().id();
        id0.send(cn(1), 1u32).unwrap(); // resolves the route
        id0.send(cn(1), 2u32).unwrap(); // cached route
        f.send_from_reliable(cn(1), 3u32).unwrap();
        let got: Vec<_> = seen.try_iter().collect();
        assert_eq!(got, [(1, me), (2, me), (3, me)]);
    }

    #[test]
    fn kill_during_blocked_recv_unblocks() {
        let f = Fabric::new();
        let (mb, _id) = f.register::<u32>(cn(0));
        let f2 = f.clone();
        let h = thread::spawn(move || mb.recv());
        thread::sleep(Duration::from_millis(20));
        f2.kill(cn(0));
        assert_eq!(h.join().unwrap(), Err(RecvError::Killed));
    }

    #[test]
    fn cloned_identity_gets_its_own_lanes_and_still_delivers() {
        let f = Fabric::new();
        let (mb, _id1) = f.register::<u32>(cn(1));
        let (_mb0, id0) = f.register::<u32>(cn(0));
        id0.send(cn(1), 1u32).unwrap();
        let id0b = id0.clone();
        id0b.send(cn(1), 2u32).unwrap();
        id0.send(cn(1), 3u32).unwrap();
        let mut got = [mb.recv().unwrap(), mb.recv().unwrap(), mb.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [1, 2, 3]);
    }
}
