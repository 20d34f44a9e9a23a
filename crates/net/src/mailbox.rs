//! Blocking, killable mailboxes — the receive side of the fabric.
//!
//! A [`Mailbox`] is the single inbound queue of one node incarnation
//! (the analog of the daemon's `select()` loop over all of its sockets).
//! Since the hot-path rework it is a *bundle of SPSC lanes*: every
//! sender incarnation gets its own lock-free ring
//! (`ring::SpscRing`), created lazily at first send, plus one
//! shared mutex-protected control lane for anonymous reliable senders
//! (the dispatcher). Per-sender FIFO holds because each sender owns its
//! lane; cross-sender interleaving is round-robin at drain time, which
//! the protocol never depends on.
//!
//! The receiver is woken through an eventcount-style parker: producers
//! bump an atomic depth counter and only touch the parker when the
//! receiver has announced it is (about to be) asleep. While the receiver
//! drains, a push costs two atomic ops and no lock; otherwise it costs
//! one `futex` wake per sleep, not per message: the first push posts the
//! wake token and notifies, and every push after it, until the woken
//! thread has run and taken the token, finds the token posted and
//! returns without a system call. The depth counter doubles as a
//! lock-free [`Mailbox::len`] for diagnostics and the health endpoint.
//!
//! Skipping that notification is sound because at most one thread parks
//! per role (`park` debug-asserts it): a posted token's one sleeper has
//! either been notified already or has yet to check the token, which it
//! does under the token's lock before it waits.
//!
//! A computing node's mailbox is drained by whichever of two threads
//! holds the node — its communication daemon or its MPI process — so
//! the parker has two roles ([`Waiter`]) and exactly one of them is the
//! *registered waiter* at any time (the daemon, unless the process took
//! the role through [`MailSignal::register`]). A push wakes the
//! registered waiter only; handing the role back to the daemon re-checks
//! the depth, so a message the process was registered for but never
//! drained wakes the daemon; [`MailSignal::ring`] wakes one role
//! directly; a kill wakes both. Every other mailbox has the daemon role
//! alone and never sees the difference.
//!
//! Killing the node closes the mailbox *and empties it* — the paper's
//! crash-and-recover step empties every channel connected to the crashed
//! process. Lanes are emptied by the receiver on observing the kill (or
//! when the lane is dropped); the control lane is emptied eagerly under
//! its lock.

use crate::error::RecvError;
use crate::ring::SpscRing;
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) struct MailCore<M> {
    /// All sender lanes ever attached; the consumer snapshots this.
    lanes: Mutex<Vec<Arc<SpscRing<M>>>>,
    /// Bumped on every lane attach so the consumer can refresh cheaply.
    lanes_epoch: AtomicU64,
    /// Multi-producer lane for anonymous reliable senders.
    control: Mutex<VecDeque<M>>,
    control_len: AtomicUsize,
    /// Total queued messages across all lanes (lock-free `len()`).
    depth: AtomicUsize,
    killed: AtomicBool,
    /// The registered waiter is the process (else the daemon).
    process_waits: AtomicBool,
    /// One parker per [`Waiter`] role, indexed by it.
    parkers: [Parker; 2],
    /// Fast-path capacity of each sender lane.
    ring_capacity: usize,
}

/// One role's parker: token + condvar, touched only on the empty slow
/// path.
struct Parker {
    /// Threads of this role announcing intent to sleep.
    sleepers: AtomicUsize,
    token: Mutex<bool>,
    cv: Condvar,
    /// Condvar notifications issued, for the tests that pin the
    /// one-per-sleep rule.
    #[cfg(test)]
    notified: AtomicUsize,
}

impl Default for Parker {
    fn default() -> Self {
        Parker {
            sleepers: AtomicUsize::new(0),
            token: Mutex::new(false),
            cv: Condvar::new(),
            #[cfg(test)]
            notified: AtomicUsize::new(0),
        }
    }
}

impl Parker {
    /// Post the wake token and notify, once per sleep: a wake that finds
    /// the token still posted returns (see the module docs for why that
    /// is sound). A kill (`all`) notifies regardless.
    fn wake(&self, all: bool) {
        {
            let mut token = self.token.lock();
            if *token && !all {
                return;
            }
            *token = true;
        }
        #[cfg(test)]
        self.notified.fetch_add(1, Ordering::Relaxed);
        if all {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }
}

/// The two threads that wait on a computing node's mailbox (see module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waiter {
    /// The communication daemon: the registered waiter by default, and
    /// the only role of every other mailbox.
    Daemon = 0,
    /// The MPI process, while it waits for the answer to one of its calls.
    Process = 1,
}

impl<M> MailCore<M> {
    pub(crate) fn new(ring_capacity: usize) -> Arc<Self> {
        Arc::new(MailCore {
            lanes: Mutex::new(Vec::new()),
            lanes_epoch: AtomicU64::new(0),
            control: Mutex::new(VecDeque::new()),
            control_len: AtomicUsize::new(0),
            depth: AtomicUsize::new(0),
            killed: AtomicBool::new(false),
            process_waits: AtomicBool::new(false),
            parkers: Default::default(),
            ring_capacity,
        })
    }

    pub(crate) fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Attach a fresh SPSC lane for one sender incarnation.
    pub(crate) fn attach_lane(&self) -> Arc<SpscRing<M>> {
        let ring = Arc::new(SpscRing::with_capacity(self.ring_capacity));
        let mut lanes = self.lanes.lock();
        lanes.push(ring.clone());
        self.lanes_epoch.fetch_add(1, Ordering::Release);
        ring
    }

    /// Account one enqueued message and wake the registered waiter if it
    /// is (or is about to be) parked. SeqCst on both sides closes the
    /// classic sleep/wake race: either the producer's depth increment is
    /// ordered before the consumer's pre-park depth check (consumer skips
    /// the park), or the consumer's sleeper announcement is ordered
    /// before the producer's sleeper check (producer posts the wake
    /// token). A role change in between is [`MailSignal::register`]'s to
    /// close.
    pub(crate) fn notify_push(&self) {
        self.depth.fetch_add(1, Ordering::SeqCst);
        let parker = &self.parkers[self.registered() as usize];
        if parker.sleepers.load(Ordering::SeqCst) > 0 {
            parker.wake(false);
        }
    }

    fn registered(&self) -> Waiter {
        if self.process_waits.load(Ordering::SeqCst) {
            Waiter::Process
        } else {
            Waiter::Daemon
        }
    }

    /// A message is queued and `who` is the waiter it is for.
    fn ready(&self, who: Waiter) -> bool {
        self.depth.load(Ordering::SeqCst) > 0 && self.registered() == who
    }

    /// Enqueue on the control lane; returns false if the mailbox is
    /// closed. Kill clears this lane under the same lock, so no message
    /// survives in it past a kill.
    pub(crate) fn push_control(&self, m: M) -> bool {
        if self.is_killed() {
            return false;
        }
        {
            let mut q = self.control.lock();
            if self.is_killed() {
                return false;
            }
            q.push_back(m);
            self.control_len.store(q.len(), Ordering::Release);
        }
        self.notify_push();
        true
    }

    /// Close and empty the mailbox (fail-stop crash).
    pub(crate) fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        {
            let mut q = self.control.lock();
            let n = q.len();
            q.clear();
            self.control_len.store(0, Ordering::Release);
            if n > 0 {
                self.depth.fetch_sub(n, Ordering::SeqCst);
            }
        }
        for parker in &self.parkers {
            parker.wake(true);
        }
    }

    /// Park as `who` until its wake token is posted, the deadline passes,
    /// or there is observably work for it or a kill. Consumes the token.
    fn park(&self, who: Waiter, deadline: Option<Instant>) {
        let parker = &self.parkers[who as usize];
        let others = parker.sleepers.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(others, 0, "a second {who:?} parks on one mailbox");
        let mut token = parker.token.lock();
        loop {
            if *token {
                *token = false;
                break;
            }
            if self.is_killed() || self.ready(who) {
                break;
            }
            match deadline {
                Some(d) => {
                    if parker.cv.wait_until(&mut token, d).timed_out() {
                        break;
                    }
                }
                None => parker.cv.wait(&mut token),
            }
        }
        drop(token);
        parker.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The waiting side of a computing node's mailbox, for the two threads
/// that drain it in turn (see module docs). Shared freely: waiting needs
/// no consumer state, and draining is the [`Mailbox`] holder's.
pub struct MailSignal<M>(Arc<MailCore<M>>);

impl<M> Clone for MailSignal<M> {
    fn clone(&self) -> Self {
        MailSignal(self.0.clone())
    }
}

impl<M> MailSignal<M> {
    /// Make `who` the waiter a push wakes. Handing the role back to the
    /// daemon wakes it if a message is queued: a push that came while the
    /// process held the role woke the process only, which may have
    /// stopped waiting without draining it.
    pub fn register(&self, who: Waiter) {
        let core = &self.0;
        core.process_waits
            .store(who == Waiter::Process, Ordering::SeqCst);
        if who == Waiter::Daemon && core.depth.load(Ordering::SeqCst) > 0 {
            core.parkers[Waiter::Daemon as usize].wake(false);
        }
    }

    /// Park as `who` until a message is queued while it is the registered
    /// waiter, it is [`ring`](Self::ring)ing, or the mailbox is killed
    /// ([`RecvError::Killed`]). May return with nothing to do; the caller
    /// re-checks what it waits for.
    pub fn wait(&self, who: Waiter) -> Result<(), RecvError> {
        self.0.park(who, None);
        if self.0.is_killed() {
            Err(RecvError::Killed)
        } else {
            Ok(())
        }
    }

    /// Wake `who` whether or not a message is queued: what it waits for
    /// was produced by the other role.
    pub fn ring(&self, who: Waiter) {
        self.0.parkers[who as usize].wake(false);
    }
}

/// The receiving end of a node's inbound queue.
///
/// Not `Sync`: the consumer side keeps a private (uncontended) snapshot
/// of its sender lanes, matching the single-consumer ring contract. The
/// mailbox still moves freely between threads.
pub struct Mailbox<M> {
    pub(crate) core: Arc<MailCore<M>>,
    /// Consumer's snapshot of the sender lanes (refreshed by epoch).
    lanes: RefCell<Vec<Arc<SpscRing<M>>>>,
    lanes_epoch: Cell<u64>,
    /// Round-robin start position across lanes, for drain fairness.
    cursor: Cell<usize>,
}

impl<M> Mailbox<M> {
    pub(crate) fn new(core: Arc<MailCore<M>>) -> Self {
        Mailbox {
            core,
            lanes: RefCell::new(Vec::new()),
            lanes_epoch: Cell::new(0),
            cursor: Cell::new(0),
        }
    }

    fn refresh_lanes(&self) {
        let epoch = self.core.lanes_epoch.load(Ordering::Acquire);
        if epoch != self.lanes_epoch.get() {
            *self.lanes.borrow_mut() = self.core.lanes.lock().clone();
            self.lanes_epoch.set(epoch);
        }
    }

    /// Pop one message from any lane (round-robin) or the control lane.
    fn poll_once(&self) -> Option<M> {
        self.refresh_lanes();
        let lanes = self.lanes.borrow();
        let n = lanes.len();
        if n > 0 {
            let start = self.cursor.get() % n;
            for i in 0..n {
                let idx = (start + i) % n;
                if let Some(m) = lanes[idx].pop() {
                    self.core.depth.fetch_sub(1, Ordering::SeqCst);
                    self.cursor.set(idx + 1);
                    return Some(m);
                }
            }
        }
        if self.core.control_len.load(Ordering::Acquire) > 0 {
            let mut q = self.core.control.lock();
            if let Some(m) = q.pop_front() {
                self.core.control_len.store(q.len(), Ordering::Release);
                drop(q);
                self.core.depth.fetch_sub(1, Ordering::SeqCst);
                return Some(m);
            }
        }
        None
    }

    /// Discard everything queued (crash empties channels).
    fn drain_all(&self) {
        while self.poll_once().is_some() {}
    }

    /// Blocking receive. Returns [`RecvError::Killed`] when the node was
    /// crashed, which the hosting thread uses to unwind fail-stop.
    pub fn recv(&self) -> Result<M, RecvError> {
        loop {
            if self.core.is_killed() {
                self.drain_all();
                return Err(RecvError::Killed);
            }
            if let Some(m) = self.poll_once() {
                return Ok(m);
            }
            self.core.park(Waiter::Daemon, None);
        }
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<M, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.core.is_killed() {
                self.drain_all();
                return Err(RecvError::Killed);
            }
            if let Some(m) = self.poll_once() {
                return Ok(m);
            }
            if Instant::now() >= deadline {
                return Err(RecvError::Timeout);
            }
            self.core.park(Waiter::Daemon, Some(deadline));
        }
    }

    /// Non-blocking receive; `Ok(None)` when empty.
    pub fn try_recv(&self) -> Result<Option<M>, RecvError> {
        if self.core.is_killed() {
            self.drain_all();
            return Err(RecvError::Killed);
        }
        Ok(self.poll_once())
    }

    /// Blocking batched receive: waits for at least one message, then
    /// drains up to `max` without further blocking. One parker wakeup is
    /// amortized over the whole burst. Appends to `out` and returns the
    /// number received.
    pub fn recv_many(&self, out: &mut Vec<M>, max: usize) -> Result<usize, RecvError> {
        if max == 0 {
            return Ok(0);
        }
        let first = self.recv()?;
        out.push(first);
        let mut n = 1;
        while n < max && !self.core.is_killed() {
            match self.poll_once() {
                Some(m) => {
                    out.push(m);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Number of queued messages (lock-free; diagnostic).
    pub fn len(&self) -> usize {
        self.core.depth.load(Ordering::SeqCst)
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the node incarnation owning this mailbox was killed.
    pub fn is_killed(&self) -> bool {
        self.core.is_killed()
    }

    /// The waiting side of this mailbox, for threads that drain it
    /// through whoever holds it.
    pub fn signal(&self) -> MailSignal<M> {
        MailSignal(self.core.clone())
    }
}

/// The sending half of one sender incarnation's SPSC lane into a
/// mailbox. Exactly one producer may use it (the SPSC contract) — the
/// fabric guarantees this by caching at most one lane per
/// (identity handle, destination) and never sharing identity handles'
/// route caches.
pub(crate) struct Lane<M> {
    core: Arc<MailCore<M>>,
    ring: Arc<SpscRing<M>>,
}

impl<M> Lane<M> {
    pub(crate) fn attach(core: &Arc<MailCore<M>>) -> Self {
        Lane {
            core: core.clone(),
            ring: core.attach_lane(),
        }
    }

    /// Whether the receiving mailbox was killed (lane is dead).
    pub(crate) fn is_closed(&self) -> bool {
        self.core.is_killed()
    }

    /// Enqueue `m`; hands the message back if the mailbox is closed so
    /// callers can reclaim it without cloning.
    pub(crate) fn push(&self, m: M) -> Result<(), M> {
        if self.is_closed() {
            return Err(m);
        }
        self.ring.push(m);
        self.core.notify_push();
        Ok(())
    }
}

/// A producer handle for one SPSC lane, as handed to the benchmark's
/// `net.*` layer drivers. Single producer per handle (the SPSC contract).
#[doc(hidden)]
pub struct BenchSender<M>(Lane<M>);

impl<M> BenchSender<M> {
    /// Enqueue a message; `false` if the mailbox was killed.
    pub fn send(&self, m: M) -> bool {
        self.0.push(m).is_ok()
    }
}

/// Build a raw (producer lane, mailbox) pair outside the fabric —
/// bypassing registry and routing — for the benchmark's `net.ring_ns`
/// (one lane, `benchmark/src/layers.rs`).
#[doc(hidden)]
pub fn bench_pair<M>(ring_capacity: usize) -> (BenchSender<M>, Mailbox<M>) {
    let (mut senders, mb) = bench_lanes(ring_capacity, 1);
    (senders.pop().expect("one lane"), mb)
}

/// Build `producers` independent SPSC lanes feeding one mailbox — the
/// daemon's multi-producer shape, drained with `recv_many` by the
/// benchmark's `net.mailbox_drain_ns`.
#[doc(hidden)]
pub fn bench_lanes<M>(ring_capacity: usize, producers: usize) -> (Vec<BenchSender<M>>, Mailbox<M>) {
    let core = MailCore::new(ring_capacity);
    let senders = (0..producers)
        .map(|_| BenchSender(Lane::attach(&core)))
        .collect();
    (senders, Mailbox::new(core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A mailbox plus a producer lane, mimicking one fabric sender.
    fn pair() -> (Lane<u32>, Mailbox<u32>) {
        let core = MailCore::new(crate::ring::DEFAULT_RING_CAPACITY);
        (Lane::attach(&core), Mailbox::new(core))
    }

    fn tiny_pair(cap: usize) -> (Lane<u32>, Mailbox<u32>) {
        let core = MailCore::new(cap);
        (Lane::attach(&core), Mailbox::new(core))
    }

    #[test]
    fn push_then_recv() {
        let (lane, mb) = pair();
        assert!(lane.push(7).is_ok());
        assert_eq!(mb.recv().unwrap(), 7);
    }

    #[test]
    fn fifo_order() {
        let (lane, mb) = pair();
        for i in 0..100 {
            lane.push(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(mb.recv().unwrap(), i);
        }
    }

    #[test]
    fn fifo_order_across_wraparound() {
        // Lane capacity far below the message count: the ring wraps and
        // spills repeatedly while the consumer drains concurrently.
        let (lane, mb) = tiny_pair(4);
        let producer = thread::spawn(move || {
            for i in 0..50_000u32 {
                lane.push(i).unwrap();
            }
        });
        for i in 0..50_000u32 {
            assert_eq!(mb.recv().unwrap(), i, "per-sender FIFO across wrap");
        }
        producer.join().unwrap();
    }

    #[test]
    fn recv_blocks_until_push() {
        let (lane, mb) = pair();
        let h = thread::spawn(move || mb.recv().unwrap());
        thread::sleep(Duration::from_millis(20));
        lane.push(42).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn kill_empties_and_wakes() {
        let (lane, mb) = pair();
        lane.push(1).unwrap();
        mb.core.kill();
        assert_eq!(mb.recv(), Err(RecvError::Killed));
        assert!(lane.push(2).is_err(), "push into killed mailbox must fail");
        assert_eq!(mb.len(), 0, "kill + drain leaves no accounted depth");
    }

    #[test]
    fn kill_wakes_blocked_receiver() {
        // Both roles parked for real: the daemon in `recv`, the process
        // in its wait.
        let (lane, mb) = pair();
        let signal = mb.signal();
        let core = mb.core.clone();
        let daemon = thread::spawn(move || mb.recv());
        let process = thread::spawn(move || signal.wait(Waiter::Process));
        until_parked(&core, Waiter::Daemon);
        until_parked(&core, Waiter::Process);
        lane.core.kill();
        assert_eq!(daemon.join().unwrap(), Err(RecvError::Killed));
        assert_eq!(process.join().unwrap(), Err(RecvError::Killed));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_lane, mb) = pair();
        let t0 = Instant::now();
        assert_eq!(
            mb.recv_timeout(Duration::from_millis(30)),
            Err(RecvError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn try_recv_nonblocking() {
        let (lane, mb) = pair();
        assert_eq!(mb.try_recv().unwrap(), None);
        lane.push(5).unwrap();
        assert_eq!(mb.try_recv().unwrap(), Some(5));
    }

    #[test]
    fn control_lane_delivers_and_dies_with_the_mailbox() {
        let core = MailCore::new(8);
        let mb = Mailbox::new(core.clone());
        assert!(core.push_control(11));
        assert_eq!(mb.recv().unwrap(), 11);
        assert!(core.push_control(12));
        core.kill();
        assert!(!core.push_control(13));
        assert_eq!(mb.recv(), Err(RecvError::Killed));
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let core = MailCore::new(16);
        let mb = Mailbox::new(core.clone());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let lane = Lane::attach(&core);
            handles.push(thread::spawn(move || {
                for i in 0..1000u32 {
                    assert!(lane.push(t * 1000 + i).is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..8000 {
            got.push(mb.recv().unwrap());
        }
        got.sort_unstable();
        let expected: Vec<u32> = (0..8u32)
            .flat_map(|t| (0..1000).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn per_sender_order_preserved() {
        let (lane, mb) = pair();
        let h = thread::spawn(move || {
            for i in 0..5000u32 {
                lane.push(i).unwrap();
            }
        });
        h.join().unwrap();
        let mut last = None;
        while let Some(v) = mb.try_recv().unwrap() {
            if let Some(l) = last {
                assert!(v > l);
            }
            last = Some(v);
        }
        assert_eq!(last, Some(4999));
    }

    #[test]
    fn recv_many_drains_a_burst_in_one_call() {
        let (lane, mb) = pair();
        for i in 0..10u32 {
            lane.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(mb.recv_many(&mut out, 8).unwrap(), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(mb.recv_many(&mut out, 8).unwrap(), 2);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn recv_many_blocks_for_the_first_message() {
        let (lane, mb) = pair();
        let h = thread::spawn(move || {
            let mut out = Vec::new();
            mb.recv_many(&mut out, 4).unwrap();
            out
        });
        thread::sleep(Duration::from_millis(20));
        lane.push(9).unwrap();
        assert_eq!(h.join().unwrap(), vec![9]);
    }

    #[test]
    fn len_is_lock_free_and_tracks_depth() {
        let (lane, mb) = pair();
        assert!(mb.is_empty());
        for i in 0..5 {
            lane.push(i).unwrap();
        }
        assert_eq!(mb.len(), 5);
        mb.recv().unwrap();
        assert_eq!(mb.len(), 4);
    }

    /// Both roles announced asleep, as if each were parked.
    fn both_asleep<M>(mb: &Mailbox<M>) {
        for parker in &mb.core.parkers {
            parker.sleepers.store(1, Ordering::SeqCst);
        }
    }

    /// Both roles back awake, as after their parks returned.
    fn both_awake<M>(mb: &Mailbox<M>) {
        for parker in &mb.core.parkers {
            parker.sleepers.store(0, Ordering::SeqCst);
        }
    }

    /// Which roles hold a wake token; takes the tokens.
    fn rung<M>(mb: &Mailbox<M>) -> [bool; 2] {
        mb.core
            .parkers
            .each_ref()
            .map(|p| std::mem::take(&mut *p.token.lock()))
    }

    /// Condvar notifications issued so far, per role.
    fn notified<M>(mb: &Mailbox<M>) -> [usize; 2] {
        mb.core
            .parkers
            .each_ref()
            .map(|p| p.notified.load(Ordering::Relaxed))
    }

    /// Wait until a thread has announced it parks as `who`.
    fn until_parked<M>(core: &MailCore<M>, who: Waiter) {
        while core.parkers[who as usize].sleepers.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
    }

    /// Park as `who` with a long deadline and say whether it returned at
    /// once (a posted token) rather than at the deadline.
    fn park_returns_at_once<M>(mb: &Mailbox<M>, who: Waiter) -> bool {
        let t0 = Instant::now();
        mb.core.park(who, Some(t0 + Duration::from_secs(10)));
        t0.elapsed() < Duration::from_secs(5)
    }

    #[test]
    fn a_push_wakes_only_the_registered_process() {
        let (lane, mb) = pair();
        let signal = mb.signal();
        both_asleep(&mb);
        signal.register(Waiter::Process);
        lane.push(1).unwrap();
        assert_eq!(rung(&mb), [false, true], "[daemon, process]");
        // The process is the waiter the queued message is for: its wait
        // returns at once.
        both_awake(&mb);
        assert_eq!(signal.wait(Waiter::Process), Ok(()));
    }

    #[test]
    fn a_push_after_the_hand_back_wakes_the_daemon() {
        let (lane, mb) = pair();
        let signal = mb.signal();
        both_asleep(&mb);
        signal.register(Waiter::Process);
        signal.register(Waiter::Daemon);
        assert_eq!(rung(&mb), [false, false], "nothing queued, nobody woken");
        lane.push(1).unwrap();
        assert_eq!(rung(&mb), [true, false]);
        both_awake(&mb);
        assert_eq!(signal.wait(Waiter::Daemon), Ok(()));
    }

    #[test]
    fn a_hand_back_with_a_message_queued_wakes_the_daemon() {
        let (lane, mb) = pair();
        let signal = mb.signal();
        both_asleep(&mb);
        signal.register(Waiter::Process);
        lane.push(1).unwrap();
        assert_eq!(rung(&mb), [false, true]);
        // The process stops waiting without draining: the message must
        // not sit unseen behind a sleeping daemon.
        signal.register(Waiter::Daemon);
        assert_eq!(rung(&mb), [true, false]);
        assert_eq!(mb.try_recv(), Ok(Some(1)));
    }

    #[test]
    fn a_ring_wakes_one_role_with_nothing_queued() {
        let (_lane, mb) = pair();
        let signal = mb.signal();
        signal.ring(Waiter::Process);
        assert_eq!(rung(&mb), [false, true]);
        signal.ring(Waiter::Process);
        assert_eq!(signal.wait(Waiter::Process), Ok(()), "consumes the token");
        assert_eq!(rung(&mb), [false, false]);
    }

    #[test]
    fn a_kill_wakes_both_roles() {
        let (_lane, mb) = pair();
        let signal = mb.signal();
        signal.register(Waiter::Process);
        mb.core.kill();
        assert_eq!(rung(&mb), [true, true]);
        assert_eq!(notified(&mb), [1, 1]);
        // Tokens already posted do not coalesce a kill away.
        signal.ring(Waiter::Daemon);
        signal.ring(Waiter::Process);
        assert_eq!(notified(&mb), [2, 2]);
        mb.core.kill();
        assert_eq!(notified(&mb), [3, 3], "a kill is never coalesced");
        assert_eq!(signal.wait(Waiter::Process), Err(RecvError::Killed));
        assert_eq!(signal.wait(Waiter::Daemon), Err(RecvError::Killed));
    }

    #[test]
    fn a_burst_to_a_parked_receiver_notifies_it_once() {
        let (lane, mb) = pair();
        both_asleep(&mb);
        for i in 0..64 {
            lane.push(i).unwrap();
        }
        assert_eq!(notified(&mb), [1, 0], "one notification per sleep");
        // The receiver wakes on the one token and drains the whole burst
        // without parking again.
        both_awake(&mb);
        let mut out = Vec::new();
        assert_eq!(mb.recv_many(&mut out, 64), Ok(64));
        // The token it never needed returns its next park at once; the
        // sleep after that is notified afresh.
        assert!(park_returns_at_once(&mb, Waiter::Daemon));
        both_asleep(&mb);
        lane.push(64).unwrap();
        assert_eq!(notified(&mb), [2, 0]);
    }

    #[test]
    fn a_ring_or_a_hand_back_notifies_nobody_while_a_wake_is_posted() {
        let (lane, mb) = pair();
        let signal = mb.signal();
        both_asleep(&mb);
        lane.push(1).unwrap();
        signal.ring(Waiter::Process);
        assert_eq!(notified(&mb), [1, 1], "[daemon, process]");
        signal.ring(Waiter::Daemon);
        signal.ring(Waiter::Process);
        signal.register(Waiter::Process);
        lane.push(2).unwrap();
        // A message is queued: the hand-back wakes the daemon, whose
        // token is already posted.
        signal.register(Waiter::Daemon);
        assert_eq!(notified(&mb), [1, 1], "both roles were already woken");
        assert_eq!(rung(&mb), [true, true]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a second Daemon parks")]
    fn a_second_thread_parking_in_one_role_is_refused() {
        let (_lane, mb) = pair();
        both_asleep(&mb);
        mb.core.park(Waiter::Daemon, Some(Instant::now()));
    }

    #[test]
    fn a_stale_token_returns_the_next_park_and_suppresses_no_later_wake() {
        let (lane, mb) = pair();
        // A push lands as a deadline park times out: it saw the receiver
        // announced asleep and posts a token that nobody consumes, and
        // the receiver drains the message on its way out.
        mb.core.park(
            Waiter::Daemon,
            Some(Instant::now() + Duration::from_millis(1)),
        );
        both_asleep(&mb);
        lane.push(1).unwrap();
        both_awake(&mb);
        assert_eq!(mb.try_recv(), Ok(Some(1)));
        assert_eq!(notified(&mb), [1, 0]);
        // The next park returns at once on the stale token and takes it.
        assert!(park_returns_at_once(&mb, Waiter::Daemon));
        assert_eq!(rung(&mb), [false, false]);
        // A later push to a receiver parked for real still wakes it.
        let core = mb.core.clone();
        let receiver = thread::spawn(move || mb.recv_timeout(Duration::from_secs(10)));
        until_parked(&core, Waiter::Daemon);
        lane.push(2).unwrap();
        assert_eq!(receiver.join().unwrap(), Ok(2));
        let parker = &core.parkers[Waiter::Daemon as usize];
        assert_eq!(parker.notified.load(Ordering::Relaxed), 2);
    }

    /// Two threads hand a counter back and forth through two mailboxes.
    /// Every third hand-off is received in deadline parks of a few
    /// microseconds and pushed after a pause of about as long, so pushes
    /// land as parks time out and leave stale tokens behind; every other
    /// receive parks under one long deadline, whose expiry can only be a
    /// lost wake-up.
    #[test]
    fn two_thread_hand_offs_lose_no_wake_up() {
        const HANDOFFS: u32 = if cfg!(miri) { 200 } else { 100_000 };
        const LOST: Duration = Duration::from_secs(10);
        // Every third hand-off: (its short park deadline, its push pause).
        let short = |i: u32| {
            let us = u64::from(i / 3 % 40);
            i.is_multiple_of(3).then(|| {
                let pause = (us + u64::from(i % 5)).saturating_sub(2);
                (Duration::from_micros(us), Duration::from_micros(pause))
            })
        };
        let recv = move |mb: &Mailbox<u32>, i: u32| -> u32 {
            let lost = Instant::now() + LOST;
            let timeout = short(i).map_or(LOST, |(deadline, _)| deadline);
            loop {
                match mb.recv_timeout(timeout) {
                    Ok(v) => return v,
                    Err(RecvError::Timeout) => {
                        assert!(Instant::now() < lost, "lost wake-up at hand-off {i}")
                    }
                    Err(e) => panic!("hand-off {i}: {e:?}"),
                }
            }
        };
        let push = move |lane: &Lane<u32>, i: u32, v: u32| {
            if let Some((_, pause)) = short(i) {
                let t0 = Instant::now();
                while t0.elapsed() < pause {
                    std::hint::spin_loop();
                }
            }
            lane.push(v).unwrap();
        };
        let t0 = Instant::now();
        let (to_echo, echo_mb) = pair();
        let (to_main, main_mb) = pair();
        let echo = thread::spawn(move || {
            for i in 0..HANDOFFS {
                assert_eq!(recv(&echo_mb, i), i, "hand-offs in order");
                push(&to_main, i, i + 1);
            }
        });
        for i in 0..HANDOFFS {
            push(&to_echo, i, i);
            assert_eq!(recv(&main_mb, i), i + 1);
        }
        echo.join().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn eight_producer_stress_with_tiny_rings() {
        // Rings of capacity 2 force constant wraparound + spill while 8
        // producers hammer and the consumer drains with recv_many.
        let core = MailCore::new(2);
        let mb = Mailbox::new(core.clone());
        // Miri interprets ~1000× slower than native; shrink the hammer
        // (CI runs this test under Miri to check the atomics).
        const PER: u32 = if cfg!(miri) { 300 } else { 20_000 };
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let lane = Lane::attach(&core);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    lane.push((t << 24) | i).unwrap();
                }
            }));
        }
        let mut last = [None::<u32>; 8];
        let mut total = 0u32;
        let mut buf = Vec::with_capacity(256);
        while total < 8 * PER {
            buf.clear();
            let n = mb.recv_many(&mut buf, 256).unwrap();
            for &v in &buf {
                let (t, i) = ((v >> 24) as usize, v & 0x00FF_FFFF);
                if let Some(prev) = last[t] {
                    assert_eq!(prev + 1, i, "per-sender FIFO under stress");
                }
                last[t] = Some(i);
            }
            total += n as u32;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(mb.is_empty());
    }
}
