//! The event-logger service loop: wraps an [`EventLogStore`] behind a
//! fabric mailbox. The reply path is injected as a closure so this crate
//! stays independent of the runtime's daemon message enum.

use crate::store::EventLogStore;
use mvr_core::{ElReply, ElRequest, EventBatch, Rank};
use mvr_net::{Mailbox, RecvError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One inbound request: who asked, and what.
#[derive(Clone, Debug)]
pub struct ElPacket {
    /// The daemon (by rank) that sent the request.
    pub from: Rank,
    /// The request itself.
    pub req: ElRequest,
}

/// Statistics of one event-logger instance.
///
/// The counters reconcile: every inbound packet is accounted exactly
/// once, so `requests + merged_logs` equals packets received, and every
/// `Log` packet either produced an ack or had it coalesced away, so
/// `acks + coalesced_acks` equals `Log` packets received.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElServiceStats {
    /// Requests processed after merging: a contiguous same-daemon
    /// same-owner `Log` run counts as one request (its merged-away
    /// packets are counted in `merged_logs`, not here).
    pub requests: u64,
    /// Acks produced.
    pub acks: u64,
    /// Downloads served.
    pub downloads: u64,
    /// `Log` requests merged into a predecessor from the same daemon for
    /// the same owner during one service pass.
    pub merged_logs: u64,
    /// Acks elided by high-watermark coalescing (each merged or coalesced
    /// `Log` would have produced its own ack under eager service).
    pub coalesced_acks: u64,
}

/// Run the event logger until its mailbox is killed (the EL is the
/// reliable component of the system — killing it in tests models the
/// "what if the reliable node dies" experiments).
///
/// Each service pass blocks for one request, then drains the whole
/// mailbox backlog. Contiguous `Log` requests from the same daemon for
/// the same owner are merged into a single store append, and every daemon
/// gets at most **one** coalesced high-watermark `Ack` per pass — the EL
/// half of the lazy-batching optimization (the daemon half batches
/// events; this half batches acks).
///
/// `reply` ships an [`ElReply`] back to the daemon of the given rank; a
/// failed reply (daemon crashed meanwhile) is ignored, matching a TCP
/// write error to a dead peer.
pub fn run_event_logger<F>(mailbox: Mailbox<ElPacket>, reply: F) -> (EventLogStore, ElServiceStats)
where
    F: FnMut(Rank, ElReply) -> bool,
{
    let store = Arc::new(Mutex::new(EventLogStore::new()));
    let stats = run_event_logger_on(mailbox, reply, Arc::new(AtomicU64::new(0)), store.clone());
    let store = Arc::try_unwrap(store)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone());
    (store, stats)
}

/// As [`run_event_logger`], but serving a caller-owned shared
/// ledger instead of a loop-local one. This is the replica shape: the
/// dispatcher keeps the `Arc` so that when a replica crashes, its ledger
/// survives the service thread — the revived replica catches up by
/// [`EventLogStore::absorb`]ing a live peer's snapshot into the same
/// store before its fresh service loop starts. The store lock is taken
/// once per service pass, never per packet.
///
/// After every pass the store's cumulative *unique*-event count
/// ([`EventLogStore::total_logged`]) is published into `events_ever`.
/// The counter is monotone across duplicates, replays and truncations,
/// which makes it the stable side of the conservation invariant the
/// chaos tests assert: the EL never double-counts a logical delivery,
/// no matter how many times crash recovery re-logs it.
pub fn run_event_logger_on<F>(
    mailbox: Mailbox<ElPacket>,
    mut reply: F,
    events_ever: Arc<AtomicU64>,
    store: Arc<Mutex<EventLogStore>>,
) -> ElServiceStats
where
    F: FnMut(Rank, ElReply) -> bool,
{
    let mut stats = ElServiceStats::default();
    // Revival announcement: a replica that starts over a non-empty
    // ledger (it absorbed a live peer's snapshot after a crash) re-acks
    // every owner's watermark unsolicited, as `Revived` so the owner
    // re-ships what the dead replica lost. Daemons whose pessimism gates
    // stalled during the sub-quorum window fold these into their quorum
    // watermarks and reopen without waiting for new traffic — without
    // this, a fully quiesced deployment could deadlock on a gate no new
    // Log request will ever come along to ack. Fresh replicas start
    // empty, so the launch path announces nothing.
    // (Announcements are unsolicited, so they are deliberately absent
    // from `stats.acks` — that counter reconciles against Log packets.)
    for (rank, up_to) in store.lock().watermarks() {
        let _ = reply(rank, ElReply::Revived { up_to });
    }
    let mut killed = false;
    while !killed {
        let first = match mailbox.recv() {
            Ok(p) => p,
            // A transient timeout is not a shutdown: the reliable node
            // keeps serving. Only a fail-stop kill ends the loop.
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Killed) => break,
        };
        let mut backlog = vec![first];
        loop {
            match mailbox.try_recv() {
                Ok(Some(p)) => backlog.push(p),
                Ok(None) => break,
                Err(_) => {
                    // Killed mid-drain: finish the requests already taken.
                    killed = true;
                    break;
                }
            }
        }

        // One coalesced ack per daemon per pass, in first-log order.
        let mut pending_acks: Vec<(Rank, u64)> = Vec::new();
        // Downloads are served after the pass's appends. On the
        // in-process fabric a reincarnation asks only after its
        // predecessor's death, and every batch the dead incarnation
        // shipped was queued before that death completed, so it is in
        // this pass or an earlier one. Served in lane order, the download
        // could miss some of them, which the store would then append
        // after the reincarnation had begun logging a different history
        // in their place. (Over sockets each connection has its own
        // reader thread, so a dead child's last frames can still be
        // unread when its successor's download arrives; this pass order
        // does not cover that case.)
        let mut downloads: Vec<(Rank, Rank, u64)> = Vec::new();
        let mut store = store.lock();
        let mut backlog = backlog.into_iter().peekable();
        while let Some(pkt) = backlog.next() {
            stats.requests += 1;
            match pkt.req {
                ElRequest::Log(mut batch) => {
                    // Merge the contiguous run of Log requests from this
                    // daemon for this owner into one store append. The
                    // merged-away packets are accounted in `merged_logs`
                    // only — counting them in `requests` too would
                    // double-book every packet of the run. A batch that
                    // does not continue the run in receiver-clock order
                    // starts its own append: two incarnations of the
                    // daemon, or a re-ship next to the retried original,
                    // can meet in one pass, and the store skips their
                    // stale events batch by batch.
                    while let Some(next) = backlog.peek() {
                        match &next.req {
                            ElRequest::Log(b)
                                if next.from == pkt.from
                                    && b.owner == batch.owner
                                    && continues(&batch, b) =>
                            {
                                let Some(ElPacket {
                                    req: ElRequest::Log(b),
                                    ..
                                }) = backlog.next()
                                else {
                                    unreachable!("peeked a Log")
                                };
                                stats.merged_logs += 1;
                                stats.coalesced_acks += 1;
                                batch.events.extend(b.events);
                            }
                            _ => break,
                        }
                    }
                    let up_to = store.log(batch);
                    match pending_acks.iter_mut().find(|(r, _)| *r == pkt.from) {
                        Some(slot) => {
                            slot.1 = slot.1.max(up_to);
                            stats.coalesced_acks += 1;
                        }
                        None => pending_acks.push((pkt.from, up_to)),
                    }
                }
                ElRequest::Download { rank, after_clock } => {
                    downloads.push((pkt.from, rank, after_clock))
                }
                ElRequest::Truncate { rank, up_to } => {
                    store.truncate(rank, up_to);
                }
            }
        }
        for (from, rank, after_clock) in downloads {
            stats.downloads += 1;
            // Best effort: the peer may have died; its restart will
            // re-download.
            let _ = reply(from, ElReply::Events(store.download(rank, after_clock)));
        }
        // Publish the unique-event count before the acks leave: once a
        // daemon has seen an ack, the covered events are visible in the
        // counter (the "acked implies counted" ordering the conservation
        // tests rely on).
        events_ever.store(store.total_logged(), Ordering::Release);
        drop(store);
        for (rank, up_to) in pending_acks {
            stats.acks += 1;
            let _ = reply(rank, ElReply::Ack { up_to });
        }
    }
    stats
}

/// Whether `next` extends `run` in strictly increasing receiver-clock
/// order, so the two append as one ordered batch.
fn continues(run: &EventBatch, next: &EventBatch) -> bool {
    match (run.events.last(), next.events.first()) {
        (Some(last), Some(first)) => last.receiver_clock < first.receiver_clock,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvr_core::{EventBatch, NodeId, ReceptionEvent};
    use mvr_net::Fabric;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn service_logs_and_acks() {
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(0);
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let (tx, rx) = mpsc::channel::<(Rank, ElReply)>();
        let h = thread::spawn(move || {
            run_event_logger(mb, move |r, reply| tx.send((r, reply)).is_ok())
        });

        let batch = EventBatch {
            owner: Rank(3),
            events: vec![ReceptionEvent {
                sender: Rank(1),
                sender_clock: 1,
                receiver_clock: 5,
                probes: 0,
            }],
        };
        fabric
            .send_from_reliable(
                el_node,
                ElPacket {
                    from: Rank(3),
                    req: ElRequest::Log(batch),
                },
            )
            .unwrap();
        let (to, reply) = rx.recv().unwrap();
        assert_eq!(to, Rank(3));
        assert_eq!(reply, ElReply::Ack { up_to: 5 });

        fabric
            .send_from_reliable(
                el_node,
                ElPacket {
                    from: Rank(3),
                    req: ElRequest::Download {
                        rank: Rank(3),
                        after_clock: 0,
                    },
                },
            )
            .unwrap();
        let (_, reply) = rx.recv().unwrap();
        assert!(matches!(reply, ElReply::Events(v) if v.len() == 1));

        fabric.kill(el_node);
        let (store, stats) = h.join().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.acks, 1);
        assert_eq!(stats.downloads, 1);
        assert_eq!(store.events_held(Rank(3)), 1);
    }

    #[test]
    fn a_download_sees_every_batch_its_dead_predecessor_shipped() {
        // Rank 3's first incarnation ships two batches and dies; its
        // reincarnation asks for its events before the EL has served
        // either batch. The two incarnations have a lane each, which the
        // EL drains round-robin: in lane order the download sits between
        // the two batches.
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(0);
        let rank = NodeId::Computing(Rank(3));
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let ev = |rc: u64| ReceptionEvent {
            sender: Rank(1),
            sender_clock: rc,
            receiver_clock: rc,
            probes: 0,
        };
        let log = |events: Vec<ReceptionEvent>| ElPacket {
            from: Rank(3),
            req: ElRequest::Log(EventBatch {
                owner: Rank(3),
                events,
            }),
        };
        let (_dead_mb, dead) = fabric.register::<()>(rank);
        dead.send(el_node, log(vec![ev(1), ev(2)])).unwrap();
        dead.send(el_node, log(vec![ev(3), ev(4)])).unwrap();
        fabric.kill(rank);
        let (_mb, reborn) = fabric.register::<()>(rank);
        let download = ElRequest::Download {
            rank: Rank(3),
            after_clock: 0,
        };
        reborn
            .send(
                el_node,
                ElPacket {
                    from: Rank(3),
                    req: download,
                },
            )
            .unwrap();
        let (tx, rx) = mpsc::channel::<(Rank, ElReply)>();
        let h = thread::spawn(move || {
            run_event_logger(mb, move |r, reply| tx.send((r, reply)).is_ok())
        });
        let events = loop {
            if let (_, ElReply::Events(v)) = rx.recv().unwrap() {
                break v;
            }
        };
        let clocks: Vec<u64> = events.iter().map(|e| e.receiver_clock).collect();
        assert_eq!(clocks, [1, 2, 3, 4], "the whole predecessor history");
        fabric.kill(el_node);
        h.join().unwrap();
    }

    #[test]
    fn backlog_drain_merges_logs_and_coalesces_acks() {
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(0);
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let (tx, rx) = mpsc::channel::<(Rank, ElReply)>();

        // Fill the mailbox BEFORE the service thread starts: the whole
        // backlog is then drained in one deterministic service pass.
        let ev = |rc: u64| ReceptionEvent {
            sender: Rank(1),
            sender_clock: rc,
            receiver_clock: rc,
            probes: 0,
        };
        for rc in 1..=3u64 {
            fabric
                .send_from_reliable(
                    el_node,
                    ElPacket {
                        from: Rank(3),
                        req: ElRequest::Log(EventBatch {
                            owner: Rank(3),
                            events: vec![ev(rc)],
                        }),
                    },
                )
                .unwrap();
        }
        let h = thread::spawn(move || {
            run_event_logger(mb, move |r, reply| tx.send((r, reply)).is_ok())
        });

        // Exactly one coalesced high-watermark ack for the three logs.
        let (to, reply) = rx.recv().unwrap();
        assert_eq!(to, Rank(3));
        assert_eq!(reply, ElReply::Ack { up_to: 3 });

        fabric.kill(el_node);
        let (store, stats) = h.join().unwrap();
        assert_eq!(stats.requests, 1, "the merged run is one request");
        assert_eq!(stats.acks, 1, "one ack per daemon per drain");
        assert_eq!(stats.merged_logs, 2, "logs 2 and 3 merged into log 1");
        assert_eq!(stats.coalesced_acks, 2);
        assert_eq!(
            stats.requests + stats.merged_logs,
            3,
            "every packet accounted exactly once"
        );
        assert_eq!(store.events_held(Rank(3)), 3);
        assert!(
            rx.try_recv().is_err(),
            "no further replies may have been produced"
        );
    }

    #[test]
    fn a_run_of_logs_out_of_clock_order_is_stored_batch_by_batch() {
        // One daemon's run in one pass: 2–3, then a re-ship of 3 (next
        // to its retried original), then 1 from a reincarnation replaying
        // behind its predecessor's last ship. Merging them blindly would
        // hand the store an unordered batch; each must append alone.
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(0);
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let (tx, rx) = mpsc::channel::<(Rank, ElReply)>();
        let ev = |rc: u64| ReceptionEvent {
            sender: Rank(1),
            sender_clock: rc,
            receiver_clock: rc,
            probes: 0,
        };
        for clocks in [vec![2, 3], vec![3], vec![1]] {
            let batch = EventBatch {
                owner: Rank(3),
                events: clocks.into_iter().map(ev).collect(),
            };
            let pkt = ElPacket {
                from: Rank(3),
                req: ElRequest::Log(batch),
            };
            fabric.send_from_reliable(el_node, pkt).unwrap();
        }
        let h = thread::spawn(move || {
            run_event_logger(mb, move |r, reply| tx.send((r, reply)).is_ok())
        });
        assert_eq!(rx.recv().unwrap(), (Rank(3), ElReply::Ack { up_to: 3 }));
        fabric.kill(el_node);
        let (store, stats) = h.join().expect("the service survives the run");
        assert_eq!(stats.requests, 3, "nothing merged out of order");
        assert_eq!(store.events_held(Rank(3)), 2, "the stale events skipped");
    }

    #[test]
    fn stats_reconcile_across_interleaved_daemons() {
        // Two daemons interleave Log packets in one backlog drain:
        //   A, A (contiguous: merged), B, A, B — the non-contiguous
        //   re-logs are separate requests whose acks coalesce into the
        //   daemon's pending high-watermark slot. The counters must
        //   reconcile packet-for-packet:
        //   requests + merged_logs == packets received,
        //   acks + coalesced_acks == Log packets received.
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(0);
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let (tx, rx) = mpsc::channel::<(Rank, ElReply)>();
        let log = |from: u32, rc: u64| ElPacket {
            from: Rank(from),
            req: ElRequest::Log(EventBatch {
                owner: Rank(from),
                events: vec![ReceptionEvent {
                    sender: Rank(9),
                    sender_clock: rc,
                    receiver_clock: rc,
                    probes: 0,
                }],
            }),
        };
        for pkt in [log(1, 1), log(1, 2), log(2, 1), log(1, 3), log(2, 2)] {
            fabric.send_from_reliable(el_node, pkt).unwrap();
        }
        let h = thread::spawn(move || {
            run_event_logger(mb, move |r, reply| tx.send((r, reply)).is_ok())
        });
        // One coalesced high-watermark ack per daemon.
        let mut acks = [rx.recv().unwrap(), rx.recv().unwrap()];
        acks.sort_by_key(|(r, _)| r.0);
        assert_eq!(acks[0], (Rank(1), ElReply::Ack { up_to: 3 }));
        assert_eq!(acks[1], (Rank(2), ElReply::Ack { up_to: 2 }));

        fabric.kill(el_node);
        let (store, stats) = h.join().unwrap();
        let packets = 5;
        let log_packets = 5;
        assert_eq!(stats.requests + stats.merged_logs, packets);
        assert_eq!(stats.acks + stats.coalesced_acks, log_packets);
        assert_eq!(stats.requests, 4, "A-run, B, A, B");
        assert_eq!(stats.merged_logs, 1, "only A1+A2 are contiguous");
        assert_eq!(stats.acks, 2);
        assert_eq!(stats.coalesced_acks, 3);
        assert_eq!(store.events_held(Rank(1)), 3);
        assert_eq!(store.events_held(Rank(2)), 2);
    }

    #[test]
    fn shared_store_survives_the_service_loop() {
        // The replica shape: the caller owns the ledger; killing the
        // service leaves every logged event in the shared store.
        let fabric = Fabric::new();
        let el_node = NodeId::EventLogger(7);
        let (mb, _id) = fabric.register::<ElPacket>(el_node);
        let store = Arc::new(Mutex::new(EventLogStore::new()));
        let events_ever = Arc::new(AtomicU64::new(0));
        let (st2, ev2) = (store.clone(), events_ever.clone());
        let h = thread::spawn(move || run_event_logger_on(mb, |_, _| true, ev2, st2));
        fabric
            .send_from_reliable(
                el_node,
                ElPacket {
                    from: Rank(0),
                    req: ElRequest::Log(EventBatch {
                        owner: Rank(0),
                        events: vec![ReceptionEvent {
                            sender: Rank(1),
                            sender_clock: 1,
                            receiver_clock: 1,
                            probes: 0,
                        }],
                    }),
                },
            )
            .unwrap();
        while events_ever.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        fabric.kill(el_node);
        let stats = h.join().unwrap();
        assert_eq!(stats.acks, 1);
        assert_eq!(store.lock().total_logged(), 1, "ledger outlives the loop");
    }
}
