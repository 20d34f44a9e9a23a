//! The Perfetto / `chrome://tracing` export of a merged timeline: one
//! `<stem>.trace.json` that `obs_analyze` writes next to the dump it
//! analyses, holding three layers on each rank's track (`pid` = rank):
//!
//! - `tid 0`: one instant (`"i"`) event per flight record, carrying the
//!   logical clock and the full event;
//! - `tid 1`: a complete (`"X"`) slice per measured interval — gate
//!   wait, EL ack round-trip, checkpoint store, replay — ending at the
//!   record that closed it ([`ProtocolTimings::observe`]);
//! - `tid 2`: a thin slice at every delivered message's send and at
//!   each of its deliveries, joined by a `"s"`/`"f"` flow arrow, so
//!   Perfetto draws the message's path across rank tracks.
//!
//! Each event is rendered by [`event`]: the vendored `serde_json` has
//! no heterogeneous `Value` serializer, so the fields every phase shares
//! are formatted here and only strings and the `ProtoEvent` go through
//! serde.

use crate::event::FlightRecord;
use crate::span::SpanSet;
use crate::timings::ProtocolTimings;
use std::path::Path;

/// One trace event on `track` (`(pid, tid)`): the fields every phase
/// carries, then the phase's own as a JSON fragment (`rest`, each field
/// with a leading comma).
fn event(ph: char, name: &str, cat: &str, ts_ns: u64, track: (u32, u8), rest: &str) -> String {
    let quote = |s: &str| serde_json::to_string(s).expect("strings serialize");
    let (name, cat, ts, (pid, tid)) = (quote(name), quote(cat), us(ts_ns), track);
    format!("{{\"name\":{name},\"cat\":{cat},\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}{rest}}}")
}

/// A complete (`"X"`) slice from `ts_ns`, `dur_ns` long.
fn slice(name: &str, cat: &str, ts_ns: u64, dur_ns: u64, track: (u32, u8), clock: u64) -> String {
    let rest = format!(",\"dur\":{},\"args\":{{\"clock\":{clock}}}", us(dur_ns));
    event('X', name, cat, ts_ns, track, &rest)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Write `timeline` and the flow arrows of its delivered `spans` as one
/// Chrome trace event file (load it in <https://ui.perfetto.dev>). See
/// the module docs for the track layout.
pub fn write_trace(path: &Path, timeline: &[FlightRecord], spans: &SpanSet) -> std::io::Result<()> {
    let mut events: Vec<String> = Vec::with_capacity(timeline.len());
    let mut intervals = ProtocolTimings::new();
    for rec in timeline {
        let (kind, phase, clock) = (rec.event.kind(), rec.event.phase(), rec.clock);
        let ev = serde_json::to_string(&rec.event).expect("records serialize");
        let args = format!(",\"s\":\"t\",\"args\":{{\"clock\":{clock},\"event\":{ev}}}");
        events.push(event('i', kind, phase, rec.ts_ns, (rec.rank, 0), &args));
        if let Some((name, ns)) = intervals.observe(&rec.event) {
            let start = rec.ts_ns.saturating_sub(ns);
            events.push(slice(name, phase, start, ns, (rec.rank, 1), clock));
        }
    }
    let mut id = 0u64;
    for (&(sender, sender_clock), span) in &spans.spans {
        let Some(send_ts) = span.send_ts.filter(|_| !span.deliveries.is_empty()) else {
            continue;
        };
        let name = format!("msg {sender}:{sender_clock}");
        // The thin slice each end of an arrow binds to.
        let endpoint = |pid, ts_ns, clock| slice(&name, "span", ts_ns, 1_000, (pid, 2), clock);
        events.push(endpoint(sender, send_ts, sender_clock));
        for leg in &span.deliveries {
            id += 1;
            let (to, cat) = (leg.receiver, if leg.replay { "replay" } else { "flow" });
            let arrow = format!(",\"bp\":\"e\",\"id\":{id}");
            events.push(endpoint(to, leg.ts_ns, leg.receiver_clock));
            events.push(event('s', &name, cat, send_ts + 500, (sender, 2), &arrow));
            events.push(event('f', &name, cat, leg.ts_ns + 500, (to, 2), &arrow));
        }
    }
    let body = format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    );
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProtoEvent, SendDisposition};

    fn rec(rank: u32, clock: u64, ts_ns: u64, event: ProtoEvent) -> FlightRecord {
        FlightRecord {
            rank,
            clock,
            ts_ns,
            event,
        }
    }

    #[test]
    fn one_file_holds_instants_measured_slices_and_flow_arrows() {
        // Rank 1's send waits 4µs behind the gate; rank 0's message to
        // rank 1 is delivered.
        let tl = vec![
            rec(
                0,
                1,
                1_000,
                ProtoEvent::Send {
                    to: 1,
                    clock: 1,
                    bytes: 8,
                    disposition: SendDisposition::Wire,
                },
            ),
            rec(
                1,
                1,
                2_000,
                ProtoEvent::Deliver {
                    from: 0,
                    sender_clock: 1,
                    receiver_clock: 1,
                    replay: false,
                },
            ),
            rec(
                1,
                2,
                2_500,
                ProtoEvent::GateDefer {
                    to: 0,
                    clock: 2,
                    queued: 1,
                },
            ),
            rec(
                1,
                2,
                6_500,
                ProtoEvent::GateOpen {
                    released: 1,
                    waited_ns: 4_000,
                },
            ),
        ];
        let dir = std::env::temp_dir().join("mvr-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.json");
        write_trace(&path, &tl, &SpanSet::build(&tl)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let count = |needle: &str| body.matches(needle).count();
        assert_eq!(count("\"ph\":\"i\""), tl.len(), "{body}");
        // One measured slice (the gate wait, 2.5µs..6.5µs) and the two
        // flow endpoints of the delivered message.
        assert_eq!(count("\"ph\":\"X\""), 3, "{body}");
        assert!(
            body.contains(
                r#"{"name":"gate-wait","cat":"gate","ph":"X","ts":2.5,"pid":1,"tid":1,"dur":4,"args":{"clock":2}}"#
            ),
            "{body}"
        );
        assert_eq!(count("\"ph\":\"s\""), 1, "{body}");
        assert_eq!(count("\"ph\":\"f\""), 1, "{body}");
        assert!(body.contains("msg 0:1"), "{body}");
        // The gated send never went out, so it draws no arrow.
        assert!(!body.contains("msg 1:2"), "{body}");
    }
}
