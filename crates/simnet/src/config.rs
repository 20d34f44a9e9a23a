//! The calibrated cluster model.
//!
//! Constants are calibrated to the paper's testbed (§5): 32 Athlon XP
//! 1800+ computing nodes and dual-PIII auxiliary nodes on a 48-port
//! 100 Mbit/s Ethernet switch, MPICH 1.2.5.
//!
//! Calibration anchors from the paper's measurements:
//! * P4 0-byte one-way latency 77 µs ⇒ per-message software cost
//!   ~35 µs on each side + ~7 µs of wire/switch latency;
//! * P4 peak ping-pong bandwidth 11.3 MB/s (of the 12.5 MB/s line rate);
//! * V2 0-byte latency 237 µs ⇒ the send is gated behind the event-logger
//!   round-trip (3 serialized messages per direction ≈ 3 × 77);
//! * V2 peak bandwidth 10.7 MB/s ⇒ the sender-based payload copy costs
//!   about (1/10.7 − 1/11.3) µs/byte ⇒ ~200 MB/s effective copy rate;
//! * the MPICH 1.2.5 eager→rendezvous switch at 128 000 bytes
//!   (the Fig. 10 non-linearity between 64 kB and 128 kB) — not a
//!   setting here: the simulated ranks run `mvr-mpi`'s core, and it is
//!   `mvr_mpi::RNDV_THRESHOLD`;
//! * per-node message-log budget 1 GB RAM + 1 GB IDE disk, runs aborted
//!   beyond 2 GB (the FT-class-B case).

use crate::time::{usecs, SimTime};
use serde::{Deserialize, Serialize};

/// Which protocol stack the simulated daemons run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// MPICH-P4: direct sockets, no fault tolerance, half-duplex driver,
    /// payload pushed during `MPI_Isend`.
    P4,
    /// MPICH-V1: every message store-and-forwarded through the receiver's
    /// Channel Memory (message granularity).
    V1,
    /// MPICH-V2: direct transfer + sender-based copy + event-logger ack
    /// gating; full-duplex driver; transfer under `MPI_Wait`.
    V2,
}

impl Protocol {
    /// All protocols, for sweeps.
    pub fn all() -> [Protocol; 3] {
        [Protocol::P4, Protocol::V1, Protocol::V2]
    }

    /// Display name used in reports (matching the paper's labels).
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::P4 => "MPICH-P4",
            Protocol::V1 => "MPICH-V1",
            Protocol::V2 => "MPICH-V2",
        }
    }
}

/// The cluster cost model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Number of computing nodes.
    pub nodes: usize,
    /// Per-stage effective TCP bandwidth (bytes/s). Calibrated so the P4
    /// ping-pong peaks at 11.3 MB/s.
    pub bandwidth: u64,
    /// Per-message software cost on the send side (ns).
    pub send_overhead: SimTime,
    /// Per-message software cost on the receive side (ns).
    pub recv_overhead: SimTime,
    /// Wire + switch latency (ns).
    pub wire_latency: SimTime,
    /// Chunk size for pipelined transfers (bytes). Controls duplex
    /// interleaving granularity, not throughput.
    pub chunk_bytes: u64,
    /// P4 only: kernel socket-buffer size. Sends that fit return after a
    /// memcpy and the kernel keeps the connection full-duplex; larger
    /// sends block the driver in `write()`, serializing the connection's
    /// two directions (the Fig. 9 half-duplex effect).
    pub p4_socket_buffer: u64,
    /// V2 only: effective bandwidth of the sender-based payload copy
    /// while the log lives in RAM (bytes/s).
    pub log_copy_bw: u64,
    /// V2 only: copy bandwidth once the log has spilled to disk (bytes/s;
    /// 2003-era IDE writes — the LU effect).
    pub log_disk_bw: u64,
    /// V2 only: RAM budget for the message log (bytes).
    pub log_ram_budget: u64,
    /// V2 only: absolute log capacity; beyond it the run is infeasible
    /// (bytes; "a maximum storage size of 2 GB per node").
    pub log_capacity: u64,
    /// V2 only: compute-stretch factor applied while the log is spilling
    /// to disk (the daemon competes with the MPI process for the CPU).
    pub disk_contention: f64,
    /// V2 only: `MPI_Isend` posting cost (ns) — the "notification".
    pub isend_post_cost: SimTime,
    /// Event-logger service time per request, on top of message costs (ns).
    pub el_service: SimTime,
    /// Size of one reception-event record on the wire (bytes).
    pub event_bytes: u64,
    /// V2 only: maximum reception events a daemon accumulates before
    /// shipping them to the event logger as one batch. `1` reproduces the
    /// paper's eager per-event logging (the calibration baseline); larger
    /// values enable lazy batching — events still close the pessimism
    /// gate at delivery, but the EL round-trip is paid per *batch*, with
    /// a forced flush whenever a send queues behind the gate.
    pub el_batch_max: u64,
    /// Number of event-logger shards (ranks are partitioned round-robin).
    pub event_loggers: usize,
    /// V2 only: replicas per event-logger shard. Each shipped batch fans
    /// out to every replica of the owner's shard and the pessimism gate
    /// reopens on the *quorum* ack (majority of replicas), so replication
    /// multiplies EL wire traffic and rank tx-lane pressure without
    /// stretching the gate when replicas are symmetric. `1` reproduces
    /// the paper's unreplicated deployment on the exact same event
    /// sequence (the figure-5/6 calibration baseline).
    pub el_replicas: usize,
    /// Number of Channel Memories for V1 (the paper used N/4; each CM
    /// serves ranks round-robin). 0 means one CM per rank.
    pub channel_memories: usize,
    /// Checkpoint-server transfer bandwidth (bytes/s), sharing the node's
    /// tx lane with application traffic.
    pub ckpt_bandwidth: u64,
    /// Fixed restart overhead (process spawn, reconnection) (ns).
    pub restart_overhead: SimTime,
    /// Fixed per-process state size included in every checkpoint image
    /// (bytes) — the application memory footprint.
    pub process_state_bytes: u64,
}

impl ClusterConfig {
    /// The paper's cluster, for `nodes` computing nodes under `protocol`.
    pub fn paper_cluster(protocol: Protocol, nodes: usize) -> Self {
        ClusterConfig {
            protocol,
            nodes,
            bandwidth: 11_300_000,
            send_overhead: usecs(35),
            recv_overhead: usecs(35),
            wire_latency: usecs(7),
            chunk_bytes: 16 * 1024,
            p4_socket_buffer: 60 * 1024,
            log_copy_bw: 200_000_000,
            log_disk_bw: 15_000_000,
            log_ram_budget: 1 << 30,
            log_capacity: 2 << 30,
            disk_contention: 1.35,
            isend_post_cost: usecs(5),
            el_service: usecs(4),
            event_bytes: 20,
            el_batch_max: 1,
            event_loggers: 1,
            el_replicas: 1,
            channel_memories: 0,
            ckpt_bandwidth: 11_300_000,
            restart_overhead: crate::time::msecs(500),
            process_state_bytes: 32 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_anchors() {
        let c = ClusterConfig::paper_cluster(Protocol::P4, 2);
        // 0-byte one-way latency = send + wire + recv = 77 µs.
        assert_eq!(
            c.send_overhead + c.wire_latency + c.recv_overhead,
            usecs(77)
        );
        assert_eq!(c.bandwidth, 11_300_000);
        // Copy-rate calibration: 1/bw + 1/copy ≈ 1/10.7 MB/s.
        let v2_rate = 1.0 / (1.0 / c.bandwidth as f64 + 1.0 / c.log_copy_bw as f64);
        assert!(
            (v2_rate - 10_700_000.0).abs() < 300_000.0,
            "v2 asymptote {v2_rate}"
        );
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::P4.label(), "MPICH-P4");
        assert_eq!(Protocol::all().len(), 3);
    }
}
