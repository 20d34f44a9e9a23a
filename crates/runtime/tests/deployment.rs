//! Deployment-variation tests on the real runtime: multiple event
//! loggers, the adaptive checkpoint policy, restart-delay handling, and
//! the Cannon kernel (2-D torus) under crashes.

use mvr_ckpt::Policy;
use mvr_core::{Payload, Rank};
use mvr_runtime::{run_cluster, Cluster, ClusterConfig, NodeMpi, SchedulerConfig};
use mvr_workloads::apps::{allreduce_app, check, check_ring, expected_allreduce, ring_app};
use mvr_workloads::{cannon, cannon_reference_checksum, CannonConfig, CannonState};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn cannon_app(n: usize) -> impl Fn(&mut NodeMpi, Option<Payload>) -> mvr_mpi::MpiResult<Payload> {
    move |mpi, restored| {
        let st: Option<CannonState> = restored.map(|p| bincode::deserialize(p.as_slice()).unwrap());
        let sum = cannon(mpi, &CannonConfig { n }, st)?;
        Ok(Payload::from_vec(sum.to_le_bytes().to_vec()))
    }
}

fn check_cannon(results: &[Payload], n: usize) {
    let expect = cannon_reference_checksum(n);
    for (r, p) in results.iter().enumerate() {
        let got = f64::from_le_bytes(p.as_slice().try_into().unwrap());
        assert!((got - expect).abs() < 1e-6, "rank {r}: {got} vs {expect}");
    }
}

#[test]
fn cannon_runs_fault_free_on_the_runtime() {
    let results = run_cluster(
        ClusterConfig {
            world: 4,
            ..Default::default()
        },
        cannon_app(24),
        TIMEOUT,
    )
    .unwrap();
    check_cannon(&results, 24);
}

#[test]
fn cannon_survives_crashes_on_a_3x3_torus() {
    let cfg = ClusterConfig {
        world: 9,
        checkpointing: Some(SchedulerConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, cannon_app(36));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(8));
        handle.kill(Rank(4)); // the torus centre
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(0));
    });
    let results = cluster.wait(TIMEOUT).expect("Cannon recovers");
    killer.join().unwrap();
    check_cannon(&results, 36);
}

#[test]
fn multiple_event_loggers_partition_the_ranks() {
    // §4.5: "several event loggers may be used in a system, but every
    // communication daemon must be connected to exactly one event logger."
    let cfg = ClusterConfig {
        world: 6,
        el_shards: 3,
        ..Default::default()
    };
    let app = |mpi: &mut NodeMpi, _restored: Option<Payload>| {
        let sum = mpi.allreduce(mvr_mpi::ReduceOp::Sum, &[mpi.rank().0 as u64 + 1])?;
        let mut acc = 0u64;
        for i in 0..200u64 {
            let s = mpi.allreduce(mvr_mpi::ReduceOp::Sum, &[i])?;
            acc = acc.wrapping_add(s[0]);
        }
        Ok(Payload::from_vec((sum[0] + acc).to_le_bytes().to_vec()))
    };
    let cluster = Cluster::launch(cfg, app);
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(6));
        handle.kill(Rank(5));
        std::thread::sleep(Duration::from_millis(6));
        handle.kill(Rank(2));
    });
    let results = cluster.wait(TIMEOUT).expect("multi-EL deployment recovers");
    killer.join().unwrap();
    let expect = 21 + (0..200u64).map(|i| i * 6).sum::<u64>();
    for p in &results {
        assert_eq!(u64::from_le_bytes(p.as_slice().try_into().unwrap()), expect);
    }
}

#[test]
fn adaptive_checkpoint_policy_on_the_runtime() {
    let cfg = ClusterConfig {
        world: 4,
        checkpointing: Some(SchedulerConfig {
            policy: Policy::Adaptive,
            interval: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, cannon_app(24));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        handle.kill(Rank(1));
    });
    let results = cluster.wait(TIMEOUT).expect("adaptive policy run recovers");
    killer.join().unwrap();
    check_cannon(&results, 24);
}

#[test]
fn restart_delay_is_respected() {
    let cfg = ClusterConfig {
        world: 3,
        restart_delay: Duration::from_millis(20),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, allreduce_app(300));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        handle.kill(Rank(1));
    });
    let results = cluster
        .wait(TIMEOUT)
        .expect("completes with delayed restart");
    killer.join().unwrap();
    check(&results, |_| expected_allreduce(3, 300)).unwrap();
}

#[test]
fn killing_the_event_logger_halts_the_system() {
    // The EL is the single component that must be reliable (§4.3): with
    // it gone, pessimistic logging cannot proceed and the system stalls
    // rather than violating the protocol.
    let cfg = ClusterConfig {
        world: 3,
        ..Default::default()
    };
    let app = |mpi: &mut NodeMpi, _restored: Option<Payload>| {
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            let s = mpi.allreduce(mvr_mpi::ReduceOp::Sum, &[i])?;
            acc = acc.wrapping_add(s[0]);
        }
        Ok(Payload::from_vec(acc.to_le_bytes().to_vec()))
    };
    let cluster = Cluster::launch(cfg, app);
    let fabric_kill = {
        let handle = cluster.fault_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            // No public API kills the EL (it is assumed reliable); reach
            // through the fault handle's fabric via a dedicated method.
            handle.kill_event_logger(0);
        })
    };
    let err = cluster
        .wait(Duration::from_secs(3))
        .expect_err("system must stall without the EL");
    fabric_kill.join().unwrap();
    assert!(
        matches!(err, mvr_runtime::ClusterError::Timeout(_)),
        "{err:?}"
    );
}

#[test]
fn wait_report_counts_reincarnations() {
    let cfg = ClusterConfig {
        world: 3,
        ..Default::default()
    };
    let app = |mpi: &mut NodeMpi, _restored: Option<Payload>| {
        let mut acc = 0u64;
        for i in 0..400u64 {
            let s = mpi.allreduce(mvr_mpi::ReduceOp::Sum, &[i])?;
            acc = acc.wrapping_add(s[0]);
        }
        Ok(Payload::from_vec(acc.to_le_bytes().to_vec()))
    };
    let cluster = Cluster::launch(cfg, app);
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        handle.kill(Rank(2));
        std::thread::sleep(Duration::from_millis(5));
        handle.kill(Rank(1));
    });
    let report = cluster.wait_report(TIMEOUT).expect("completes");
    killer.join().unwrap();
    assert_eq!(report.results.len(), 3);
    // The kills may land before launch completes or after the run ends;
    // when they land mid-run, each costs one reincarnation.
    assert!(
        report.restarts <= 4,
        "unexpected restart storm: {}",
        report.restarts
    );
    let expect: u64 = (0..400u64).map(|i| 3 * i).sum();
    for p in &report.results {
        assert_eq!(u64::from_le_bytes(p.as_slice().try_into().unwrap()), expect);
    }
}

#[test]
fn sixteen_rank_ring_with_scattered_kills() {
    // A larger deployment: 16 ranks (32 threads + services), three kills.
    let cfg = ClusterConfig {
        world: 16,
        el_shards: 2,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, ring_app(150));
    let handle = cluster.fault_handle();
    let killer = std::thread::spawn(move || {
        for (ms, v) in [(8u64, 3u32), (6, 11), (6, 7)] {
            std::thread::sleep(Duration::from_millis(ms));
            handle.kill(Rank(v));
        }
    });
    let results = cluster.wait(TIMEOUT).expect("16-rank ring recovers");
    killer.join().unwrap();
    check_ring(&results, 150).unwrap();
}

/// A description with a zero count never launches, on either backend,
/// and the refusal names the field.
#[test]
fn both_launchers_refuse_a_zero_count_by_name() {
    use mvr_runtime::proc::{run_proc, ProcError};
    type Zero = fn(&mut ClusterConfig);
    let zeroed: [(Zero, &str); 3] = [
        (|c| c.world = 0, "world"),
        (|c| c.el_shards = 0, "el_shards"),
        (|c| c.el_replicas = 0, "el_replicas"),
    ];
    for (zero, field) in zeroed {
        let mut cfg = ClusterConfig::new(2, "never launched");
        zero(&mut cfg);
        match run_proc(cfg.clone()) {
            Err(ProcError::Launch(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
            other => panic!("{field} = 0 must not launch: {other:?}"),
        }
        let launch = std::panic::catch_unwind(|| {
            Cluster::launch(cfg, |_: &mut NodeMpi, _: Option<Payload>| {
                Ok(Payload::from_vec(Vec::new()))
            })
        });
        let panic = launch.err().expect("in-process launch must refuse");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains(field), "{field}: {msg}");
    }
}
