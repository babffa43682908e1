//! Tier-1 durability drill: cold restarts and power loss against the
//! on-disk storage engine.
//!
//! The storage engine's contract, exercised end to end:
//!
//! * A cold restart (new `Cluster` over the same data dir) recovers
//!   every topic, every `acks=all` record, and every checkpointed
//!   committed offset.
//! * A seeded power-loss fault under `FlushPolicy::PerBatch` loses no
//!   committed record: the torn suffix is bounded to unflushed bytes,
//!   and recovery truncates exactly that.
//! * Offsets stay monotonic across restarts — recovery never rewinds
//!   `end_offset` below what was acknowledged, and committed consumer
//!   offsets never move backwards.
//! * The chaos harness surfaces recovery stats in its report.
//! * Replicas store the leader's bytes: every follower's segment and
//!   index files equal the leader's, through rolls and a
//!   kill/restart/resync mid-run.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use octopus::broker::{
    AckLevel, BrokerId, Cluster, Compression, FlushPolicy, RecordBatch, TempDir, TopicConfig,
};
use octopus::chaos::{ChaosConfig, ChaosHarness, FaultKind, FaultPlan};
use octopus::types::Event;
use octopus::Octopus;

fn ev(seq: u64) -> Event {
    Event::from_bytes(seq.to_le_bytes().to_vec())
}

fn seq_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().expect("8-byte payload"))
}

fn durable_cluster(dir: &std::path::Path, policy: FlushPolicy) -> Cluster {
    Cluster::builder(3).data_dir(dir).flush_policy(policy).build()
}

#[test]
fn cold_restart_recovers_records_topics_and_offsets() {
    let tmp = TempDir::new("octopus-data-drill-cold-restart");
    let acked: Vec<u64> = (0..40).collect();
    {
        let c = durable_cluster(tmp.path(), FlushPolicy::PerBatch);
        c.create_topic("t", TopicConfig::default().with_partitions(2).with_replication(2))
            .unwrap();
        for &s in &acked {
            c.produce_batch("t", (s % 2) as u32, RecordBatch::new(vec![ev(s)]), AckLevel::All)
                .unwrap();
        }
        c.coordinator().commit_unchecked("g", "t", 0, 10);
        c.coordinator().commit_unchecked("g", "t", 1, 7);
        // no graceful shutdown call: PerBatch means the acks themselves
        // were the durability barrier
    }

    let c = durable_cluster(tmp.path(), FlushPolicy::PerBatch);
    assert!(c.topic_exists("t"), "topic survives the restart");
    assert_eq!(c.partition_count("t").unwrap(), 2);
    let mut survived = HashSet::new();
    for p in 0..2 {
        for r in c.fetch("t", p, 0, 1000).unwrap() {
            assert!(r.verify(), "recovered record fails its CRC");
            survived.insert(seq_of(&r.value));
        }
    }
    for s in &acked {
        assert!(survived.contains(s), "acks=all record {s} lost across cold restart");
    }
    assert_eq!(c.coordinator().committed("g", "t", 0), Some(10));
    assert_eq!(c.coordinator().committed("g", "t", 1), Some(7));
}

#[test]
fn power_loss_drill_loses_no_committed_record() {
    let tmp = TempDir::new("octopus-data-drill-power-loss");
    let c = durable_cluster(tmp.path(), FlushPolicy::PerBatch);
    c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(3))
        .unwrap();
    let mut acked = Vec::new();
    for s in 0..25u64 {
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev(s)]), AckLevel::All).unwrap();
        if r.persisted {
            acked.push(s);
        }
    }
    let victim = c.leader_broker("t", 0).unwrap();
    let report = c.power_loss_broker(victim, 0xC0FF_EE00_1234_5678).unwrap();
    assert!(report.partitions >= 1, "victim hosted the drill partition");
    // PerBatch fsyncs every acknowledged batch: nothing acked was
    // unflushed, so the tear has nothing committed to bite
    c.restart_broker(victim).unwrap();

    let end = c.latest_offset("t", 0).unwrap();
    assert!(end >= acked.len() as u64, "end offset rewound below the acked count");
    let survived: HashSet<u64> =
        c.fetch("t", 0, 0, 1000).unwrap().iter().map(|r| seq_of(&r.value)).collect();
    for s in &acked {
        assert!(survived.contains(s), "committed record {s} lost to power loss");
    }

    // offsets stay monotonic through a second full-cluster power cycle
    for id in 0..3 {
        let _ = c.power_loss_broker(BrokerId(id), id as u64);
    }
    for id in 0..3 {
        c.restart_broker(BrokerId(id)).unwrap();
    }
    assert!(c.latest_offset("t", 0).unwrap() >= end, "offset rewound after full power cycle");
    let survived: HashSet<u64> =
        c.fetch("t", 0, 0, 1000).unwrap().iter().map(|r| seq_of(&r.value)).collect();
    for s in &acked {
        assert!(survived.contains(s), "record {s} lost to the full-cluster power cycle");
    }
}

/// A partition directory's segment, index, and time-index files by
/// name, with their bytes.
fn segment_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            matches!(p.extension().and_then(|e| e.to_str()), Some("seg" | "index" | "timeindex"))
        })
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

#[test]
fn replicas_store_the_leaders_bytes_through_rolls_and_resync() {
    let tmp = TempDir::new("octopus-data-drill-replica-bytes");
    let c = durable_cluster(tmp.path(), FlushPolicy::PerBatch);
    c.create_topic(
        "t",
        TopicConfig::default()
            .with_partitions(1)
            .with_replication(3)
            .with_min_insync(2)
            .with_compression(Compression::Lz4)
            .with_segment_bytes(4096)
            .with_index_interval(512),
    )
    .unwrap();
    let produce = |batches: std::ops::Range<u64>| {
        for b in batches {
            let events = (0..4)
                .map(|i| {
                    let seq = b * 4 + i;
                    let mut payload = seq.to_le_bytes().to_vec();
                    let reading = format!(r#"{{"sensor":{seq},"celsius":21.5,"site":"alcf"}}"#);
                    payload.extend(reading.repeat(3).bytes());
                    Event::from_bytes(payload)
                })
                .collect();
            c.produce_batch("t", 0, RecordBatch::new(events), AckLevel::All).unwrap();
        }
    };
    let leader = c.leader_broker("t", 0).unwrap();
    let victim = BrokerId((leader.0 + 1) % 3);
    let other = BrokerId((leader.0 + 2) % 3);
    produce(0..30);
    c.kill_broker(victim).unwrap();
    produce(30..60);
    c.restart_broker(victim).unwrap();
    produce(60..90);
    assert_eq!(c.isr_of("t", 0).unwrap().len(), 3, "the restarted follower rejoined");

    let dir = |b: BrokerId| tmp.path().join(format!("broker-{}", b.0)).join("t").join("00000");
    let want = segment_files(&dir(leader));
    let segments = want.keys().filter(|f| f.ends_with(".seg")).count();
    assert!(segments >= 4, "only {segments} segments: the drill must roll several times");
    for (follower, role) in [(victim, "resynced"), (other, "in-sync")] {
        let got = segment_files(&dir(follower));
        assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "{role}");
        for (name, bytes) in &want {
            assert!(got[name] == *bytes, "{role} follower's {name} differs from the leader's");
        }
    }

    // fault injection on a follower sharing the leader's chunks leaves
    // the leader's records intact
    let served = c.fetch("t", 0, 0, 10_000).unwrap();
    assert_eq!(served.len(), 360);
    assert_eq!(c.corrupt_log_tail(other, "t", 0, 5).unwrap(), 5);
    let after = c.fetch("t", 0, 0, 10_000).unwrap();
    assert!(after.iter().all(|r| r.verify()), "corrupting a follower reached the leader");
    assert_eq!(after, served);

    // failover to the resynced follower serves the same records
    c.kill_broker(leader).unwrap();
    c.kill_broker(other).unwrap();
    assert_eq!(c.fetch("t", 0, 0, 10_000).unwrap(), served);
    assert_eq!(c.leader_broker("t", 0).unwrap(), victim);
}

#[test]
fn power_loss_drill_is_deterministic_under_a_fixed_seed() {
    let run = |dir: &std::path::Path| -> (u64, Vec<u64>) {
        let c = durable_cluster(dir, FlushPolicy::IntervalMs(10_000));
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(1))
            .unwrap();
        for s in 0..30u64 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(s)]), AckLevel::Leader).unwrap();
        }
        let report = c.power_loss_broker(BrokerId(0), 42).unwrap();
        c.restart_broker(BrokerId(0)).unwrap();
        let survivors =
            c.fetch("t", 0, 0, 1000).map(|v| v.iter().map(|r| seq_of(&r.value)).collect()).unwrap_or_default();
        (report.bytes_torn, survivors)
    };
    let tmp_a = TempDir::new("octopus-data-drill-seed-a");
    let tmp_b = TempDir::new("octopus-data-drill-seed-b");
    let a = run(tmp_a.path());
    let b = run(tmp_b.path());
    assert_eq!(a, b, "same seed, same workload: the tear must be identical");
    // with a 10s flush interval and no sync, the tear had unflushed
    // bytes to bite — otherwise this test is vacuous
    assert!(a.0 > 0, "expected a non-empty unflushed suffix to tear");
}

#[test]
fn chaos_report_carries_recovery_stats() {
    let tmp = TempDir::new("octopus-data-drill-chaos-recovery");
    let plan = FaultPlan::new(5)
        .at(25, FaultKind::PowerLoss { broker: 2, entropy: 99 })
        .at(80, FaultKind::BrokerRestart { broker: 2 });
    let report = ChaosHarness::new(plan)
        .with_config(ChaosConfig {
            data_dir: Some(tmp.path().to_path_buf()),
            flush_policy: FlushPolicy::PerBatch,
            drain_timeout: std::time::Duration::from_secs(10),
            ..ChaosConfig::default()
        })
        .run();
    report.assert_invariants();
    assert!(report.recovery.flushes > 0, "PerBatch deployment never fsynced");
    assert!(
        report.recovery.records_recovered > 0,
        "the post-power-loss restart recovered no records: {:?}",
        report.recovery
    );
    assert!(
        report.trace.entries.iter().any(|e| e.outcome.contains("power loss")),
        "power-loss fault never applied: {:?}",
        report.trace.entries
    );
}

#[test]
fn durable_deployment_via_octopus_builder_and_ows() {
    let tmp = TempDir::new("octopus-data-drill-octopus");
    let octo = Octopus::builder().data_dir(tmp.path()).flush_policy(FlushPolicy::PerBatch).build().unwrap();
    octo.register_provider("uchicago.edu", "University of Chicago");
    octo.register_user("alice@uchicago.edu", "pw").unwrap();
    let session = octo.login("alice@uchicago.edu", "pw").unwrap();
    session.client().register_topic("persisted", serde_json::Value::Null).unwrap();
    let producer = session.producer();
    producer.send_sync("persisted", Event::from_bytes(&b"survives"[..])).unwrap();

    // the OWS surface reports the durable configuration
    let info = octo.cluster().durability().expect("durable cluster");
    assert_eq!(info.flush_policy, FlushPolicy::PerBatch);
    assert_eq!(info.data_dir, tmp.path().display().to_string());

    // a fresh fabric over the same dir still has the record
    drop(producer);
    drop(octo);
    let c = Cluster::builder(2).data_dir(tmp.path()).build();
    assert!(c.topic_exists("persisted"));
    let recs = c.fetch("persisted", 0, 0, 10).unwrap();
    assert_eq!(&recs[0].value[..], b"survives");
}
