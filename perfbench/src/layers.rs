//! The layer replay: the batches the traced run captured on the wire,
//! fed in-process into each lower layer's public functions, so every
//! layer is timed on the same work.
//!
//! - `broker`: `Cluster::produce_batch` under the workload's topic
//!   config, again with rf=1, then `Cluster::fetch` at offsets spread
//!   over the whole log.
//! - `store`: `PartitionLog::append` with the workload's store options
//!   and flush policy, the serving read `PartitionLog::read`, and
//!   `PartitionStore::read_records(.., SeekMode::Indexed)`.
//! - `wire`: `Request`/`Response` encode + decode of the same batches
//!   and fetch results.
//! - `compression`: `compress`/`decompress` of each batch's payloads.
//!
//! Before any read timing is reported, the store read, the indexed
//! read, the broker fetch and the wire decode must return identical
//! records for the same offsets (all sides run on a manual clock, so
//! even append times agree).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use octopus_broker::{
    Cluster, Compression, FsColdStore, PartitionLog, Record, RecordBatch, SeekMode, StoreMetrics,
    StoreOptions, TempDir, TopicConfig,
};
use octopus_types::{ManualClock, MetricsRegistry, Offset, PartitionId, Timestamp};
use octopus_wire::{ApiKey, Request, Response};

use crate::stats::{us, Samples};
use crate::workload::{Workload, BROKERS, TOPIC};

/// Batches replayed into each layer (evenly spaced over the capture).
const REPLAY_BATCHES: usize = 600;
/// Read offsets per partition, spread from the log start to its end.
const READ_OFFSETS: u64 = 100;
/// Records per read (the consumer's `max_poll_records`).
const READ_MAX: usize = 500;
/// Timed passes over the read offsets.
const READ_ROUNDS: usize = 5;
/// Timed passes over the codec and compression inputs.
const CPU_ROUNDS: usize = 5;
/// The manual clock every replay leg appends at.
const REPLAY_TIME_MS: u64 = 1_700_000_000_000;

/// Per-layer timings from the replay, in microseconds unless named.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub batches: usize,
    pub events: usize,
    pub broker_produce_us: Samples,
    pub broker_produce_rf1_us: Samples,
    pub broker_fetch_us: Samples,
    /// Empty on volatile workloads (no store).
    pub store_append_us: Samples,
    pub store_read_us: Samples,
    /// Empty on volatile workloads (no store).
    pub store_indexed_read_us: Samples,
    pub codec_produce_us_per_event: f64,
    pub codec_fetch_us_per_record: f64,
    /// 0 when the workload does not compress.
    pub compress_mb_s: f64,
    pub decompress_mb_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t.elapsed()))
}

/// Up to `n` items evenly spaced over `items`, order kept.
fn spread<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n].clone()).collect()
}

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::new(Timestamp::from_millis(REPLAY_TIME_MS)))
}

/// A cluster shaped like the broker process's, on the manual clock.
fn cluster(w: &Workload, config: TopicConfig, data: Option<&Path>) -> Result<Cluster, String> {
    let mut b = Cluster::builder(BROKERS).clock(clock());
    if let (Some(dir), Some(policy)) = (data, w.flush) {
        b = b.data_dir(dir).flush_policy(policy);
    }
    let c = b.try_build().map_err(|e| format!("replay cluster: {e}"))?;
    c.create_topic(TOPIC, config)
        .map_err(|e| format!("replay topic: {e}"))?;
    Ok(c)
}

fn produce_all(
    c: &Cluster,
    w: &Workload,
    batches: &[(PartitionId, RecordBatch)],
) -> Result<Samples, String> {
    let mut s = Samples::new();
    for (p, batch) in batches {
        let batch = batch.clone();
        let (r, t) = timed(|| c.produce_batch(TOPIC, *p, batch, w.acks()));
        r.map_err(|e| format!("replay produce: {e}"))?;
        s.push(t);
    }
    Ok(s)
}

/// One partition log per partition, as a broker would host it.
fn store_logs(
    w: &Workload,
    data: Option<&Path>,
    cold: Option<&Path>,
) -> Result<Vec<PartitionLog>, String> {
    let registry = MetricsRegistry::new();
    (0..w.partitions)
        .map(|p| match (data, w.flush) {
            (Some(dir), Some(policy)) => {
                let opts = StoreOptions {
                    index_interval_bytes: w.index_interval_bytes,
                    compression: w.compression,
                    cold: cold.map(|c| Arc::new(FsColdStore::new(c)) as _),
                    cold_after_bytes: w.cold_after_bytes,
                };
                PartitionLog::open_durable_with(
                    w.segment_bytes,
                    dir.join(format!("p{p}")),
                    policy,
                    StoreMetrics::new(&registry),
                    opts,
                )
                .map(|(log, _)| log)
                .map_err(|e| format!("replay store: {e}"))
            }
            _ => Ok(PartitionLog::with_segment_bytes(w.segment_bytes)),
        })
        .collect()
}

/// Run every leg on `captured` (the traced run's produced batches).
pub fn replay(
    w: &Workload,
    captured: &[(PartitionId, RecordBatch)],
) -> Result<LayerReport, String> {
    let batches = spread(captured, REPLAY_BATCHES);
    if batches.is_empty() {
        return Err("the traced run captured no batches".into());
    }
    let mut r = LayerReport {
        batches: batches.len(),
        events: batches.iter().map(|(_, b)| b.events.len()).sum(),
        ..LayerReport::default()
    };

    // broker: workload config, then the rf=1 reference
    let data = w.durable().then(|| TempDir::new("octopus-data"));
    let c = cluster(w, w.topic_config(), data.as_ref().map(|d| d.path()))?;
    r.broker_produce_us = produce_all(&c, w, &batches)?;
    {
        let data1 = w.durable().then(|| TempDir::new("octopus-data"));
        let c1 = cluster(w, w.topic_config_rf1(), data1.as_ref().map(|d| d.path()))?;
        r.broker_produce_rf1_us = produce_all(&c1, w, &batches)?;
    }

    // store: the same batches appended at the same clock
    let store_dir = w.durable().then(|| TempDir::new("octopus-data"));
    let cold_dir = w
        .cold_after_bytes
        .is_some()
        .then(|| TempDir::new("octopus-cold"));
    let mut logs = store_logs(
        w,
        store_dir.as_ref().map(|d| d.path()),
        cold_dir.as_ref().map(|d| d.path()),
    )?;
    let now = Timestamp::from_millis(REPLAY_TIME_MS);
    for (p, batch) in &batches {
        let log = &mut logs[*p as usize];
        let (res, t) = timed(|| log.append(batch, now));
        res.map_err(|e| format!("replay append: {e}"))?;
        if w.durable() {
            r.store_append_us.push(t);
        }
    }

    read_legs(w, &c, &logs, &mut r)?;
    codec_leg(w, &batches, &mut r)?;
    if w.compression == Compression::Lz4 {
        compression_leg(&batches, &mut r)?;
    }
    Ok(r)
}

/// Offsets spread over `[start, end)`.
fn read_offsets(start: Offset, end: Offset) -> Vec<Offset> {
    if end <= start {
        return Vec::new();
    }
    let n = READ_OFFSETS.min(end - start);
    (0..n).map(|i| start + i * (end - start) / n).collect()
}

fn read_legs(
    w: &Workload,
    c: &Cluster,
    logs: &[PartitionLog],
    r: &mut LayerReport,
) -> Result<(), String> {
    let mut fetched_records = 0usize;
    let mut fetch_codec_us = 0.0;
    for round in 0..READ_ROUNDS {
        for (p, log) in logs.iter().enumerate() {
            let p = p as PartitionId;
            for off in read_offsets(log.start_offset(), log.end_offset()) {
                let (served, t) = timed(|| log.read(off, READ_MAX));
                let served = served.map_err(|e| format!("store read: {e}"))?;
                r.store_read_us.push(t);
                let indexed = match log.store() {
                    Some(store) => {
                        let (recs, t) =
                            timed(|| store.read_records(off, READ_MAX, SeekMode::Indexed));
                        r.store_indexed_read_us.push(t);
                        Some(recs.map_err(|e| format!("indexed read: {e}"))?)
                    }
                    None => None,
                };
                let (fetched, t) = timed(|| c.fetch(TOPIC, p, off, READ_MAX));
                let fetched = fetched.map_err(|e| format!("broker fetch: {e}"))?;
                r.broker_fetch_us.push(t);
                let (decoded, t) = timed(|| {
                    let bytes = Response::Fetch {
                        records: fetched.clone(),
                    }
                    .encode();
                    Response::decode(ApiKey::Fetch, &bytes)
                });
                fetch_codec_us += t;
                fetched_records += fetched.len();
                if round == 0 {
                    let decoded = match decoded {
                        Ok(Response::Fetch { records }) => records,
                        other => return Err(format!("fetch decode: {other:?}")),
                    };
                    agree(w, p, off, &served, indexed.as_deref(), &fetched, &decoded)?;
                }
            }
        }
    }
    r.codec_fetch_us_per_record = fetch_codec_us / fetched_records.max(1) as f64;
    Ok(())
}

/// The layer-replay agreement check.
fn agree(
    w: &Workload,
    p: PartitionId,
    off: Offset,
    served: &[Record],
    indexed: Option<&[Record]>,
    fetched: &[Record],
    decoded: &[Record],
) -> Result<(), String> {
    let at = format!("{} partition {p} offset {off}", w.name);
    if served.is_empty() {
        return Err(format!("{at}: the store read returned nothing"));
    }
    if fetched != served {
        return Err(format!("{at}: broker fetch and store read disagree"));
    }
    if decoded != served {
        return Err(format!("{at}: wire decode and store read disagree"));
    }
    if indexed.is_some_and(|i| i != served) {
        return Err(format!("{at}: indexed read and serving read disagree"));
    }
    Ok(())
}

fn codec_leg(
    w: &Workload,
    batches: &[(PartitionId, RecordBatch)],
    r: &mut LayerReport,
) -> Result<(), String> {
    let mut per_round = Samples::new();
    for _ in 0..CPU_ROUNDS {
        let mut total = 0.0;
        for (p, batch) in batches {
            let req = Request::Produce {
                topic: TOPIC.to_string(),
                partition: *p,
                batch: batch.clone(),
                acks: w.acks(),
            };
            let (decoded, t) = timed(|| Request::decode(ApiKey::Produce, &req.encode()));
            total += t;
            if decoded.as_ref() != Ok(&req) {
                return Err(format!(
                    "{}: produce request does not survive the codec",
                    w.name
                ));
            }
        }
        per_round.push(total / r.events as f64);
    }
    r.codec_produce_us_per_event = per_round.p50();
    Ok(())
}

fn compression_leg(
    batches: &[(PartitionId, RecordBatch)],
    r: &mut LayerReport,
) -> Result<(), String> {
    let raws: Vec<Vec<u8>> = batches
        .iter()
        .map(|(_, b)| {
            b.events
                .iter()
                .flat_map(|e| e.payload.iter().copied())
                .collect()
        })
        .collect();
    let mb = raws.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6;
    let (mut comp, mut decomp) = (Samples::new(), Samples::new());
    for _ in 0..CPU_ROUNDS {
        let (packed, t) = timed(|| {
            raws.iter()
                .map(|b| octopus_compression::compress(b))
                .collect::<Vec<_>>()
        });
        comp.push(mb / (t / 1e6));
        let (unpacked, t) = timed(|| {
            packed
                .iter()
                .zip(&raws)
                .map(|(c, raw)| octopus_compression::decompress(c, raw.len()))
                .collect::<Vec<_>>()
        });
        decomp.push(mb / (t / 1e6));
        for (u, raw) in unpacked.into_iter().zip(&raws) {
            if u.as_ref() != Ok(raw) {
                return Err("compression round trip changed a batch".into());
            }
        }
    }
    r.compress_mb_s = comp.p50();
    r.decompress_mb_s = decomp.p50();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_keeps_order_and_bounds() {
        let v: Vec<u32> = (0..10).collect();
        assert_eq!(spread(&v, 20), v);
        assert_eq!(spread(&v, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(read_offsets(10, 13), vec![10, 11, 12]);
        assert!(read_offsets(5, 5).is_empty());
    }

    /// `n` batches of 20 events, alternating partitions, as the SDK
    /// would dispatch them.
    fn captured(w: &Workload, n: u64) -> Vec<(PartitionId, RecordBatch)> {
        let g = crate::workload::Generator::new(w, 5);
        let keys = crate::workload::partition_keys(w.partitions);
        let parts = w.partitions as u64;
        (0..n)
            .map(|b| {
                let p = b % parts;
                let events = (0..20)
                    .map(|i| {
                        let seq = (b / parts * 20 + i) * parts + p;
                        octopus_types::Event::builder()
                            .key(keys[p as usize].clone())
                            .payload(g.payload(seq, 0))
                            .build()
                    })
                    .collect();
                (p as PartitionId, RecordBatch::new(events))
            })
            .collect()
    }

    #[test]
    fn every_workload_replays_with_the_layers_in_agreement() {
        for name in crate::workload::NAMES {
            let w = Workload::by_name(name).unwrap();
            let r = replay(&w, &captured(&w, 40)).unwrap();
            assert_eq!(r.batches, 40, "{name}");
            assert_eq!(r.broker_fetch_us.len(), r.store_read_us.len(), "{name}");
            assert_eq!(r.store_append_us.len() > 0, w.durable(), "{name}");
            assert_eq!(
                r.compress_mb_s > 0.0,
                w.compression == Compression::Lz4,
                "{name}"
            );
        }
    }

    #[test]
    fn disagreeing_layers_are_refused() {
        let w = Workload::by_name("small-events").unwrap();
        let c = cluster(&w, w.topic_config(), None).unwrap();
        for (p, batch) in captured(&w, 2) {
            c.produce_batch(TOPIC, p, batch, w.acks()).unwrap();
        }
        let served = c.fetch(TOPIC, 0, 0, 10).unwrap();
        assert!(agree(&w, 0, 0, &served, None, &served, &served).is_ok());
        let mut other = served.clone();
        other[3].value = b"tampered".to_vec().into();
        assert!(agree(&w, 0, 0, &served, None, &other, &served).is_err());
        assert!(agree(&w, 0, 0, &served, None, &served, &other).is_err());
        assert!(agree(&w, 0, 0, &served, Some(&other), &served, &served).is_err());
        assert!(agree(&w, 0, 0, &[], None, &[], &[]).is_err());
    }
}
