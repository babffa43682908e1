//! The three workloads and the seeded event generator.
//!
//! Every generated event carries its own sequence number, its due time
//! and a checksum in the payload, so the consumer side can time it and
//! the oracle can check it without any side channel:
//!
//! ```text
//! [0..8)   seq     u64 LE   generator order, dense from 0
//! [8..16)  due_ns  u64 LE   open-loop due time (ns since the bench epoch), 0 = untimed
//! [16..20) crc32c  u32 LE   over bytes [0..16) and [20..)
//! [20..)   body             seeded: random bytes, or JSON telemetry
//! ```

use std::time::Duration;

use octopus_broker::{key_partition, AckLevel, Compression, Crc32c, FlushPolicy, TopicConfig};
use octopus_sdk::ProducerConfig;

/// Bytes in front of the body: seq, due time, checksum.
pub const HEADER_BYTES: usize = 20;

/// The topic every workload writes.
pub const TOPIC: &str = "bench";

/// Brokers in the cluster the broker process hosts.
pub const BROKERS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Incompressible seeded bytes.
    Random,
    /// Compressible JSON telemetry (repeated keys, similar readings).
    Json,
}

/// One benchmark workload: the topic shape, the producer settings and
/// the open-loop rate.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Total payload bytes per event (header included).
    pub event_bytes: usize,
    pub body: Body,
    pub partitions: u32,
    pub replication: u32,
    pub min_insync: u32,
    /// `None` = volatile brokers (no data dir).
    pub flush: Option<FlushPolicy>,
    pub compression: Compression,
    pub segment_bytes: usize,
    pub index_interval_bytes: u64,
    pub cold_after_bytes: Option<u64>,
    pub idempotent: bool,
    /// Fixed open-loop send rate, events/s.
    pub open_rate: f64,
    /// Sizes the closed loop: it sends this many events per second of
    /// its share of `--seconds` (about what the parent commit sustains),
    /// so every run stores the same volume.
    pub closed_sizing_rate: f64,
    /// Events written into the topic during set-up (deep backlog).
    pub prefill: u64,
}

pub const NAMES: [&str; 3] = ["small-events", "durable-eos", "deep-replay"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = TopicConfig::default();
        let w = match name {
            // Table III row 1: small events, acks=1, rf=3, in memory.
            "small-events" => Workload {
                name: "small-events",
                event_bytes: 64,
                body: Body::Random,
                partitions: 2,
                replication: 3,
                min_insync: 1,
                flush: None,
                compression: Compression::None,
                segment_bytes: base.segment_bytes,
                index_interval_bytes: 0,
                cold_after_bytes: None,
                idempotent: false,
                open_rate: 20_000.0,
                closed_sizing_rate: 60_000.0,
                prefill: 0,
            },
            // The paper's reliability configuration: idempotent
            // producer (acks=all), rf=3, min-ISR 2, fsync per batch, lz4.
            "durable-eos" => Workload {
                name: "durable-eos",
                event_bytes: 1024,
                body: Body::Json,
                partitions: 2,
                replication: 3,
                min_insync: 2,
                flush: Some(FlushPolicy::PerBatch),
                compression: Compression::Lz4,
                segment_bytes: base.segment_bytes,
                index_interval_bytes: 0,
                cold_after_bytes: None,
                idempotent: true,
                open_rate: 2_000.0,
                closed_sizing_rate: 8_000.0,
                prefill: 0,
            },
            // Reads beside writes on the store, no replication: a deep
            // backlog in small sealed segments, most of them offloaded
            // cold, replayed from earliest while the producer writes.
            "deep-replay" => Workload {
                name: "deep-replay",
                event_bytes: 512,
                body: Body::Random,
                partitions: 2,
                replication: 1,
                min_insync: 1,
                flush: Some(FlushPolicy::OsManaged),
                compression: Compression::None,
                segment_bytes: 256 * 1024,
                index_interval_bytes: 4096,
                cold_after_bytes: Some(2 * 1024 * 1024),
                idempotent: false,
                open_rate: 5_000.0,
                closed_sizing_rate: 30_000.0,
                prefill: 150_000,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The topic configuration the broker process creates.
    pub fn topic_config(&self) -> TopicConfig {
        let mut c = TopicConfig::default()
            .with_partitions(self.partitions)
            .with_replication(self.replication)
            .with_min_insync(self.min_insync)
            .with_segment_bytes(self.segment_bytes)
            .with_index_interval(self.index_interval_bytes)
            .with_compression(self.compression);
        if let Some(bytes) = self.cold_after_bytes {
            c = c.with_cold_after(bytes);
        }
        c
    }

    /// The same topic with one replica: the rf=1 reference for the
    /// broker layer-replay leg.
    pub fn topic_config_rf1(&self) -> TopicConfig {
        self.topic_config().with_replication(1).with_min_insync(1)
    }

    /// SDK producer settings: defaults, or `ProducerConfig::idempotent()`.
    pub fn producer_config(&self) -> ProducerConfig {
        if self.idempotent {
            ProducerConfig::idempotent().with_client_id("perfbench")
        } else {
            ProducerConfig::default()
        }
    }

    pub fn acks(&self) -> AckLevel {
        self.producer_config().acks
    }

    pub fn durable(&self) -> bool {
        self.flush.is_some()
    }

    /// Whether the workload runs a replay of the backlog beside the
    /// open loop instead of only tailing.
    pub fn replays(&self) -> bool {
        self.prefill > 0
    }

    /// The open loop's send schedule for one round: a Poisson process
    /// at `open_rate` (independent sources), drawn from the seed.
    pub fn arrivals(&self, seed: u64, round: u32) -> Arrivals {
        Arrivals {
            rng: Rng::new(seed ^ 0xA5A5_0000 ^ round as u64),
            rate: self.open_rate,
        }
    }
}

/// Exponential gaps between open-loop sends.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    rate: f64,
}

impl Arrivals {
    /// Time from one send to the next.
    pub fn next_gap(&mut self) -> Duration {
        // uniform in (0, 1], so the logarithm is finite
        let u = ((self.rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / self.rate)
    }
}

/// One key per partition, so the generator knows where each event
/// lands: event `seq` gets `keys[seq % partitions]`.
pub fn partition_keys(partitions: u32) -> Vec<String> {
    (0..partitions)
        .map(|p| {
            (0u32..)
                .map(|j| format!("k{j}"))
                .find(|k| key_partition(k.as_bytes(), partitions) == p)
                .expect("some key hashes to every partition")
        })
        .collect()
}

/// SplitMix64: a small seeded generator, enough for payload bodies.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builds payloads for one workload and seed.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    event_bytes: usize,
    body: Body,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Generator {
            seed,
            event_bytes: w.event_bytes.max(HEADER_BYTES),
            body: w.body,
        }
    }

    /// The payload of event `seq`, due at `due_ns` (0 = untimed). The
    /// body depends only on the seed and `seq`.
    pub fn payload(&self, seq: u64, due_ns: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.event_bytes + 8);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&due_ns.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        let mut rng = Rng::new(self.seed ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let body_len = self.event_bytes - HEADER_BYTES;
        match self.body {
            Body::Random => {
                while out.len() < self.event_bytes {
                    out.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                out.truncate(self.event_bytes);
            }
            Body::Json => json_body(&mut out, &mut rng, seq, body_len),
        }
        let crc = checksum(&out);
        out[16..20].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Sensor telemetry as a beamline would emit it; padded with spaces to
/// `body_len` so every event has the same size.
fn json_body(out: &mut Vec<u8>, rng: &mut Rng, seq: u64, body_len: usize) {
    let start = out.len();
    let sensor = rng.next_u64() % 16;
    let base = (rng.next_u64() % 5_000) as f64 / 10.0;
    let head = format!(
        "{{\"facility\":\"aps\",\"beamline\":\"8-ID-I\",\"sensor\":\"detector-{sensor:02}\",\
         \"seq\":{seq},\"unit\":\"counts\",\"status\":\"nominal\",\"readings\":["
    );
    out.extend_from_slice(head.as_bytes());
    let mut first = true;
    while out.len() - start + 12 < body_len {
        let jitter = (rng.next_u64() % 1_000) as f64 / 100.0;
        let sep = if first { "" } else { "," };
        out.extend_from_slice(format!("{sep}{:.2}", base + jitter).as_bytes());
        first = false;
    }
    out.extend_from_slice(b"]}");
    while out.len() - start < body_len {
        out.push(b' ');
    }
}

/// CRC32C over the payload with the checksum field skipped.
fn checksum(payload: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(&payload[..16]).update(&payload[HEADER_BYTES..]);
    c.finalize()
}

/// What a payload says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub seq: u64,
    pub due_ns: u64,
}

/// Parse and verify a payload; `None` if it is short or its checksum
/// does not match.
pub fn parse(payload: &[u8]) -> Option<Stamp> {
    if payload.len() < HEADER_BYTES {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let stored = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
    (checksum(payload) == stored).then(|| Stamp {
        seq: word(0),
        due_ns: word(8),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_and_have_the_workload_size() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let g = Generator::new(&w, 7);
            let p = g.payload(42, 1234);
            assert_eq!(p.len(), w.event_bytes, "{name}");
            assert_eq!(
                parse(&p),
                Some(Stamp {
                    seq: 42,
                    due_ns: 1234
                })
            );
        }
    }

    #[test]
    fn bodies_follow_the_seed() {
        let w = Workload::by_name("durable-eos").unwrap();
        let a = Generator::new(&w, 1).payload(5, 0);
        assert_eq!(a, Generator::new(&w, 1).payload(5, 0));
        assert_ne!(a, Generator::new(&w, 2).payload(5, 0));
        let json = std::str::from_utf8(&a[HEADER_BYTES..]).unwrap();
        assert!(
            serde_json::from_str::<serde_json::Value>(json).is_ok(),
            "{json}"
        );
    }

    #[test]
    fn a_flipped_byte_fails_the_checksum() {
        let w = Workload::by_name("small-events").unwrap();
        let mut p = Generator::new(&w, 3).payload(9, 0);
        p[40] ^= 1;
        assert_eq!(parse(&p), None);
    }

    #[test]
    fn arrivals_follow_the_rate_and_the_seed() {
        let w = Workload::by_name("small-events").unwrap();
        let total: Duration = {
            let mut a = w.arrivals(3, 0);
            (0..20_000).map(|_| a.next_gap()).sum()
        };
        let rate = 20_000.0 / total.as_secs_f64();
        assert!((rate / w.open_rate - 1.0).abs() < 0.05, "{rate}");
        assert_eq!(w.arrivals(3, 1).next_gap(), w.arrivals(3, 1).next_gap());
        assert_ne!(w.arrivals(3, 1).next_gap(), w.arrivals(4, 1).next_gap());
    }

    #[test]
    fn every_partition_gets_a_key() {
        let keys = partition_keys(2);
        for (p, k) in keys.iter().enumerate() {
            assert_eq!(key_partition(k.as_bytes(), 2), p as u32);
        }
    }
}
