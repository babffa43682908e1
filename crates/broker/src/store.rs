//! The durable storage engine: on-disk segmented logs, sparse indexes,
//! per-batch compression, tiered cold storage, flush policies,
//! crash/power-loss recovery, and offset checkpoints.
//!
//! The paper's durability story rests on Kafka/MSK's persistent commit
//! log (§IV): topics are replicated, acks-governed, and configured with
//! retention/compaction, and the event log *outlives process crashes*.
//! This module gives [`crate::PartitionLog`] that property: each
//! partition is persisted as Kafka-style segment files under a data
//! directory, one file per segment, named by base offset
//! (`00000000000000000000.seg`).
//!
//! # On-disk frame formats
//!
//! A segment file is a stream of self-describing frames. A plain frame
//! carries one record:
//!
//! ```text
//! +------+-----------+-----------+------------------+
//! | 0xA7 | len: u32  | crc: u32  | payload (len B)  |
//! +------+-----------+-----------+------------------+
//! ```
//!
//! and a *batch frame* carries a whole produced batch, compressed with
//! the in-repo LZ4-style block codec ([`octopus_compression`]):
//!
//! ```text
//! +------+----------+----------+------------+-----------+------------+--------------+------------+
//! | 0xA8 | len: u32 | crc: u32 | first: u64 | last: u64 | count: u32 | raw_len: u32 | lz4 block  |
//! +------+----------+----------+------------+-----------+------------+--------------+------------+
//! ```
//!
//! The block decompresses to `count` concatenated `[plen: u32][record
//! payload]` entries with dense offsets `first..=last`. Both magics
//! coexist in one file, so flipping a topic's compression on or off
//! never requires a rewrite. `crc` is CRC32C over the frame payload
//! ([`crc32c`], the same Castagnoli checksum Kafka stamps on record
//! batches); record payloads additionally carry the record-level CRC,
//! so recovery detects torn frames *and* bit rot inside intact frames.
//!
//! # Sparse indexes and tiering
//!
//! Every segment pairs with `<base>.index` / `<base>.timeindex`
//! sidecars (see [`crate::index`]): sparse offset/time entries written
//! as data is appended, sealed with a CRC'd footer when the segment
//! rolls. Fetches binary search segments by base, then index entries,
//! and decode from within one `index_interval_bytes` of the target —
//! never from the segment head. Reopen adopts sealed segments from
//! their footers without reading data files; only the active tail pays
//! a full CRC scan. Sealed segments past `cold_after_bytes` offload
//! their data file to a [`ColdStore`] (see [`crate::tier`]), leaving
//! the index and a `<base>.tier` marker hot; a fetch that lands there
//! hydrates the file back, single-flight.
//!
//! # Recovery
//!
//! [`PartitionStore::recover`] walks segments in base-offset order.
//! Sealed segments with a valid footer and whole data (hot file of the
//! footer's exact length, or a tier marker agreeing with it) are
//! adopted as [`RecoveredSegment::Sealed`] without touching their
//! bytes. Anything else — the active tail, a missing or corrupt index —
//! falls back to the full frame walk, stopping at the first framing
//! error, CRC mismatch, or offset-monotonicity violation; everything
//! from that point on is truncated and the sidecars are rebuilt from
//! the data (the index is never load-bearing for durability).
//!
//! # One write path, shared by replicas
//!
//! [`PartitionStore::append_batch`] is `PartitionStore::encode`
//! followed by `PartitionStore::append_encoded`. A partition leader
//! encodes (and compresses) each append once and its followers write
//! the same `EncodedBatch` bytes, so replicas store identical files;
//! `PartitionStore::copy_from` keeps that true across a resync by
//! copying the leader's files rather than re-encoding its records.
//! Every replica counts its own writes in the `octopus_store_*`
//! metrics, so bytes-per-event and the compression ratio keep their
//! per-replica meaning.
//!
//! # Flush policies
//!
//! Writes always reach the file (a `write(2)` per batch); [`FlushPolicy`]
//! only governs *fsync* — the boundary that matters under power loss.
//! Segment rolls always fsync the closed file, so only the active
//! segment's unflushed suffix is ever at risk. Index sidecar writes are
//! advisory until seal and bypass the sync gate entirely.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, Weak};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use octopus_compression::{compress, decompress, Compression};
use octopus_types::obs::{AtomicHistogram, Counter, MetricsRegistry};
use octopus_types::{Header, OctoError, OctoResult, Offset, Timestamp};

use crate::index::{self, IndexBuilder, SealedMeta, DEFAULT_INDEX_INTERVAL_BYTES};
use crate::record::{crc32c, ControlMarker, Record, RecordEos};
use crate::tier::{self, ColdStore, TierMarker};
use bytes::Bytes;
use std::sync::Arc;

/// Frame lead-in byte; anything else at a frame boundary is a torn tail.
const FRAME_MAGIC: u8 = 0xA7;
/// Compressed-batch frame lead-in byte.
const BATCH_MAGIC: u8 = 0xA8;
/// Magic + length + frame CRC.
const FRAME_HEADER: usize = 1 + 4 + 4;
/// first + last + count + raw_len, before the compressed block.
const BATCH_HEADER: usize = 8 + 8 + 4 + 4;
/// Upper bound on a batch's decompressed size (64 MiB): a corrupt
/// header can waste time, never memory.
const MAX_RAW: usize = 64 << 20;
/// Batches below this raw size are never worth compressing.
const MIN_COMPRESS_RAW: usize = 64;
/// Key-length sentinel for records without a key.
const NO_KEY: u32 = u32::MAX;

/// When (not whether) appended records are fsync'd to stable storage.
///
/// Every append is written to the segment file immediately; the policy
/// decides how much of the suffix a power loss may tear off:
///
/// * [`FlushPolicy::PerBatch`] — `fsync` after every produced batch.
///   acks=all records are on stable storage before the producer is
///   acknowledged; power loss loses nothing committed.
/// * [`FlushPolicy::IntervalMs`] — `fsync` at most every `n` ms of
///   appends. Power loss may tear up to one interval's worth of tail.
/// * [`FlushPolicy::OsManaged`] — never fsync explicitly (Kafka's
///   default posture: trust replication, let the OS write back).
///   Power loss may tear the whole unflushed suffix of the active
///   segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushPolicy {
    /// fsync after every appended batch (strongest, slowest).
    #[default]
    PerBatch,
    /// fsync when at least this many milliseconds passed since the last.
    IntervalMs(u64),
    /// Never fsync explicitly; the OS page cache decides (weakest).
    OsManaged,
}

/// Counters and histograms the storage engine publishes to the shared
/// [`MetricsRegistry`] (`octopus_store_*` family).
#[derive(Clone)]
pub struct StoreMetrics {
    flush_ns: Arc<AtomicHistogram>,
    flushes: Arc<Counter>,
    bytes_written: Arc<Counter>,
    records_recovered: Arc<Counter>,
    records_truncated: Arc<Counter>,
    bytes_truncated: Arc<Counter>,
    checkpoints_written: Arc<Counter>,
    checkpoint_offsets_restored: Arc<Counter>,
    index_sealed_skips: Arc<Counter>,
    index_rebuilds: Arc<Counter>,
    tier_offloads: Arc<Counter>,
    tier_hydrations: Arc<Counter>,
    tier_offloaded_bytes: Arc<Counter>,
    tier_hydrated_bytes: Arc<Counter>,
    compressed_batches: Arc<Counter>,
    compressed_raw_bytes: Arc<Counter>,
    compressed_stored_bytes: Arc<Counter>,
}

impl StoreMetrics {
    /// Register (or re-attach to) the `octopus_store_*` instruments.
    pub fn new(registry: &MetricsRegistry) -> Self {
        StoreMetrics {
            flush_ns: registry.histogram("octopus_store_flush_ns"),
            flushes: registry.counter("octopus_store_flushes_total"),
            bytes_written: registry.counter("octopus_store_bytes_written_total"),
            records_recovered: registry.counter("octopus_store_records_recovered_total"),
            records_truncated: registry.counter("octopus_store_records_truncated_total"),
            bytes_truncated: registry.counter("octopus_store_bytes_truncated_total"),
            checkpoints_written: registry.counter("octopus_store_checkpoints_written_total"),
            checkpoint_offsets_restored: registry
                .counter("octopus_store_checkpoint_offsets_restored_total"),
            index_sealed_skips: registry.counter("octopus_store_index_sealed_skips_total"),
            index_rebuilds: registry.counter("octopus_store_index_rebuilds_total"),
            tier_offloads: registry.counter("octopus_store_tier_offloads_total"),
            tier_hydrations: registry.counter("octopus_store_tier_hydrations_total"),
            tier_offloaded_bytes: registry.counter("octopus_store_tier_offloaded_bytes_total"),
            tier_hydrated_bytes: registry.counter("octopus_store_tier_hydrated_bytes_total"),
            compressed_batches: registry.counter("octopus_store_compressed_batches_total"),
            compressed_raw_bytes: registry.counter("octopus_store_compressed_raw_bytes_total"),
            compressed_stored_bytes: registry
                .counter("octopus_store_compressed_stored_bytes_total"),
        }
    }

    /// Total fsyncs issued by this registry's stores.
    pub fn flush_count(&self) -> u64 {
        self.flushes.get()
    }

    /// Sealed segments adopted from their index footer (data not read).
    pub fn sealed_skip_count(&self) -> u64 {
        self.index_sealed_skips.get()
    }

    /// Sealed segments whose index was missing/corrupt and got rebuilt
    /// from the data file.
    pub fn index_rebuild_count(&self) -> u64 {
        self.index_rebuilds.get()
    }

    /// Segment data files offloaded to the cold tier.
    pub fn tier_offload_count(&self) -> u64 {
        self.tier_offloads.get()
    }

    /// Segment data files hydrated back from the cold tier.
    pub fn tier_hydration_count(&self) -> u64 {
        self.tier_hydrations.get()
    }

    /// Compressed batch frames written.
    pub fn compressed_batch_count(&self) -> u64 {
        self.compressed_batches.get()
    }

    /// Uncompressed bytes that went into compressed batch frames.
    pub fn compressed_raw_bytes_total(&self) -> u64 {
        self.compressed_raw_bytes.get()
    }

    /// On-disk bytes those batch frames occupy.
    pub fn compressed_stored_bytes_total(&self) -> u64 {
        self.compressed_stored_bytes.get()
    }
}

impl std::fmt::Debug for StoreMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreMetrics").field("flushes", &self.flushes.get()).finish()
    }
}

/// What a recovery scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Segment files fully scanned (surviving files, not deleted ones).
    pub segments_scanned: u64,
    /// Sealed segments adopted from their index footer without reading
    /// the data file (the reopen fast path).
    pub segments_sealed: u64,
    /// Records whose frames were complete and CRC-clean (scanned or
    /// certified by a sealed footer).
    pub records_recovered: u64,
    /// Decodable records dropped because they sat beyond a torn frame
    /// (the undecodable torn tail itself is counted in bytes only).
    pub records_truncated: u64,
    /// Raw bytes removed from disk (torn tails + orphaned segments).
    pub bytes_truncated: u64,
}

impl RecoveryStats {
    /// Accumulate another scan's results into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.segments_scanned += other.segments_scanned;
        self.segments_sealed += other.segments_sealed;
        self.records_recovered += other.records_recovered;
        self.records_truncated += other.records_truncated;
        self.bytes_truncated += other.bytes_truncated;
    }
}

/// Storage knobs for one partition (per-topic in practice): sparse
/// index density, batch compression, and cold tiering.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Bytes of segment data between sparse index entries.
    pub index_interval_bytes: u64,
    /// Whether produced batches are compressed on disk.
    pub compression: Compression,
    /// Cold tier for sealed segment data files (None = tiering off).
    pub cold: Option<Arc<dyn ColdStore>>,
    /// Offload sealed segments once the partition's hot sealed bytes
    /// exceed this (Some(0) = offload every sealed segment at roll).
    pub cold_after_bytes: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            index_interval_bytes: DEFAULT_INDEX_INTERVAL_BYTES,
            compression: Compression::None,
            cold: None,
            cold_after_bytes: None,
        }
    }
}

/// How [`PartitionStore::read_records`] locates the first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekMode {
    /// Binary search segments by base offset, then the sparse index;
    /// decode starts within one index interval of the target.
    Indexed,
    /// Pre-index behaviour kept as an honest baseline (and for the
    /// bench's speedup probe): linear segment lookup, full decode from
    /// the segment head.
    LinearScan,
}

// ---------------------------------------------------------------------------
// frame codec
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encode `rec` into the frame-payload byte layout (shared by plain
/// frames and the entries inside a compressed batch).
pub(crate) fn encode_record_payload(rec: &Record) -> Vec<u8> {
    let mut payload = Vec::with_capacity(rec.wire_size() + 64);
    put_u64(&mut payload, rec.offset);
    put_u64(&mut payload, rec.append_time.as_millis());
    put_u64(&mut payload, rec.producer_time.as_millis());
    put_u32(&mut payload, rec.crc);
    match &rec.key {
        None => put_u32(&mut payload, NO_KEY),
        Some(k) => {
            put_u32(&mut payload, k.len() as u32);
            payload.extend_from_slice(k);
        }
    }
    put_u32(&mut payload, rec.value.len() as u32);
    payload.extend_from_slice(&rec.value);
    put_u32(&mut payload, rec.headers.len() as u32);
    for h in &rec.headers {
        put_u32(&mut payload, h.key.len() as u32);
        payload.extend_from_slice(h.key.as_bytes());
        put_u32(&mut payload, h.value.len() as u32);
        payload.extend_from_slice(&h.value);
    }
    // Optional trailing EOS section (pid, epoch, seq, flags). Absent for
    // plain records, so frames written before EOS existed — which end
    // exactly at the last header — still decode.
    if let Some(eos) = &rec.eos {
        put_u64(&mut payload, eos.pid);
        put_u32(&mut payload, eos.epoch);
        put_u64(&mut payload, eos.seq);
        let mut flags = 0u8;
        if eos.txn {
            flags |= 0x01;
        }
        match eos.control {
            None => {}
            Some(ControlMarker::Commit) => flags |= 0x02,
            Some(ControlMarker::Abort) => flags |= 0x02 | 0x04,
        }
        payload.push(flags);
    }
    payload
}

fn frame_payload(magic: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.push(magic);
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32c(payload));
    out.extend_from_slice(payload);
}

/// Append `rec` to `out` as one plain framed record.
pub(crate) fn encode_frame(rec: &Record, out: &mut Vec<u8>) {
    let payload = encode_record_payload(rec);
    frame_payload(FRAME_MAGIC, &payload, out);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Decode one frame payload back into a [`Record`]. `None` on any
/// structural mismatch (the caller treats it as a torn tail).
pub(crate) fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut c = Cursor { bytes: payload, pos: 0 };
    let offset = c.u64()?;
    let append_time = Timestamp::from_millis(c.u64()?);
    let producer_time = Timestamp::from_millis(c.u64()?);
    let crc = c.u32()?;
    let key = match c.u32()? {
        NO_KEY => None,
        n => Some(Bytes::copy_from_slice(c.take(n as usize)?)),
    };
    let vlen = c.u32()?;
    let value = Bytes::copy_from_slice(c.take(vlen as usize)?);
    let header_count = c.u32()?;
    let mut headers = Vec::with_capacity(header_count.min(64) as usize);
    for _ in 0..header_count {
        let klen = c.u32()?;
        let hkey = String::from_utf8(c.take(klen as usize)?.to_vec()).ok()?;
        let hvlen = c.u32()?;
        headers.push(Header { key: hkey, value: c.take(hvlen as usize)?.to_vec() });
    }
    // Frames written before EOS existed end exactly at the last header;
    // stamped frames carry a 21-byte trailer (pid, epoch, seq, flags).
    let eos = if c.pos == payload.len() {
        None
    } else {
        let pid = c.u64()?;
        let epoch = c.u32()?;
        let seq = c.u64()?;
        let flags = *c.take(1)?.first()?;
        if c.pos != payload.len() || flags & !0x07 != 0 {
            return None;
        }
        let control = if flags & 0x02 != 0 {
            Some(if flags & 0x04 != 0 { ControlMarker::Abort } else { ControlMarker::Commit })
        } else {
            None
        };
        Some(RecordEos { pid, epoch, seq, txn: flags & 0x01 != 0, control })
    };
    Some(Record { offset, append_time, key, value, headers, producer_time, crc, eos })
}

/// Records encoded for one segment: the exact bytes
/// `PartitionStore::append_encoded` writes, plus per-frame bookkeeping
/// for the sparse index and the metrics. A leader's store encodes each
/// append once; its followers write the same bytes.
#[derive(Debug)]
pub(crate) struct EncodedBatch {
    seg_base: Offset,
    bytes: Vec<u8>,
    frames: Vec<EncodedFrame>,
}

/// One encoded frame's bookkeeping, for index replay and metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodedFrame {
    first: Offset,
    last: Offset,
    count: u32,
    /// Framed length on disk (header included).
    len: u64,
    /// Sum of the records' logical (in-memory wire) sizes.
    logical: u64,
    max_ts_ms: u64,
    /// Records carrying an EOS trailer.
    eos: u64,
    compressed: bool,
    /// Uncompressed batch body size (0 for plain frames).
    raw_len: u64,
}

fn record_frame_meta(rec: &Record, len: u64) -> EncodedFrame {
    EncodedFrame {
        first: rec.offset,
        last: rec.offset,
        count: 1,
        len,
        logical: rec.wire_size() as u64,
        max_ts_ms: rec.append_time.as_millis(),
        eos: rec.eos.is_some() as u64,
        compressed: false,
        raw_len: 0,
    }
}

/// Encode `records` into `out` as frames, compressing dense runs into
/// batch frames when `compression` asks for it *and* it actually wins:
/// a batch that would land at or above its individually-framed size is
/// written as plain frames instead (incompressible data costs nothing).
pub(crate) fn encode_frames(
    records: &[Record],
    compression: Compression,
    out: &mut Vec<u8>,
) -> Vec<EncodedFrame> {
    let mut frames = Vec::with_capacity(records.len());
    if compression == Compression::None {
        for rec in records {
            let start = out.len();
            encode_frame(rec, out);
            frames.push(record_frame_meta(rec, (out.len() - start) as u64));
        }
        return frames;
    }
    let mut i = 0usize;
    while i < records.len() {
        // a batch frame requires dense offsets and a bounded raw size
        let mut j = i;
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut raw_len = 0usize;
        while j < records.len()
            && (j == i || records[j].offset == records[j - 1].offset + 1)
            && (records[j].offset - records[i].offset) < u32::MAX as u64
        {
            let p = encode_record_payload(&records[j]);
            if !payloads.is_empty() && raw_len + 4 + p.len() > MAX_RAW {
                break;
            }
            raw_len += 4 + p.len();
            payloads.push(p);
            j += 1;
        }
        let group = &records[i..j];
        let individual: usize = payloads.iter().map(|p| FRAME_HEADER + p.len()).sum();
        let mut wrote_batch = false;
        if raw_len >= MIN_COMPRESS_RAW {
            let mut raw = Vec::with_capacity(raw_len);
            for p in &payloads {
                put_u32(&mut raw, p.len() as u32);
                raw.extend_from_slice(p);
            }
            let block = compress(&raw);
            if FRAME_HEADER + BATCH_HEADER + block.len() < individual {
                let first = group[0].offset;
                let last = group[group.len() - 1].offset;
                let mut payload = Vec::with_capacity(BATCH_HEADER + block.len());
                put_u64(&mut payload, first);
                put_u64(&mut payload, last);
                put_u32(&mut payload, group.len() as u32);
                put_u32(&mut payload, raw.len() as u32);
                payload.extend_from_slice(&block);
                let start = out.len();
                frame_payload(BATCH_MAGIC, &payload, out);
                frames.push(EncodedFrame {
                    first,
                    last,
                    count: group.len() as u32,
                    len: (out.len() - start) as u64,
                    logical: group.iter().map(|r| r.wire_size() as u64).sum(),
                    max_ts_ms: group
                        .iter()
                        .map(|r| r.append_time.as_millis())
                        .max()
                        .unwrap_or(0),
                    eos: group.iter().filter(|r| r.eos.is_some()).count() as u64,
                    compressed: true,
                    raw_len: raw.len() as u64,
                });
                wrote_batch = true;
            }
        }
        if !wrote_batch {
            for (rec, p) in group.iter().zip(&payloads) {
                let start = out.len();
                frame_payload(FRAME_MAGIC, p, out);
                frames.push(record_frame_meta(rec, (out.len() - start) as u64));
            }
        }
        i = j;
    }
    frames
}

/// Decode a batch frame's payload. `None` on any structural violation
/// (bad header, codec error, record CRC mismatch, non-dense offsets) —
/// the caller treats the frame as torn.
fn decode_batch_payload(payload: &[u8], prev: Option<Offset>) -> Option<Vec<Record>> {
    if payload.len() < BATCH_HEADER {
        return None;
    }
    let first = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let last = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
    let raw_len = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes")) as usize;
    if count == 0 || last < first || last - first != count as u64 - 1 || raw_len > MAX_RAW {
        return None;
    }
    if let Some(p) = prev {
        if first <= p {
            return None;
        }
    }
    let raw = decompress(&payload[BATCH_HEADER..], raw_len).ok()?;
    let mut records = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    for k in 0..count as u64 {
        if pos + 4 > raw.len() {
            return None;
        }
        let plen = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        let end = pos.checked_add(plen)?;
        if end > raw.len() {
            return None;
        }
        let rec = decode_payload(&raw[pos..end])?;
        if !rec.verify() || rec.offset != first + k {
            return None;
        }
        pos = end;
        records.push(rec);
    }
    if pos != raw.len() {
        return None;
    }
    Some(records)
}

// ---------------------------------------------------------------------------
// segment scanning
// ---------------------------------------------------------------------------

/// One clean frame's offset span within a segment file.
#[derive(Debug, Clone, Copy)]
struct FrameSpan {
    first: Offset,
    last: Offset,
    count: u32,
    /// Byte position just past this frame within its segment file.
    end: u64,
}

fn seg_path(dir: &Path, base: Offset) -> PathBuf {
    dir.join(format!("{base:020}.seg"))
}

/// Write `bytes` to a fresh file at `path` and fsync it.
fn write_synced(path: &Path, bytes: &[u8]) -> OctoResult<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    Ok(())
}

/// Walk frames from the start of `bytes`, stopping at the first framing
/// error, frame-CRC or record-CRC mismatch, or non-increasing offset.
/// Returns the clean frame spans, their records, and the clean length.
fn scan_bytes(bytes: &[u8], mut last_offset: Option<Offset>) -> (Vec<FrameSpan>, Vec<Record>, u64) {
    let mut frames = Vec::new();
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos + FRAME_HEADER > bytes.len()
            || (bytes[pos] != FRAME_MAGIC && bytes[pos] != BATCH_MAGIC)
        {
            break;
        }
        let magic = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().expect("4 bytes"));
        let Some(end) = pos.checked_add(FRAME_HEADER + len) else { break };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if crc32c(payload) != crc {
            break;
        }
        if magic == FRAME_MAGIC {
            let Some(rec) = decode_payload(payload) else { break };
            if !rec.verify() {
                break;
            }
            if let Some(prev) = last_offset {
                if rec.offset <= prev {
                    break;
                }
            }
            last_offset = Some(rec.offset);
            pos = end;
            frames.push(FrameSpan { first: rec.offset, last: rec.offset, count: 1, end: pos as u64 });
            records.push(rec);
        } else {
            let Some(batch) = decode_batch_payload(payload, last_offset) else { break };
            let first = batch[0].offset;
            let last = batch[batch.len() - 1].offset;
            last_offset = Some(last);
            pos = end;
            frames.push(FrameSpan { first, last, count: batch.len() as u32, end: pos as u64 });
            records.extend(batch);
        }
    }
    (frames, records, pos as u64)
}

/// Walk frames starting at a frame boundary, collecting up to `max`
/// records with offsets `>= from`. Frames (and whole batches) entirely
/// below the target are skipped by peeking the header — no decode, no
/// decompression. Stops quietly at damage (recovery owns truncation).
fn read_from_bytes(bytes: &[u8], from: Offset, max: usize, out: &mut Vec<Record>) {
    let mut pos = 0usize;
    while out.len() < max {
        if pos + FRAME_HEADER > bytes.len()
            || (bytes[pos] != FRAME_MAGIC && bytes[pos] != BATCH_MAGIC)
        {
            break;
        }
        let magic = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().expect("4 bytes"));
        let Some(end) = pos.checked_add(FRAME_HEADER + len) else { break };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if magic == FRAME_MAGIC {
            // offset is the first payload field: skip without CRC work
            if payload.len() < 8 {
                break;
            }
            let offset = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            if offset >= from {
                if crc32c(payload) != crc {
                    break;
                }
                let Some(rec) = decode_payload(payload) else { break };
                if !rec.verify() {
                    break;
                }
                out.push(rec);
            }
        } else {
            if payload.len() < BATCH_HEADER {
                break;
            }
            let last = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            if last >= from {
                if crc32c(payload) != crc {
                    break;
                }
                let Some(batch) = decode_batch_payload(payload, None) else { break };
                for rec in batch {
                    if rec.offset >= from && out.len() < max {
                        out.push(rec);
                    }
                }
            }
        }
        pos = end;
    }
}

// ---------------------------------------------------------------------------
// segment IO: hot file vs cold tier
// ---------------------------------------------------------------------------

/// Cold-store object key for a segment: the last three path components
/// of the partition dir (broker/topic/partition) plus the file name.
fn cold_key(dir: &Path, base: Offset) -> String {
    let mut parts: Vec<String> = dir
        .components()
        .rev()
        .take(3)
        .filter_map(|c| match c {
            std::path::Component::Normal(s) => Some(s.to_string_lossy().into_owned()),
            _ => None,
        })
        .collect();
    parts.reverse();
    parts.push(format!("{base:020}.seg"));
    parts.join("/")
}

/// Where one segment's data bytes live and how to get them: the hot
/// `.seg` file, or a cold-store object named by the `<base>.tier`
/// marker. All file-level transitions (offload, hydration, deletion)
/// serialize on one mutex, which also makes hydration single-flight —
/// concurrent fetchers that land on a cold segment perform exactly one
/// cold read between them.
pub(crate) struct SegmentIo {
    dir: PathBuf,
    base: Offset,
    cold: Option<Arc<dyn ColdStore>>,
    metrics: StoreMetrics,
    /// Whether the data bytes currently live only in the cold store.
    is_cold: StdMutex<bool>,
}

impl std::fmt::Debug for SegmentIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentIo")
            .field("base", &self.base)
            .field("is_cold", &self.is_cold())
            .finish()
    }
}

impl SegmentIo {
    fn new(
        dir: &Path,
        base: Offset,
        cold: Option<Arc<dyn ColdStore>>,
        metrics: StoreMetrics,
        is_cold: bool,
    ) -> Arc<Self> {
        Arc::new(SegmentIo {
            dir: dir.to_path_buf(),
            base,
            cold,
            metrics,
            is_cold: StdMutex::new(is_cold),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.is_cold.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the data bytes currently live only in the cold store.
    pub(crate) fn is_cold(&self) -> bool {
        *self.lock()
    }

    fn ensure_hot_locked(&self, is_cold: &mut bool) -> OctoResult<()> {
        if !*is_cold {
            return Ok(());
        }
        let path = seg_path(&self.dir, self.base);
        if path.exists() {
            // a previous hydration completed; the marker may linger
            tier::remove_marker(&self.dir, self.base);
            *is_cold = false;
            return Ok(());
        }
        let Some(cold) = &self.cold else {
            return Err(OctoError::Io(format!(
                "segment {} is cold but no cold store is configured",
                self.base
            )));
        };
        let Some(marker) = tier::read_marker(&self.dir, self.base) else {
            return Err(OctoError::Io(format!(
                "segment {} has no data file and no tier marker",
                self.base
            )));
        };
        let Some(bytes) = cold.get(&marker.key)? else {
            return Err(OctoError::Io(format!("cold object {} is missing", marker.key)));
        };
        if bytes.len() as u64 != marker.data_len {
            return Err(OctoError::Io(format!(
                "cold object {} is {} bytes, marker says {}",
                marker.key,
                bytes.len(),
                marker.data_len
            )));
        }
        let tmp = self.dir.join(format!("{:020}.hydrate.tmp", self.base));
        fs::write(&tmp, &bytes)?;
        let f = File::open(&tmp)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, &path)?;
        tier::remove_marker(&self.dir, self.base);
        *is_cold = false;
        self.metrics.tier_hydrations.inc();
        self.metrics.tier_hydrated_bytes.add(marker.data_len);
        Ok(())
    }

    /// Hydrate if cold; afterwards the hot file is present.
    pub(crate) fn ensure_hot(&self) -> OctoResult<()> {
        let mut g = self.lock();
        self.ensure_hot_locked(&mut g)
    }

    /// Hydrate if needed and drop the cold copy + marker: the hot file
    /// becomes authoritative again (unseal, truncation, rewrite).
    pub(crate) fn make_hot(&self) -> OctoResult<()> {
        let mut g = self.lock();
        self.ensure_hot_locked(&mut g)?;
        if let Some(cold) = &self.cold {
            let _ = cold.delete(&cold_key(&self.dir, self.base));
        }
        tier::remove_marker(&self.dir, self.base);
        Ok(())
    }

    /// Drop the cold copy and marker *without* hydrating — for callers
    /// about to replace the data file wholesale (compaction rewrite).
    pub(crate) fn discard_cold(&self) {
        let mut g = self.lock();
        if let Some(cold) = &self.cold {
            let _ = cold.delete(&cold_key(&self.dir, self.base));
        }
        tier::remove_marker(&self.dir, self.base);
        *g = false;
    }

    /// Read the whole data file (hydrating first if cold).
    pub(crate) fn read_data(&self) -> OctoResult<Vec<u8>> {
        let mut g = self.lock();
        self.ensure_hot_locked(&mut g)?;
        Ok(fs::read(seg_path(&self.dir, self.base))?)
    }

    /// Read the data file from byte `pos` to the end (hydrating first
    /// if cold).
    pub(crate) fn read_from(&self, pos: u64) -> OctoResult<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut g = self.lock();
        self.ensure_hot_locked(&mut g)?;
        let mut f = File::open(seg_path(&self.dir, self.base))?;
        f.seek(SeekFrom::Start(pos))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    /// The data bytes wherever they live — the hot file, or the cold
    /// object — without hydrating (a replica copying this segment).
    pub(crate) fn copy_data(&self) -> OctoResult<Vec<u8>> {
        let is_cold = self.lock();
        let path = seg_path(&self.dir, self.base);
        if *is_cold && !path.exists() {
            let object = match (&self.cold, tier::read_marker(&self.dir, self.base)) {
                (Some(cold), Some(marker)) => cold.get(&marker.key)?,
                _ => None,
            };
            return object.ok_or_else(|| {
                OctoError::Io(format!("cold segment {} has no readable object", self.base))
            });
        }
        Ok(fs::read(path)?)
    }

    /// Move the hot data file (exactly `data_len` bytes) to the cold
    /// store: put the object, write the marker, then remove the hot
    /// file — a crash at any point leaves the segment recoverable.
    pub(crate) fn offload(&self, data_len: u64) -> OctoResult<bool> {
        let mut g = self.lock();
        if *g {
            return Ok(false);
        }
        let Some(cold) = &self.cold else { return Ok(false) };
        let path = seg_path(&self.dir, self.base);
        let bytes = fs::read(&path)?;
        if bytes.len() as u64 != data_len {
            return Ok(false);
        }
        let key = cold_key(&self.dir, self.base);
        cold.put(&key, &bytes)?;
        tier::write_marker(&self.dir, self.base, &TierMarker { key, data_len })?;
        fs::remove_file(&path)?;
        *g = true;
        self.metrics.tier_offloads.inc();
        self.metrics.tier_offloaded_bytes.add(data_len);
        Ok(true)
    }

    /// Best-effort removal of every trace of this segment: hot file,
    /// index sidecars, tier marker, and the cold object.
    pub(crate) fn delete_files(&self) {
        let mut g = self.lock();
        let _ = fs::remove_file(seg_path(&self.dir, self.base));
        index::remove_index_files(&self.dir, self.base);
        tier::remove_marker(&self.dir, self.base);
        if let Some(cold) = &self.cold {
            let _ = cold.delete(&cold_key(&self.dir, self.base));
        }
        *g = false;
    }
}

/// A sealed segment recovered without reading its data file: the
/// footer-certified metadata plus on-demand record loading. The log
/// keeps these as placeholders and materializes (with a `Weak` cache,
/// so repeated readers share one decode without pinning RAM) only when
/// a fetch actually lands on them.
#[derive(Debug)]
pub struct LazySegment {
    meta: Arc<SealedMeta>,
    io: Arc<SegmentIo>,
    cache: StdMutex<Option<Weak<[Record]>>>,
}

impl LazySegment {
    fn new(meta: Arc<SealedMeta>, io: Arc<SegmentIo>) -> Arc<Self> {
        Arc::new(LazySegment { meta, io, cache: StdMutex::new(None) })
    }

    /// Segment base offset.
    pub fn base(&self) -> Offset {
        self.meta.base
    }

    /// Offset of the last record.
    pub fn last_offset(&self) -> Offset {
        self.meta.last_offset
    }

    /// Records in the segment (footer-certified; no data read).
    pub fn record_count(&self) -> u64 {
        self.meta.record_count
    }

    /// Sum of the records' logical (in-memory wire) sizes.
    pub fn logical_bytes(&self) -> u64 {
        self.meta.logical_bytes
    }

    /// Greatest append timestamp, in milliseconds.
    pub fn max_ts_ms(&self) -> u64 {
        self.meta.max_ts_ms
    }

    /// Records carrying an EOS trailer.
    pub fn eos_count(&self) -> u64 {
        self.meta.eos_count
    }

    /// Whether the data bytes currently live only in the cold store.
    pub fn is_cold(&self) -> bool {
        self.io.is_cold()
    }

    /// The footer-certified metadata.
    pub fn meta(&self) -> &Arc<SealedMeta> {
        &self.meta
    }

    /// Load (or reuse a concurrently loaded copy of) the segment's
    /// records, hydrating from the cold tier if needed. The decoded
    /// bytes are validated against the sealed footer — count, length,
    /// and last offset must all match, or the data is not trusted.
    pub fn records(&self) -> OctoResult<Arc<[Record]>> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(records) = cache.as_ref().and_then(Weak::upgrade) {
            return Ok(records);
        }
        let bytes = self.io.read_data()?;
        let prev = self.meta.base.checked_sub(1);
        let (_, records, good_len) = scan_bytes(&bytes, prev);
        if good_len != self.meta.data_len
            || records.len() as u64 != self.meta.record_count
            || records.last().map(|r| r.offset) != Some(self.meta.last_offset)
        {
            return Err(OctoError::Io(format!(
                "sealed segment {} failed footer validation ({} records, {} clean bytes)",
                self.meta.base,
                records.len(),
                good_len
            )));
        }
        let records: Arc<[Record]> = records.into();
        *cache = Some(Arc::downgrade(&records));
        Ok(records)
    }
}

/// One recovered segment: either fully decoded (the active tail, or a
/// segment that needed a data scan) or a sealed placeholder certified
/// by its index footer — the reopen fast path never reads sealed data.
#[derive(Debug)]
pub enum RecoveredSegment {
    /// Scanned and decoded in full.
    Resident {
        /// Segment base offset.
        base: Offset,
        /// Every surviving record, in offset order.
        records: Vec<Record>,
    },
    /// Adopted from the sealed footer without reading the data file.
    Sealed(Arc<LazySegment>),
}

impl RecoveredSegment {
    /// Segment base offset.
    pub fn base(&self) -> Offset {
        match self {
            RecoveredSegment::Resident { base, .. } => *base,
            RecoveredSegment::Sealed(seg) => seg.base(),
        }
    }

    /// Records in the segment (footer-certified for sealed segments).
    pub fn record_count(&self) -> u64 {
        match self {
            RecoveredSegment::Resident { records, .. } => records.len() as u64,
            RecoveredSegment::Sealed(seg) => seg.record_count(),
        }
    }

    /// Offset of the last record, if any.
    pub fn last_offset(&self) -> Option<Offset> {
        match self {
            RecoveredSegment::Resident { records, .. } => records.last().map(|r| r.offset),
            RecoveredSegment::Sealed(seg) => Some(seg.last_offset()),
        }
    }

    /// The decoded records, when this segment was fully scanned.
    pub fn resident(&self) -> Option<&[Record]> {
        match self {
            RecoveredSegment::Resident { records, .. } => Some(records),
            RecoveredSegment::Sealed(_) => None,
        }
    }
}

/// What a recovery scan yields: each surviving segment, in offset order.
pub type RecoveredSegments = Vec<RecoveredSegment>;

#[derive(Debug)]
struct StoreSegment {
    base: Offset,
    len: u64,
    /// Clean frame spans (empty for footer-adopted sealed segments —
    /// their [`SealedMeta`] carries everything the store needs).
    spans: Vec<FrameSpan>,
    sealed: Option<Arc<SealedMeta>>,
    /// Live index builder; present exactly when the segment is unsealed.
    builder: Option<IndexBuilder>,
    io: Arc<SegmentIo>,
}

impl StoreSegment {
    fn last_offset(&self) -> Option<Offset> {
        if let Some(m) = &self.sealed {
            return Some(m.last_offset);
        }
        self.spans.last().map(|s| s.last)
    }

    /// Greatest indexed frame position at or before `offset`.
    fn seek_pos(&self, offset: Offset) -> u64 {
        if let Some(m) = &self.sealed {
            return m.seek_pos(offset);
        }
        self.builder.as_ref().map(|b| b.seek_pos(offset)).unwrap_or(0)
    }

    /// Write the CRC'd footers and switch to footer-certified state.
    fn seal(&mut self) -> OctoResult<()> {
        if self.sealed.is_none() {
            if let Some(b) = self.builder.take() {
                self.sealed = Some(b.seal(self.len)?);
            }
        }
        Ok(())
    }
}

/// Replay scanned frames into a fresh index builder (recovery rebuild).
fn replay_spans(
    builder: &mut IndexBuilder,
    spans: &[FrameSpan],
    records: &[Record],
) -> OctoResult<()> {
    let mut pos = 0u64;
    let mut ri = 0usize;
    for s in spans {
        let n = s.count as usize;
        let recs = &records[ri..ri + n];
        let logical: u64 = recs.iter().map(|r| r.wire_size() as u64).sum();
        let max_ts = recs.iter().map(|r| r.append_time.as_millis()).max().unwrap_or(0);
        let eos = recs.iter().filter(|r| r.eos.is_some()).count() as u64;
        builder.on_frame(s.first, s.last, n as u64, pos, s.end - pos, logical, max_ts, eos)?;
        pos = s.end;
        ri += n;
    }
    Ok(())
}

/// Build a fresh index builder + spans from just-encoded frames
/// (truncation, compaction rewrite, resync reset).
fn build_segment_state(
    dir: &Path,
    base: Offset,
    interval: u64,
    frames: &[EncodedFrame],
) -> OctoResult<(IndexBuilder, Vec<FrameSpan>, u64)> {
    index::remove_index_files(dir, base);
    let mut builder = IndexBuilder::new(dir, base, interval);
    let mut spans = Vec::with_capacity(frames.len());
    let mut pos = 0u64;
    for f in frames {
        builder.on_frame(f.first, f.last, f.count as u64, pos, f.len, f.logical, f.max_ts_ms, f.eos)?;
        pos += f.len;
        spans.push(FrameSpan { first: f.first, last: f.last, count: f.count, end: pos });
    }
    Ok((builder, spans, pos))
}

struct Scanned {
    segments: Vec<StoreSegment>,
    recovered: RecoveredSegments,
    stats: RecoveryStats,
}

/// Scan a partition directory: delete temp files, walk segments in
/// base-offset order, adopt sealed segments from their footers, fully
/// scan the rest, truncate the first torn tail in place, and delete
/// every file beyond it.
fn scan_dir(dir: &Path, opts: &StoreOptions, metrics: &StoreMetrics) -> OctoResult<Scanned> {
    let mut bases: std::collections::BTreeSet<Offset> = std::collections::BTreeSet::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => fs::remove_file(&path)?,
            Some("seg") | Some("index") | Some("timeindex") | Some("tier") => {
                if let Some(base) = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.parse::<Offset>().ok())
                {
                    bases.insert(base);
                }
            }
            _ => {}
        }
    }
    let last_base = bases.iter().next_back().copied();
    let mut out =
        Scanned { segments: Vec::new(), recovered: Vec::new(), stats: RecoveryStats::default() };
    let mut last_offset: Option<Offset> = None;
    let mut broken = false;
    for base in bases {
        let io = SegmentIo::new(dir, base, opts.cold.clone(), metrics.clone(), false);
        let hot_len = fs::metadata(seg_path(dir, base)).ok().map(|m| m.len());
        let marker = tier::read_marker(dir, base);
        if broken {
            // continuity is already lost: count what was claimed, drop everything
            if let Some(meta) = index::read_sealed(dir, base) {
                out.stats.records_truncated += meta.record_count;
            } else if hot_len.is_some() {
                let bytes = fs::read(seg_path(dir, base))?;
                let (_, recs, _) = scan_bytes(&bytes, None);
                out.stats.records_truncated += recs.len() as u64;
            }
            out.stats.bytes_truncated +=
                hot_len.or(marker.as_ref().map(|m| m.data_len)).unwrap_or(0);
            io.delete_files();
            continue;
        }
        let is_last = Some(base) == last_base;
        // Sealed fast path (never for the active tail): a valid CRC'd
        // footer plus whole data — a hot file of exactly the certified
        // length, or a tier marker agreeing with it — is adopted without
        // reading a single data byte.
        if !is_last {
            if let Some(meta) = index::read_sealed(dir, base) {
                let contiguous = last_offset.is_none_or(|p| base > p);
                let hot_whole = hot_len == Some(meta.data_len);
                let cold_whole = hot_len.is_none()
                    && opts.cold.is_some()
                    && marker.as_ref().map(|m| m.data_len) == Some(meta.data_len);
                if contiguous && (hot_whole || cold_whole) {
                    if hot_whole {
                        // crash between offload steps: the whole hot copy
                        // wins; drop the cold object and marker
                        if let (Some(cold), Some(m)) = (&opts.cold, &marker) {
                            let _ = cold.delete(&m.key);
                        }
                        tier::remove_marker(dir, base);
                    } else {
                        *io.lock() = true;
                    }
                    out.stats.segments_sealed += 1;
                    out.stats.records_recovered += meta.record_count;
                    metrics.index_sealed_skips.inc();
                    last_offset = Some(meta.last_offset);
                    out.segments.push(StoreSegment {
                        base,
                        len: meta.data_len,
                        spans: Vec::new(),
                        sealed: Some(Arc::clone(&meta)),
                        builder: None,
                        io: Arc::clone(&io),
                    });
                    out.recovered.push(RecoveredSegment::Sealed(LazySegment::new(meta, io)));
                    continue;
                }
            }
        }
        // full-scan fallback: hydrate first if the data lives cold
        if hot_len.is_none() {
            if marker.is_some() && opts.cold.is_some() {
                *io.lock() = true;
                if io.ensure_hot().is_err() {
                    // the cold object is gone: the chain ends here
                    out.stats.bytes_truncated += marker.as_ref().map(|m| m.data_len).unwrap_or(0);
                    io.delete_files();
                    broken = true;
                    continue;
                }
            } else {
                // stray sidecars with no data claim behind them
                io.delete_files();
                continue;
            }
        }
        let path = seg_path(dir, base);
        let bytes = fs::read(&path)?;
        let (spans, recs, good_len) = scan_bytes(&bytes, last_offset);
        out.stats.segments_scanned += 1;
        out.stats.records_recovered += recs.len() as u64;
        if (good_len as usize) < bytes.len() {
            broken = true;
            out.stats.bytes_truncated += bytes.len() as u64 - good_len;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(good_len)?;
            f.sync_data()?;
        }
        if let Some(r) = recs.last() {
            last_offset = Some(r.offset);
        }
        if !is_last {
            // a closed segment whose index could not be trusted
            metrics.index_rebuilds.inc();
        }
        index::remove_index_files(dir, base);
        let mut builder = IndexBuilder::new(dir, base, opts.index_interval_bytes);
        replay_spans(&mut builder, &spans, &recs)?;
        out.segments.push(StoreSegment {
            base,
            len: good_len,
            spans,
            sealed: None,
            builder: Some(builder),
            io,
        });
        out.recovered.push(RecoveredSegment::Resident { base, records: recs });
    }
    // every segment but the last gets (back) its sealed footer
    let n = out.segments.len();
    if n > 1 {
        for seg in &mut out.segments[..n - 1] {
            seg.seal()?;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// group-commit sync gate
// ---------------------------------------------------------------------------

/// Group-commit gate for one partition's active segment.
///
/// `written` and `synced` are *monotonic* byte counters over the store's
/// whole life — data bytes only; index sidecar writes are advisory and
/// bypass the gate. A byte is counted in `written` once its `write(2)`
/// into the active file has returned, and in `synced` once some fsync
/// (or an equivalent durable rewrite) is known to cover it. Segment
/// rolls and truncations settle the counters rather than resetting
/// them, so a ticket's target stays meaningful across segment changes.
///
/// The gate lets any number of waiters share each fsync: the first
/// waiter to arrive while no sync is in flight performs one `sync_data`
/// covering every byte written up to that instant; everyone whose target
/// that covers rides along without issuing their own.
#[derive(Debug)]
struct SyncGate {
    written: AtomicU64,
    synced: AtomicU64,
    state: StdMutex<GateState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// Append handle on the active segment file (lazily opened). Shared
    /// so a waiter can fsync it without holding the store.
    file: Option<Arc<File>>,
    /// Whether some waiter currently has an fsync in flight.
    syncing: bool,
}

impl SyncGate {
    fn new() -> Arc<Self> {
        Arc::new(SyncGate {
            written: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            state: StdMutex::new(GateState::default()),
            done: Condvar::new(),
        })
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mark everything written so far as durable and wake waiters. Call
    /// only after the disk state has been made consistent through some
    /// other fsynced path (roll, truncation, rewrite, recovery).
    fn settle(&self) {
        self.synced.fetch_max(self.written.load(Ordering::Acquire), Ordering::AcqRel);
        self.done.notify_all();
    }

    /// Drop the active file handle (segment rolled, truncated, or
    /// rewritten); the next append reopens lazily.
    fn detach_file(&self) {
        self.lock_state().file = None;
    }

    fn unflushed(&self) -> u64 {
        self.written.load(Ordering::Acquire).saturating_sub(self.synced.load(Ordering::Acquire))
    }

    /// Block until every byte up to `target` is on stable storage,
    /// issuing at most one fsync per uncovered window.
    fn sync_to(&self, target: u64, metrics: &StoreMetrics) -> OctoResult<()> {
        if self.synced.load(Ordering::Acquire) >= target {
            return Ok(());
        }
        let mut st = self.lock_state();
        loop {
            if self.synced.load(Ordering::Acquire) >= target {
                return Ok(());
            }
            if st.syncing {
                st = self.done.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.syncing = true;
            let file = st.file.clone();
            drop(st);
            // Every byte counted in `written` at this point has
            // completed its write into `file` (appends bump the counter
            // only after write_all returns), so one fsync covers all of
            // them — including batches from producers that appended
            // while a previous fsync was in flight.
            let cover = self.written.load(Ordering::Acquire);
            let res: OctoResult<()> = match &file {
                Some(f) => {
                    let t = Instant::now();
                    match f.sync_data() {
                        Ok(()) => {
                            metrics.flush_ns.record(t.elapsed().as_nanos() as u64);
                            metrics.flushes.inc();
                            Ok(())
                        }
                        Err(e) => Err(e.into()),
                    }
                }
                // no file yet: nothing written since the segment was
                // (re)opened, so everything counted is already durable
                None => Ok(()),
            };
            st = self.lock_state();
            st.syncing = false;
            if res.is_ok() {
                self.synced.fetch_max(cover, Ordering::AcqRel);
            }
            self.done.notify_all();
            res?;
        }
    }
}

/// A claim ticket from [`PartitionStore::commit_batch_ticket`]: the
/// batch has been written to the segment file but not yet fsynced.
/// [`SyncTicket::wait`] blocks until an fsync covers it — possibly one
/// issued by a concurrent producer (group commit). Wait *after*
/// releasing the partition lock, or the group collapses back to one
/// fsync per lock holder.
#[derive(Debug)]
pub struct SyncTicket {
    gate: Arc<SyncGate>,
    target: u64,
    metrics: StoreMetrics,
}

impl SyncTicket {
    /// Block until the ticket's batch is on stable storage.
    pub fn wait(&self) -> OctoResult<()> {
        self.gate.sync_to(self.target, &self.metrics)
    }
}

// ---------------------------------------------------------------------------
// PartitionStore
// ---------------------------------------------------------------------------

/// The durable half of one partition: segment files in a directory plus
/// the bookkeeping needed to append, fsync per policy, seek via sparse
/// indexes, tier sealed segments, and recover.
pub struct PartitionStore {
    dir: PathBuf,
    policy: FlushPolicy,
    metrics: StoreMetrics,
    opts: StoreOptions,
    segments: Vec<StoreSegment>,
    /// Active-file handle plus the written/synced ledger shared with
    /// outstanding [`SyncTicket`]s.
    gate: Arc<SyncGate>,
    last_sync: Instant,
    /// Set by [`PartitionStore::power_loss`]; appends are refused until
    /// [`PartitionStore::recover`] has rebuilt state from disk.
    needs_recovery: bool,
}

impl std::fmt::Debug for PartitionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionStore")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl PartitionStore {
    /// Open (creating if needed) the store for one partition with
    /// default storage options, running recovery on whatever the
    /// directory holds.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FlushPolicy,
        metrics: StoreMetrics,
    ) -> OctoResult<(Self, RecoveredSegments, RecoveryStats)> {
        Self::open_with(dir, policy, metrics, StoreOptions::default())
    }

    /// Open with explicit storage options (index density, compression,
    /// cold tiering). Returns the store, the recovered segments, and
    /// scan stats.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        policy: FlushPolicy,
        metrics: StoreMetrics,
        mut opts: StoreOptions,
    ) -> OctoResult<(Self, RecoveredSegments, RecoveryStats)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if opts.index_interval_bytes == 0 {
            opts.index_interval_bytes = DEFAULT_INDEX_INTERVAL_BYTES;
        }
        let mut store = PartitionStore {
            dir,
            policy,
            metrics,
            opts,
            segments: Vec::new(),
            gate: SyncGate::new(),
            last_sync: Instant::now(),
            needs_recovery: false,
        };
        let (records, stats) = store.recover()?;
        Ok((store, records, stats))
    }

    /// The directory this partition persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured flush policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The storage options this partition runs with.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// Re-scan the directory from scratch (crash recovery / reopen).
    /// Truncates the torn tail on disk and returns the surviving
    /// segments plus stats. Clears any power-loss poisoning.
    pub fn recover(&mut self) -> OctoResult<(RecoveredSegments, RecoveryStats)> {
        self.gate.detach_file();
        let scanned = scan_dir(&self.dir, &self.opts, &self.metrics)?;
        self.metrics.records_recovered.add(scanned.stats.records_recovered);
        self.metrics.records_truncated.add(scanned.stats.records_truncated);
        self.metrics.bytes_truncated.add(scanned.stats.bytes_truncated);
        self.segments = scanned.segments;
        self.gate.settle();
        self.needs_recovery = false;
        self.last_sync = Instant::now();
        Ok((scanned.recovered, scanned.stats))
    }

    fn writer(&mut self) -> OctoResult<Arc<File>> {
        let mut st = self.gate.lock_state();
        if st.file.is_none() {
            let base = self.segments.last().expect("active segment exists").base;
            let f = OpenOptions::new()
                .append(true)
                .create(true)
                .open(seg_path(&self.dir, base))?;
            st.file = Some(Arc::new(f));
        }
        Ok(Arc::clone(st.file.as_ref().expect("just opened")))
    }

    /// Start a new segment at `base`, fsyncing, sealing, and closing
    /// the previous one (closed segments are always durable), then
    /// enforcing the cold-tier threshold.
    fn roll_to(&mut self, base: Offset) -> OctoResult<()> {
        if !self.segments.is_empty() {
            self.sync()?;
            if let Some(seg) = self.segments.last_mut() {
                seg.seal()?;
            }
        }
        self.gate.detach_file();
        let io = SegmentIo::new(&self.dir, base, self.opts.cold.clone(), self.metrics.clone(), false);
        let builder = IndexBuilder::new(&self.dir, base, self.opts.index_interval_bytes);
        self.segments.push(StoreSegment {
            base,
            len: 0,
            spans: Vec::new(),
            sealed: None,
            builder: Some(builder),
            io,
        });
        self.enforce_cold_threshold();
        Ok(())
    }

    /// Offload oldest-first until hot sealed bytes fit under
    /// `cold_after_bytes`. Best-effort: an offload failure leaves the
    /// segment hot and is retried at the next roll.
    fn enforce_cold_threshold(&mut self) {
        let Some(threshold) = self.opts.cold_after_bytes else { return };
        if self.opts.cold.is_none() {
            return;
        }
        let n = self.segments.len();
        if n < 2 {
            return;
        }
        let mut hot_sealed: u64 = self.segments[..n - 1]
            .iter()
            .filter(|s| s.sealed.is_some() && !s.io.is_cold())
            .map(|s| s.len)
            .sum();
        for seg in &self.segments[..n - 1] {
            if hot_sealed <= threshold {
                break;
            }
            if seg.sealed.is_none() || seg.io.is_cold() {
                continue;
            }
            if seg.io.offload(seg.len).unwrap_or(false) {
                hot_sealed -= seg.len;
            }
        }
    }

    /// Offload every sealed segment's data file to the cold tier now
    /// (tests, benches, and operator-forced tiering). Returns how many
    /// segments moved.
    pub fn offload_now(&mut self) -> OctoResult<u64> {
        if self.opts.cold.is_none() {
            return Ok(0);
        }
        let n = self.segments.len();
        if n < 2 {
            return Ok(0);
        }
        let mut moved = 0u64;
        for seg in &self.segments[..n - 1] {
            if seg.sealed.is_some() && !seg.io.is_cold() && seg.io.offload(seg.len)? {
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Truncation can leave a sealed (possibly cold) segment as the
    /// last one; appending into it reopens it: hydrate, drop the cold
    /// copy, rescan, and rebuild the live index builder. The stale
    /// footer is removed — the segment is active again.
    fn unseal_active(&mut self) -> OctoResult<()> {
        let dir = self.dir.clone();
        let interval = self.opts.index_interval_bytes;
        let Some(seg) = self.segments.last_mut() else { return Ok(()) };
        if seg.sealed.is_none() {
            return Ok(());
        }
        seg.io.make_hot()?;
        let bytes = fs::read(seg_path(&dir, seg.base))?;
        let (spans, recs, good_len) = scan_bytes(&bytes, seg.base.checked_sub(1));
        if good_len != bytes.len() as u64 {
            return Err(OctoError::Io(format!(
                "sealed segment {} failed rescan on unseal",
                seg.base
            )));
        }
        index::remove_index_files(&dir, seg.base);
        let mut builder = IndexBuilder::new(&dir, seg.base, interval);
        replay_spans(&mut builder, &spans, &recs)?;
        seg.spans = spans;
        seg.builder = Some(builder);
        seg.sealed = None;
        seg.len = good_len;
        self.gate.detach_file();
        Ok(())
    }

    /// Append one record into the segment whose base offset is
    /// `seg_base` (mirroring the in-memory roll decision).
    pub fn append(&mut self, rec: &Record, seg_base: Offset) -> OctoResult<()> {
        self.append_batch(std::slice::from_ref(rec), seg_base)
    }

    /// Append a batch of records into the segment whose base offset is
    /// `seg_base`: `PartitionStore::encode` then
    /// `PartitionStore::append_encoded`, the one write path.
    pub fn append_batch(&mut self, records: &[Record], seg_base: Offset) -> OctoResult<()> {
        let encoded = self.encode(records, seg_base);
        self.append_encoded(&encoded)
    }

    /// Encode `records` into this store's frame format without writing
    /// them. Under [`Compression::Lz4`], dense runs become compressed
    /// batch frames; the result can be written here or into another
    /// replica's store with `PartitionStore::append_encoded`.
    pub(crate) fn encode(&self, records: &[Record], seg_base: Offset) -> EncodedBatch {
        let mut bytes = Vec::new();
        let frames = encode_frames(records, self.opts.compression, &mut bytes);
        EncodedBatch { seg_base, bytes, frames }
    }

    /// Write an encoded batch (this store's or another replica's) into
    /// the segment whose base offset is `batch.seg_base`, rolling first
    /// when that is a new segment. One `write(2)`; the sparse index is
    /// extended as frames land and the bytes count once toward
    /// `octopus_store_bytes_written_total` and the compression counters.
    pub(crate) fn append_encoded(&mut self, batch: &EncodedBatch) -> OctoResult<()> {
        if self.needs_recovery {
            return Err(OctoError::Io("store lost power; recover() before appending".into()));
        }
        if batch.frames.is_empty() {
            return Ok(());
        }
        if self.segments.last().map(|s| s.base) != Some(batch.seg_base) {
            self.roll_to(batch.seg_base)?;
        } else {
            self.unseal_active()?;
        }
        let buf = &batch.bytes;
        let frames = &batch.frames;
        let file = self.writer()?;
        (&*file).write_all(buf)?;
        let seg = self.segments.last_mut().expect("rolled above");
        let mut pos = seg.len;
        for f in frames {
            if let Some(b) = seg.builder.as_mut() {
                b.on_frame(f.first, f.last, f.count as u64, pos, f.len, f.logical, f.max_ts_ms, f.eos)?;
            }
            pos += f.len;
            seg.spans.push(FrameSpan { first: f.first, last: f.last, count: f.count, end: pos });
            if f.compressed {
                self.metrics.compressed_batches.inc();
                self.metrics.compressed_raw_bytes.add(f.raw_len);
                self.metrics.compressed_stored_bytes.add(f.len);
            }
        }
        seg.len = pos;
        self.metrics.bytes_written.add(buf.len() as u64);
        // counted only after write_all returned: the gate relies on
        // `written` bytes being in the file before any covering fsync
        self.gate.written.fetch_add(buf.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    /// Apply the flush policy at a batch boundary.
    pub fn commit_batch(&mut self) -> OctoResult<()> {
        match self.policy {
            FlushPolicy::PerBatch => self.sync(),
            FlushPolicy::IntervalMs(ms) => {
                if self.gate.unflushed() > 0 && self.last_sync.elapsed().as_millis() as u64 >= ms {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FlushPolicy::OsManaged => Ok(()),
        }
    }

    /// Like [`PartitionStore::commit_batch`], but under
    /// [`FlushPolicy::PerBatch`] the fsync is deferred to the returned
    /// ticket so the caller can wait for it after releasing the
    /// partition lock — concurrent producers then share fsyncs (group
    /// commit) instead of serializing them. Other policies behave
    /// exactly like `commit_batch` and never return a ticket.
    pub fn commit_batch_ticket(&mut self) -> OctoResult<Option<SyncTicket>> {
        match self.policy {
            FlushPolicy::PerBatch => {
                let target = self.gate.written.load(Ordering::Acquire);
                if self.gate.synced.load(Ordering::Acquire) >= target {
                    return Ok(None);
                }
                Ok(Some(SyncTicket {
                    gate: Arc::clone(&self.gate),
                    target,
                    metrics: self.metrics.clone(),
                }))
            }
            _ => self.commit_batch().map(|()| None),
        }
    }

    /// Force an fsync of the active segment (a no-op when every written
    /// byte is already covered).
    pub fn sync(&mut self) -> OctoResult<()> {
        let target = self.gate.written.load(Ordering::Acquire);
        self.gate.sync_to(target, &self.metrics)?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Drop every frame with `offset >= end` from disk (append
    /// rollback after a write-through failure). A kept suffix may end
    /// inside a compressed batch, so the surviving segment is
    /// atomically rewritten with its records re-framed individually.
    pub fn truncate_to(&mut self, end: Offset) -> OctoResult<()> {
        let mut changed = false;
        while let Some(seg) = self.segments.last() {
            if seg.base < end {
                break;
            }
            self.gate.detach_file();
            seg.io.delete_files();
            self.segments.pop();
            changed = true;
        }
        let needs_trim =
            self.segments.last().and_then(|s| s.last_offset()).is_some_and(|l| l >= end);
        if needs_trim {
            let dir = self.dir.clone();
            let interval = self.opts.index_interval_bytes;
            let seg = self.segments.last_mut().expect("checked above");
            seg.io.make_hot()?;
            let bytes = fs::read(seg_path(&dir, seg.base))?;
            let (_, recs, _) = scan_bytes(&bytes, seg.base.checked_sub(1));
            let kept: Vec<Record> = recs.into_iter().filter(|r| r.offset < end).collect();
            let mut buf = Vec::new();
            let frames = encode_frames(&kept, Compression::None, &mut buf);
            let tmp = dir.join(format!("{:020}.seg.tmp", seg.base));
            write_synced(&tmp, &buf)?;
            fs::rename(&tmp, seg_path(&dir, seg.base))?;
            let (builder, spans, len) = build_segment_state(&dir, seg.base, interval, &frames)?;
            seg.spans = spans;
            seg.builder = Some(builder);
            seg.sealed = None;
            seg.len = len;
            self.gate.detach_file();
            changed = true;
        }
        if changed {
            // every surviving byte was fsynced (closed segments at roll,
            // the rewritten tail just now); tickets for truncated bytes
            // must not wait for an fsync that will never cover them
            self.gate.settle();
        }
        Ok(())
    }

    /// Delete the frontmost segment — data file, sidecars, tier marker,
    /// and cold object (retention).
    pub fn remove_front_segment(&mut self, base: Offset) -> OctoResult<()> {
        let Some(first) = self.segments.first() else { return Ok(()) };
        if first.base != base {
            return Ok(());
        }
        first.io.delete_files();
        self.segments.remove(0);
        if self.segments.is_empty() {
            self.gate.detach_file();
        }
        Ok(())
    }

    /// Atomically rewrite a closed segment with the surviving records
    /// (compaction): write a temp file, fsync, rename over the original,
    /// rebuild the index, and re-seal. Any cold copy is superseded.
    pub fn rewrite_segment(&mut self, base: Offset, records: &[Record]) -> OctoResult<()> {
        let idx = self.segments.partition_point(|s| s.base < base);
        if self.segments.get(idx).map(|s| s.base) != Some(base) {
            return Ok(());
        }
        let dir = self.dir.clone();
        let interval = self.opts.index_interval_bytes;
        let compression = self.opts.compression;
        let is_last = idx + 1 == self.segments.len();
        let seg = &mut self.segments[idx];
        seg.io.discard_cold();
        let mut buf = Vec::new();
        let frames = encode_frames(records, compression, &mut buf);
        let tmp = dir.join(format!("{base:020}.seg.tmp"));
        write_synced(&tmp, &buf)?;
        fs::rename(&tmp, seg_path(&dir, base))?;
        let (builder, spans, len) = build_segment_state(&dir, base, interval, &frames)?;
        seg.spans = spans;
        seg.builder = Some(builder);
        seg.sealed = None;
        seg.len = len;
        if is_last {
            self.gate.detach_file();
            self.gate.settle();
        } else {
            self.segments[idx].seal()?;
        }
        Ok(())
    }

    /// Replace the entire on-disk state with a byte copy of another
    /// replica's store (ISR resync adopting the leader). Data files are
    /// copied unchanged (cold ones straight from the cold tier, without
    /// hydrating the source); sealed segments take the source's sidecars
    /// too, and the active segment's index is rebuilt from its copied
    /// data exactly as recovery would. Replicas then hold the same bytes,
    /// and replicated appends (`PartitionStore::append_encoded`) keep
    /// it so. Every file is fsynced before the old state is gone.
    pub(crate) fn copy_from(&mut self, src: &PartitionStore) -> OctoResult<()> {
        self.gate.detach_file();
        for seg in &self.segments {
            seg.io.delete_files();
        }
        self.segments.clear();
        for from in &src.segments {
            let base = from.base;
            let mut data = from.io.copy_data()?;
            data.truncate(from.len as usize);
            write_synced(&seg_path(&self.dir, base), &data)?;
            self.metrics.bytes_written.add(data.len() as u64);
            let io =
                SegmentIo::new(&self.dir, base, self.opts.cold.clone(), self.metrics.clone(), false);
            let mut seg = StoreSegment {
                base,
                len: data.len() as u64,
                spans: Vec::new(),
                sealed: None,
                builder: None,
                io,
            };
            match &from.sealed {
                Some(meta) => {
                    for path in [index::index_path, index::timeindex_path] {
                        write_synced(&path(&self.dir, base), &fs::read(path(&src.dir, base))?)?;
                    }
                    seg.sealed = Some(Arc::clone(meta));
                }
                None => {
                    let (spans, recs, _) = scan_bytes(&data, base.checked_sub(1));
                    index::remove_index_files(&self.dir, base);
                    let interval = self.opts.index_interval_bytes;
                    let mut builder = IndexBuilder::new(&self.dir, base, interval);
                    replay_spans(&mut builder, &spans, &recs)?;
                    seg.spans = spans;
                    seg.builder = Some(builder);
                }
            }
            self.segments.push(seg);
        }
        self.gate.settle();
        self.needs_recovery = false;
        Ok(())
    }

    /// Read up to `max` records with offsets `>= from`, seeking per
    /// `mode`. [`SeekMode::Indexed`] binary searches segments and the
    /// sparse index, then decodes from within one interval of the
    /// target; cold segments hydrate transparently.
    pub fn read_records(&self, from: Offset, max: usize, mode: SeekMode) -> OctoResult<Vec<Record>> {
        let mut out = Vec::new();
        if max == 0 || self.segments.is_empty() {
            return Ok(out);
        }
        match mode {
            SeekMode::Indexed => {
                let start = self.segments.partition_point(|s| s.base <= from).saturating_sub(1);
                for seg in &self.segments[start..] {
                    if out.len() >= max {
                        break;
                    }
                    if seg.last_offset().is_none_or(|l| l < from) {
                        continue;
                    }
                    let pos = seg.seek_pos(from);
                    let bytes = seg.io.read_from(pos)?;
                    read_from_bytes(&bytes, from, max, &mut out);
                }
            }
            SeekMode::LinearScan => {
                for seg in &self.segments {
                    if out.len() >= max {
                        break;
                    }
                    if seg.last_offset().is_none_or(|l| l < from) {
                        continue;
                    }
                    let bytes = seg.io.read_data()?;
                    let (_, recs, _) = scan_bytes(&bytes, seg.base.checked_sub(1));
                    for rec in recs {
                        if rec.offset >= from && out.len() < max {
                            out.push(rec);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Offset of the first record with append time `>= ts_ms`, using
    /// the sparse time index to skip sealed segments (and most of the
    /// matching one) without decoding them.
    pub fn lookup_timestamp(&self, ts_ms: u64) -> OctoResult<Option<Offset>> {
        for seg in &self.segments {
            if let Some(meta) = &seg.sealed {
                if meta.max_ts_ms < ts_ms {
                    continue; // every record here is older
                }
                let idx = meta.time_entries.partition_point(|t| t.ts_ms < ts_ms);
                let rel = if idx == 0 { 0 } else { meta.time_entries[idx - 1].rel };
                let pos = meta.seek_pos(meta.base + rel as u64);
                let bytes = seg.io.read_from(pos)?;
                let (_, recs, _) = scan_bytes(&bytes, None);
                if let Some(r) = recs.iter().find(|r| r.append_time.as_millis() >= ts_ms) {
                    return Ok(Some(r.offset));
                }
            } else {
                let bytes = seg.io.read_data()?;
                let (_, recs, _) = scan_bytes(&bytes, seg.base.checked_sub(1));
                if let Some(r) = recs.iter().find(|r| r.append_time.as_millis() >= ts_ms) {
                    return Ok(Some(r.offset));
                }
            }
        }
        Ok(None)
    }

    /// Simulate power loss: the process dies and the unflushed suffix of
    /// the active segment survives only up to an arbitrary byte boundary
    /// chosen by `entropy`. Closed segments (fsynced at roll) and the
    /// synced prefix always survive. Returns the bytes torn off.
    ///
    /// The store is left poisoned — [`PartitionStore::recover`] must run
    /// before it accepts appends again, exactly like a real restart.
    pub fn power_loss(&mut self, entropy: u64) -> OctoResult<u64> {
        self.gate.detach_file();
        self.needs_recovery = true;
        let Some(seg) = self.segments.last() else { return Ok(0) };
        // unflushed bytes all live in the active segment (rolls fsync
        // the closed file), so the durable prefix is len − unflushed
        let synced = seg.len.saturating_sub(self.gate.unflushed());
        let unflushed = seg.len - synced;
        let keep = synced + if unflushed == 0 { 0 } else { entropy % (unflushed + 1) };
        let torn = seg.len - keep;
        if torn > 0 {
            let f = OpenOptions::new().write(true).open(seg_path(&self.dir, seg.base))?;
            f.set_len(keep)?;
            f.sync_data()?;
        }
        Ok(torn)
    }

    /// Bytes of the active segment not yet known to be fsynced.
    pub fn unflushed_bytes(&self) -> u64 {
        if self.segments.is_empty() {
            return 0;
        }
        self.gate.unflushed()
    }
}

impl Drop for PartitionStore {
    fn drop(&mut self) {
        // graceful close: whatever reached the file gets fsynced and the
        // active segment's advisory index entries are flushed, so a
        // clean shutdown loses nothing under any flush policy. A
        // power-lost store is left exactly as the outage tore it.
        if !self.needs_recovery {
            if let Some(seg) = self.segments.last_mut() {
                if let Some(b) = seg.builder.as_mut() {
                    let _ = b.flush();
                }
            }
            let _ = self.sync();
        }
    }
}
// ---------------------------------------------------------------------------
// offset checkpoints
// ---------------------------------------------------------------------------

/// One committed offset in a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffsetEntry {
    /// Consumer group id.
    pub group: String,
    /// Topic name.
    pub topic: String,
    /// Partition id.
    pub partition: u32,
    /// Next offset the group will consume.
    pub offset: u64,
}

/// One producer-id registration in a checkpoint file: the controller's
/// durable record that `name` holds `pid` at `epoch`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProducerCkptEntry {
    /// Stable client identity (transactional id / client id).
    pub name: String,
    /// Assigned producer id.
    pub pid: u64,
    /// Fencing epoch; a re-registration bumps it and fences the old one.
    pub epoch: u32,
}

/// Idempotent-producer state carried inside the offset checkpoint so pid
/// assignments and fencing epochs survive cold restarts even when
/// `octopus-zoo` state is gone. Dedup windows are deliberately NOT
/// persisted here: the leader's log is the authority and windows are
/// rebuilt by the recovery scan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProducerCheckpoint {
    /// Next pid the allocator would hand out.
    pub next_pid: u64,
    /// Every known registration.
    pub producers: Vec<ProducerCkptEntry>,
}

/// Versioned checkpoint body (v2). v1 files were a bare
/// `Vec<OffsetEntry>`; `read_file` still accepts them.
#[derive(Serialize, Deserialize)]
struct CheckpointBody {
    version: u32,
    offsets: Vec<OffsetEntry>,
    producers: ProducerCheckpoint,
}

type ProducerSource = Box<dyn Fn() -> ProducerCheckpoint + Send + Sync>;

/// Periodic, atomically-replaced snapshot of every committed group
/// offset (the durable half of the group coordinator), plus the
/// idempotent-producer registry.
///
/// Format: 4-byte little-endian CRC32C over the JSON body, then the
/// body. Written to a temp file and renamed into place, so a crash
/// mid-write leaves the previous checkpoint intact; a corrupt or
/// missing file restores to "no offsets" (consumers re-read, which
/// at-least-once delivery already permits).
pub struct OffsetCheckpoint {
    path: PathBuf,
    every: u64,
    metrics: StoreMetrics,
    pending: Mutex<u64>,
    io: Mutex<()>,
    restored_producers: Mutex<ProducerCheckpoint>,
    producer_source: Mutex<Option<ProducerSource>>,
}

impl std::fmt::Debug for OffsetCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffsetCheckpoint")
            .field("path", &self.path)
            .field("every", &self.every)
            .finish()
    }
}

impl OffsetCheckpoint {
    /// Open a checkpoint at `path`, writing every `every` commits
    /// (clamped to ≥ 1). Returns the checkpoint and whatever offsets the
    /// previous incarnation persisted.
    pub fn open(path: impl Into<PathBuf>, every: u64, metrics: StoreMetrics) -> (Self, Vec<OffsetEntry>) {
        let path = path.into();
        let (restored, producers) = Self::read_file(&path).unwrap_or_default();
        metrics.checkpoint_offsets_restored.add(restored.len() as u64);
        let ckpt = OffsetCheckpoint {
            path,
            every: every.max(1),
            metrics,
            pending: Mutex::new(0),
            io: Mutex::new(()),
            restored_producers: Mutex::new(producers),
            producer_source: Mutex::new(None),
        };
        (ckpt, restored)
    }

    fn read_file(path: &Path) -> Option<(Vec<OffsetEntry>, ProducerCheckpoint)> {
        let bytes = fs::read(path).ok()?;
        if bytes.len() < 4 {
            return None;
        }
        let crc = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let body = &bytes[4..];
        if crc32c(body) != crc {
            return None;
        }
        if let Ok(v2) = serde_json::from_slice::<CheckpointBody>(body) {
            return Some((v2.offsets, v2.producers));
        }
        // v1 files were a bare offsets array.
        let legacy: Vec<OffsetEntry> = serde_json::from_slice(body).ok()?;
        Some((legacy, ProducerCheckpoint::default()))
    }

    /// Producer registry restored from disk at open. Consumed once by the
    /// cluster builder; later calls return the default (empty) state.
    pub fn take_restored_producers(&self) -> ProducerCheckpoint {
        std::mem::take(&mut self.restored_producers.lock())
    }

    /// Install the callback that supplies the live producer registry for
    /// every subsequent snapshot write.
    pub fn set_producer_source(&self, source: impl Fn() -> ProducerCheckpoint + Send + Sync + 'static) {
        *self.producer_source.lock() = Some(Box::new(source));
    }

    /// Record that a commit happened; every `every`-th commit persists
    /// the full snapshot. Write failures are swallowed (checkpoints are
    /// an optimisation over replaying the log, never a correctness
    /// dependency for acks).
    pub fn note_commit(&self, entries: &[OffsetEntry]) {
        let fire = {
            let mut pending = self.pending.lock();
            *pending += 1;
            if *pending >= self.every {
                *pending = 0;
                true
            } else {
                false
            }
        };
        if fire {
            let _ = self.write_now(entries);
        }
    }

    /// Persist a snapshot immediately (graceful shutdown / flush-all).
    pub fn write_now(&self, entries: &[OffsetEntry]) -> OctoResult<()> {
        let _serialized = self.io.lock();
        let producers = match &*self.producer_source.lock() {
            Some(source) => source(),
            None => ProducerCheckpoint::default(),
        };
        let body = serde_json::to_vec(&CheckpointBody {
            version: 2,
            offsets: entries.to_vec(),
            producers,
        })?;
        let mut out = Vec::with_capacity(body.len() + 4);
        out.extend_from_slice(&crc32c(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let tmp = self.path.with_extension("ckpt.tmp");
        write_synced(&tmp, &out)?;
        fs::rename(&tmp, &self.path)?;
        self.metrics.checkpoints_written.inc();
        Ok(())
    }

    /// The file this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// tempdir helper (tests / benches / examples)
// ---------------------------------------------------------------------------

/// A self-deleting scratch directory under the system temp dir.
///
/// Every durable test, bench, and example in the workspace roots its
/// data dir here so CI can assert nothing leaks outside `$TMPDIR`
/// (`scripts/ci.sh` greps for stray `octopus-data-*` directories).
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `$TMPDIR/<prefix>-<pid>-<seq>`.
    pub fn new(prefix: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(offset: Offset, value: &[u8], key: Option<&[u8]>) -> Record {
        let mut r = Record {
            offset,
            append_time: Timestamp::from_millis(offset * 10),
            key: key.map(Bytes::copy_from_slice),
            value: Bytes::copy_from_slice(value),
            headers: vec![Header { key: "h".into(), value: b"v".to_vec() }],
            producer_time: Timestamp::from_millis(offset * 10),
            crc: 0,
            eos: None,
        };
        r.crc = r.compute_crc();
        r
    }

    fn metrics() -> StoreMetrics {
        StoreMetrics::new(&MetricsRegistry::new())
    }

    #[test]
    fn frame_roundtrip_preserves_every_field() {
        for r in [rec(0, b"hello", Some(b"k")), rec(7, b"", None), rec(9, &[0xff; 100], Some(b""))]
        {
            let mut buf = Vec::new();
            encode_frame(&r, &mut buf);
            assert_eq!(buf[0], FRAME_MAGIC);
            let (frames, records, len) = scan_bytes(&buf, None);
            assert_eq!(len as usize, buf.len());
            assert_eq!(frames.len(), 1);
            assert_eq!(records, vec![r]);
        }
    }

    #[test]
    fn eos_stamped_frames_roundtrip_and_plain_frames_still_decode() {
        let mut stamped = rec(3, b"payload", Some(b"k"));
        stamped.eos = Some(RecordEos {
            pid: 42,
            epoch: 7,
            seq: 1001,
            txn: true,
            control: Some(ControlMarker::Abort),
        });
        let mut plain_then_stamped = Vec::new();
        encode_frame(&rec(2, b"old", None), &mut plain_then_stamped);
        encode_frame(&stamped, &mut plain_then_stamped);
        let (_, records, len) = scan_bytes(&plain_then_stamped, None);
        assert_eq!(len as usize, plain_then_stamped.len());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].eos, None);
        assert_eq!(records[1], stamped);
        // non-abort control and non-txn data stamps survive too
        for control in [None, Some(ControlMarker::Commit)] {
            let mut r = rec(0, b"x", None);
            r.eos = Some(RecordEos { pid: 1, epoch: 0, seq: 9, txn: false, control });
            let mut buf = Vec::new();
            encode_frame(&r, &mut buf);
            let (_, recs, _) = scan_bytes(&buf, None);
            assert_eq!(recs, vec![r]);
        }
    }

    #[test]
    fn scan_stops_at_frame_crc_mismatch() {
        let mut buf = Vec::new();
        encode_frame(&rec(0, b"aaaa", None), &mut buf);
        let good = buf.len();
        encode_frame(&rec(1, b"bbbb", None), &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // corrupt second frame's payload
        let (_, records, len) = scan_bytes(&buf, None);
        assert_eq!(records.len(), 1);
        assert_eq!(len as usize, good);
    }

    #[test]
    fn scan_enforces_offset_monotonicity() {
        let mut buf = Vec::new();
        encode_frame(&rec(5, b"a", None), &mut buf);
        encode_frame(&rec(5, b"b", None), &mut buf); // duplicate offset
        let (_, records, _) = scan_bytes(&buf, None);
        assert_eq!(records.len(), 1);
        // and a prior segment's last offset carries in from the caller
        let mut buf2 = Vec::new();
        encode_frame(&rec(5, b"a", None), &mut buf2);
        let (_, none, _) = scan_bytes(&buf2, Some(9));
        assert!(none.is_empty());
    }

    #[test]
    fn store_append_sync_reopen_roundtrip() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        {
            let (mut store, recovered, _) =
                PartitionStore::open(&dir, FlushPolicy::PerBatch, metrics()).unwrap();
            assert!(recovered.is_empty());
            for i in 0..5u64 {
                store.append(&rec(i, format!("v{i}").as_bytes(), None), 0).unwrap();
            }
            store.commit_batch().unwrap();
            assert_eq!(store.unflushed_bytes(), 0);
        }
        let (_, recovered, stats) =
            PartitionStore::open(&dir, FlushPolicy::PerBatch, metrics()).unwrap();
        assert_eq!(stats.records_recovered, 5);
        assert_eq!(stats.bytes_truncated, 0);
        assert_eq!(recovered.len(), 1);
        let records = recovered[0].resident().expect("active tail is resident");
        assert_eq!(records.len(), 5);
        assert_eq!(&records[4].value[..], b"v4");
    }

    #[test]
    fn group_commit_shares_one_fsync_across_tickets() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let m = metrics();
        let (mut store, _, _) =
            PartitionStore::open(&dir, FlushPolicy::PerBatch, m.clone()).unwrap();
        store.append(&rec(0, b"a", None), 0).unwrap();
        let t0 = store.commit_batch_ticket().unwrap().expect("unsynced bytes pending");
        store.append(&rec(1, b"b", None), 0).unwrap();
        let t1 = store.commit_batch_ticket().unwrap().expect("unsynced bytes pending");
        let before = m.flush_count();
        t1.wait().unwrap(); // one fsync covering both batches
        t0.wait().unwrap(); // rides the fsync t1 already issued
        assert_eq!(m.flush_count() - before, 1);
        assert_eq!(store.unflushed_bytes(), 0);
        // fully covered: nothing left to wait for
        assert!(store.commit_batch_ticket().unwrap().is_none());
    }

    #[test]
    fn tickets_are_settled_by_segment_rolls() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let m = metrics();
        let (mut store, _, _) =
            PartitionStore::open(&dir, FlushPolicy::PerBatch, m.clone()).unwrap();
        store.append(&rec(0, b"first", None), 0).unwrap();
        let t = store.commit_batch_ticket().unwrap().expect("unsynced bytes pending");
        // rolling to a new segment fsyncs the closed file, covering the
        // ticket without a second fsync
        store.append(&rec(1, b"second", None), 1).unwrap();
        let after_roll = m.flush_count();
        t.wait().unwrap();
        assert_eq!(m.flush_count(), after_roll);
    }

    #[test]
    fn non_perbatch_policies_issue_no_tickets() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let (mut store, _, _) =
            PartitionStore::open(&dir, FlushPolicy::OsManaged, metrics()).unwrap();
        store.append(&rec(0, b"x", None), 0).unwrap();
        assert!(store.commit_batch_ticket().unwrap().is_none());
        assert!(store.unflushed_bytes() > 0);
    }

    #[test]
    fn power_loss_never_tears_synced_prefix() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let (mut store, _, _) =
            PartitionStore::open(&dir, FlushPolicy::OsManaged, metrics()).unwrap();
        store.append(&rec(0, b"durable", None), 0).unwrap();
        store.sync().unwrap();
        store.append(&rec(1, b"at-risk", None), 0).unwrap();
        let torn = store.power_loss(0xDEAD_BEEF).unwrap();
        assert!(store.append(&rec(2, b"x", None), 0).is_err(), "poisoned until recover");
        let (recovered, stats) = store.recover().unwrap();
        let records = recovered[0].resident().expect("active tail is resident");
        assert!(records.iter().any(|r| &r.value[..] == b"durable"));
        if torn > 0 {
            assert_eq!(stats.records_recovered, 1);
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_safety() {
        let tmp = TempDir::new("octopus-data");
        let path = tmp.path().join("offsets.ckpt");
        let entries = vec![
            OffsetEntry { group: "g".into(), topic: "t".into(), partition: 0, offset: 41 },
            OffsetEntry { group: "g".into(), topic: "t".into(), partition: 1, offset: 7 },
        ];
        let (ckpt, restored) = OffsetCheckpoint::open(&path, 1, metrics());
        assert!(restored.is_empty());
        ckpt.note_commit(&entries);
        let (_, restored) = OffsetCheckpoint::open(&path, 1, metrics());
        assert_eq!(restored, entries);
        // corrupt the body: restore degrades to empty, never to garbage
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let (_, restored) = OffsetCheckpoint::open(&path, 1, metrics());
        assert!(restored.is_empty());
    }

    #[test]
    fn checkpoint_persists_and_restores_producer_registry() {
        let tmp = TempDir::new("octopus-data");
        let path = tmp.path().join("offsets.ckpt");
        let producers = ProducerCheckpoint {
            next_pid: 3,
            producers: vec![
                ProducerCkptEntry { name: "txn-a".into(), pid: 1, epoch: 4 },
                ProducerCkptEntry { name: "client-b".into(), pid: 2, epoch: 0 },
            ],
        };
        let offsets =
            vec![OffsetEntry { group: "g".into(), topic: "t".into(), partition: 0, offset: 5 }];
        {
            let (ckpt, _) = OffsetCheckpoint::open(&path, 1, metrics());
            let snapshot = producers.clone();
            ckpt.set_producer_source(move || snapshot.clone());
            ckpt.write_now(&offsets).unwrap();
        }
        let (ckpt, restored_offsets) = OffsetCheckpoint::open(&path, 1, metrics());
        assert_eq!(restored_offsets, offsets);
        assert_eq!(ckpt.take_restored_producers(), producers);
        // take is a one-shot: subsequent calls see the default
        assert_eq!(ckpt.take_restored_producers(), ProducerCheckpoint::default());
    }

    #[test]
    fn checkpoint_reads_legacy_v1_offsets_array() {
        let tmp = TempDir::new("octopus-data");
        let path = tmp.path().join("offsets.ckpt");
        let entries =
            vec![OffsetEntry { group: "g".into(), topic: "t".into(), partition: 2, offset: 11 }];
        let body = serde_json::to_vec(&entries).unwrap();
        let mut out = crc32c(&body).to_le_bytes().to_vec();
        out.extend_from_slice(&body);
        fs::write(&path, &out).unwrap();
        let (ckpt, restored) = OffsetCheckpoint::open(&path, 1, metrics());
        assert_eq!(restored, entries);
        assert_eq!(ckpt.take_restored_producers(), ProducerCheckpoint::default());
    }

    #[test]
    fn checkpoint_cadence_batches_writes() {
        let tmp = TempDir::new("octopus-data");
        let path = tmp.path().join("offsets.ckpt");
        let (ckpt, _) = OffsetCheckpoint::open(&path, 3, metrics());
        let e = vec![OffsetEntry { group: "g".into(), topic: "t".into(), partition: 0, offset: 1 }];
        ckpt.note_commit(&e);
        ckpt.note_commit(&e);
        assert!(!path.exists(), "not yet at cadence");
        ckpt.note_commit(&e);
        assert!(path.exists());
    }

    /// An Lz4 store with `count` records per segment across `segs`
    /// segments, committed and synced.
    fn filled_store(
        dir: &Path,
        opts: StoreOptions,
        segs: u64,
        per_seg: u64,
    ) -> (PartitionStore, StoreMetrics) {
        let m = metrics();
        let (mut store, _, _) =
            PartitionStore::open_with(dir, FlushPolicy::PerBatch, m.clone(), opts).unwrap();
        for s in 0..segs {
            let base = s * per_seg;
            let batch: Vec<Record> = (0..per_seg)
                .map(|i| rec(base + i, format!("value-{}", base + i).repeat(8).as_bytes(), None))
                .collect();
            store.append_batch(&batch, base).unwrap();
        }
        store.commit_batch().unwrap();
        (store, m)
    }

    /// Every file in `dir` by name, with its bytes.
    fn dir_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                (path.file_name().unwrap().to_string_lossy().into_owned(), fs::read(&path).unwrap())
            })
            .collect()
    }

    #[test]
    fn encode_then_append_encoded_is_append_batch() {
        for compression in [Compression::None, Compression::Lz4] {
            let tmp = TempDir::new("octopus-data");
            let opts = StoreOptions {
                compression,
                index_interval_bytes: 256,
                ..StoreOptions::default()
            };
            let open = |name: &str| {
                let m = metrics();
                let (store, _, _) = PartitionStore::open_with(
                    tmp.path().join(name),
                    FlushPolicy::PerBatch,
                    m.clone(),
                    opts.clone(),
                )
                .unwrap();
                (store, m)
            };
            // `reference` writes through append_batch; `leader` encodes
            // once and appends its own frames; `follower` appends the
            // leader's frames
            let (mut reference, m_ref) = open("reference");
            let (mut leader, m_leader) = open("leader");
            let (mut follower, m_follower) = open("follower");
            for b in 0..12u64 {
                let seg_base = (b / 4) * 40; // three segments of four batches
                let batch: Vec<Record> = (0..10)
                    .map(|i| {
                        let off = b * 10 + i;
                        rec(off, format!("{{\"reading\": {off}}}").repeat(6).as_bytes(), None)
                    })
                    .collect();
                reference.append_batch(&batch, seg_base).unwrap();
                let encoded = leader.encode(&batch, seg_base);
                leader.append_encoded(&encoded).unwrap();
                follower.append_encoded(&encoded).unwrap();
            }
            for store in [&mut reference, &mut leader, &mut follower] {
                store.commit_batch().unwrap();
            }
            let want = dir_files(reference.dir());
            assert!(want.keys().any(|f| f.ends_with(".index")), "indexes written");
            assert_eq!(dir_files(leader.dir()), want, "{compression:?}");
            assert_eq!(dir_files(follower.dir()), want, "{compression:?}");
            let counters = |m: &StoreMetrics| {
                (
                    m.compressed_batch_count(),
                    m.compressed_raw_bytes_total(),
                    m.compressed_stored_bytes_total(),
                    m.bytes_written.get(),
                    m.flush_count(),
                )
            };
            assert_eq!(counters(&m_leader), counters(&m_ref));
            assert_eq!(counters(&m_follower), counters(&m_ref));
            assert_eq!(m_ref.compressed_batch_count() > 0, compression == Compression::Lz4);
            let read =
                |s: &PartitionStore| s.read_records(0, usize::MAX, SeekMode::Indexed).unwrap();
            assert_eq!(read(&follower), read(&reference));
        }
    }

    #[test]
    fn copy_from_is_a_byte_copy_that_stays_one() {
        let tmp = TempDir::new("octopus-data");
        let opts = StoreOptions {
            compression: Compression::Lz4,
            index_interval_bytes: 128,
            ..StoreOptions::default()
        };
        let (mut leader, _) = filled_store(&tmp.path().join("leader"), opts.clone(), 3, 20);
        let (mut replica, _, _) = PartitionStore::open_with(
            tmp.path().join("replica"),
            FlushPolicy::PerBatch,
            metrics(),
            opts,
        )
        .unwrap();
        replica.append(&rec(0, b"stale", None), 0).unwrap();
        replica.copy_from(&leader).unwrap();
        assert_eq!(dir_files(replica.dir()), dir_files(leader.dir()));
        // later appends of the leader's frames keep the copies identical
        let more: Vec<Record> = (60..70).map(|o| rec(o, b"more more more more", None)).collect();
        let encoded = leader.encode(&more, 40);
        leader.append_encoded(&encoded).unwrap();
        replica.append_encoded(&encoded).unwrap();
        assert_eq!(dir_files(replica.dir()), dir_files(leader.dir()));
        assert_eq!(replica.read_records(0, usize::MAX, SeekMode::Indexed).unwrap().len(), 70);
    }

    #[test]
    fn compressed_batches_roundtrip_across_reopen() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions { compression: Compression::Lz4, ..StoreOptions::default() };
        let (store, m) = filled_store(&dir, opts.clone(), 2, 50);
        assert!(m.compressed_batch_count() >= 1, "batches were compressed");
        assert!(
            m.compressed_stored_bytes_total() < m.compressed_raw_bytes_total(),
            "repetitive payloads must shrink on disk"
        );
        let records = store.read_records(0, usize::MAX, SeekMode::Indexed).unwrap();
        assert_eq!(records.len(), 100);
        assert_eq!(&records[73].value[..8], b"value-73");
        drop(store);
        let (_, recovered, stats) =
            PartitionStore::open_with(&dir, FlushPolicy::PerBatch, metrics(), opts).unwrap();
        assert_eq!(stats.records_recovered, 100, "no loss across reopen");
        let total: u64 = recovered.iter().map(|s| s.record_count()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn reopen_skips_sealed_segments_via_footers() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions::default();
        let (store, _) = filled_store(&dir, opts.clone(), 3, 10);
        drop(store);
        let m = metrics();
        let (_, recovered, stats) =
            PartitionStore::open_with(&dir, FlushPolicy::PerBatch, m.clone(), opts).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(stats.segments_sealed, 2, "both sealed segments adopted from footers");
        assert_eq!(stats.segments_scanned, 1, "only the active tail is fully scanned");
        assert!(m.sealed_skip_count() >= 2);
        assert_eq!(stats.records_recovered, 30);
        // sealed segments come back lazy; their data loads on demand
        assert!(recovered[0].resident().is_none());
        match &recovered[0] {
            RecoveredSegment::Sealed(lazy) => assert_eq!(lazy.records().unwrap().len(), 10),
            RecoveredSegment::Resident { .. } => panic!("sealed segment adopted resident"),
        }
    }

    #[test]
    fn deleted_or_corrupt_index_is_rebuilt_without_data_loss() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions { compression: Compression::Lz4, ..StoreOptions::default() };
        let (store, _) = filled_store(&dir, opts.clone(), 3, 10);
        drop(store);
        // delete one sealed index, corrupt another
        fs::remove_file(index::index_path(&dir, 0)).unwrap();
        let idx1 = index::index_path(&dir, 10);
        let mut bytes = fs::read(&idx1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&idx1, &bytes).unwrap();
        let m = metrics();
        let (store, _, stats) =
            PartitionStore::open_with(&dir, FlushPolicy::PerBatch, m.clone(), opts).unwrap();
        assert_eq!(stats.records_recovered, 30, "full-scan fallback loses nothing");
        assert!(m.index_rebuild_count() >= 2, "both damaged indexes rebuilt");
        // the rebuilt indexes serve seeks again
        let records = store.read_records(17, usize::MAX, SeekMode::Indexed).unwrap();
        assert_eq!(records.first().map(|r| r.offset), Some(17));
        assert_eq!(records.len(), 13);
    }

    #[test]
    fn cold_offload_and_hydration_roundtrip() {
        let tmp = TempDir::new("octopus-data");
        let cold_dir = TempDir::new("octopus-cold");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions {
            cold: Some(Arc::new(crate::tier::FsColdStore::new(cold_dir.path()))),
            ..StoreOptions::default()
        };
        let (mut store, m) = filled_store(&dir, opts, 3, 10);
        assert_eq!(store.offload_now().unwrap(), 2, "both sealed segments offload");
        assert_eq!(m.tier_offload_count(), 2);
        assert!(!seg_path(&dir, 0).exists(), "cold data file left the hot dir");
        assert!(dir.join(format!("{:020}.tier", 0)).exists(), "tier marker in its place");
        assert!(index::index_path(&dir, 0).exists(), "index stays hot");
        // reads through the cold range hydrate transparently
        let records = store.read_records(3, 10, SeekMode::Indexed).unwrap();
        assert_eq!(records.first().map(|r| r.offset), Some(3));
        assert_eq!(records.len(), 10);
        assert!(m.tier_hydration_count() >= 1);
        assert!(seg_path(&dir, 0).exists(), "hydration restored the data file");
        // idempotent: re-reading the now-hot segment hydrates nothing new
        let before = m.tier_hydration_count();
        let again = store.read_records(3, 10, SeekMode::Indexed).unwrap();
        assert_eq!(again, records);
        assert_eq!(m.tier_hydration_count(), before);
    }

    #[test]
    fn indexed_reads_match_linear_scan() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions {
            index_interval_bytes: 256,
            compression: Compression::Lz4,
            ..StoreOptions::default()
        };
        let (store, _) = filled_store(&dir, opts, 4, 25);
        for from in [0, 1, 24, 25, 26, 50, 73, 99, 100, 250] {
            for max in [1, 7, usize::MAX] {
                let indexed = store.read_records(from, max, SeekMode::Indexed).unwrap();
                let linear = store.read_records(from, max, SeekMode::LinearScan).unwrap();
                assert_eq!(indexed, linear, "seek modes diverged at from={from} max={max}");
            }
        }
    }

    #[test]
    fn truncate_lands_inside_a_compressed_batch() {
        let tmp = TempDir::new("octopus-data");
        let dir = tmp.path().join("p0");
        let opts = StoreOptions { compression: Compression::Lz4, ..StoreOptions::default() };
        let (mut store, _) = filled_store(&dir, opts.clone(), 1, 10);
        // offset 5 cuts the single 10-record batch frame in half
        store.truncate_to(5).unwrap();
        let records = store.read_records(0, usize::MAX, SeekMode::Indexed).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records.last().map(|r| r.offset), Some(4));
        // survivors stay appendable and durable across reopen
        store.append(&rec(5, b"after-cut", None), 0).unwrap();
        store.commit_batch().unwrap();
        drop(store);
        let (_, _, stats) =
            PartitionStore::open_with(&dir, FlushPolicy::PerBatch, metrics(), opts).unwrap();
        assert_eq!(stats.records_recovered, 6);
        assert_eq!(stats.bytes_truncated, 0, "the re-framed file is clean");
    }

    #[test]
    fn tempdir_cleans_up_after_itself() {
        let path = {
            let tmp = TempDir::new("octopus-data");
            assert!(tmp.path().exists());
            tmp.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
