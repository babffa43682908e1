//! The segmented partition log.
//!
//! A partition is an append-only sequence of records with dense offsets,
//! stored as a list of *segments* (Kafka's on-disk layout, kept in
//! memory here). Segments bound the granularity of retention: time- and
//! size-based retention drop whole segments from the front; compaction
//! rewrites closed segments keeping only the latest record per key
//! (§IV-F: "Users can also configure the compaction and retention
//! policy").
//!
//! ## Concurrency: snapshot reads
//!
//! Records live in immutable chunks (`Arc<[Record]>`, one per appended
//! batch). After every mutation the log publishes a [`LogSnapshot`] — a
//! list of chunk pointers — into a slot readers share. Fetches read the
//! snapshot without the append lock: writers never block readers, and a
//! fetch clones only `Arc`/`Bytes` refcounts, never record payloads
//! (DESIGN.md §11). Appends stay cheap because sealing a batch into a
//! chunk moves the records; only republishing the *active* segment's
//! chunk list is per-append work, and that is a pointer-vector clone.
//!
//! ## One append path
//!
//! Every append — a leader stamping a producer's batch, a learner
//! copying another replica's records ([`PartitionLog::append_copied`]),
//! a follower adopting its leader's append
//! (`PartitionLog::append_replicated`) — lays records out as
//! per-segment chunks, pushes them, and writes them through to the
//! store. A follower takes the leader's chunks and encoded frames from
//! its [`SealedRun`] instead of building its own, so replicas share
//! record memory and store the same bytes.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use octopus_types::{OctoError, OctoResult, Offset, Timestamp};

use crate::config::{CleanupPolicy, RetentionConfig};
use crate::record::{Record, RecordBatch};
use crate::store::{
    EncodedBatch, FlushPolicy, LazySegment, PartitionStore, RecoveredSegment, RecoveredSegments,
    RecoveryStats, StoreMetrics, StoreOptions, SyncTicket,
};

/// Default maximum segment size before rolling (1 MiB here; Kafka's
/// default is 1 GiB — scaled down for in-memory use).
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

/// Appends smaller than this merge into the previous chunk instead of
/// starting a new one, so single-record producers cannot degenerate a
/// segment into one chunk per record (which would make snapshot
/// publication O(records)).
const CHUNK_MERGE_BELOW: usize = 32;

#[derive(Debug, Clone)]
struct Segment {
    base_offset: Offset,
    /// Immutable runs of records, in offset order. Readers hold these
    /// by `Arc`; mutations (compaction, truncation, fault injection)
    /// rebuild the affected chunks. Empty while `lazy` is set.
    chunks: Vec<Arc<[Record]>>,
    record_count: usize,
    size_bytes: usize,
    max_timestamp: Timestamp,
    /// Cached immutable view used by [`PartitionLog::publish`];
    /// invalidated by any mutation of this segment. Sharing the cache
    /// between clones is safe: snapshots are immutable.
    snap_cache: Option<Arc<SegmentSnapshot>>,
    /// Sealed segment adopted from its index footer at recovery: the
    /// counts above come from the footer, and the records load from
    /// disk (or the cold tier) only when a read actually lands here.
    lazy: Option<Arc<LazySegment>>,
}

impl Segment {
    fn new(base_offset: Offset) -> Self {
        Segment {
            base_offset,
            chunks: Vec::new(),
            record_count: 0,
            size_bytes: 0,
            max_timestamp: Timestamp::from_millis(0),
            snap_cache: None,
            lazy: None,
        }
    }

    /// Adopt a footer-certified sealed segment without loading records.
    fn from_lazy(lazy: Arc<LazySegment>) -> Self {
        Segment {
            base_offset: lazy.base(),
            chunks: Vec::new(),
            record_count: lazy.record_count() as usize,
            size_bytes: lazy.logical_bytes() as usize,
            max_timestamp: Timestamp::from_millis(lazy.max_ts_ms()),
            snap_cache: None,
            lazy: Some(lazy),
        }
    }

    /// Offset of the last record, from the footer when lazy.
    fn last_offset(&self) -> Option<Offset> {
        if let Some(lazy) = &self.lazy {
            return Some(lazy.last_offset());
        }
        self.chunks.last().and_then(|c| c.last()).map(|r| r.offset)
    }

    /// The segment's chunk list, loading a lazy segment's records
    /// (shared decode) without making them permanently resident.
    fn loaded(&self) -> OctoResult<Vec<Arc<[Record]>>> {
        if let Some(lazy) = &self.lazy {
            return Ok(vec![lazy.records()?]);
        }
        Ok(self.chunks.clone())
    }

    /// Convert a lazy segment into a resident one (mutations need
    /// owned chunks). No-op when already resident.
    fn materialize(&mut self) -> OctoResult<()> {
        if let Some(lazy) = &self.lazy {
            let records = lazy.records()?;
            self.chunks = vec![records];
            self.lazy = None;
            self.snap_cache = None;
        }
        Ok(())
    }

    fn next_offset(&self) -> Offset {
        self.base_offset + self.record_count as u64
    }

    /// Iterate records in offset order across chunks.
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Replace this segment's contents with `records` (one chunk),
    /// recomputing the size/count/timestamp metadata.
    fn reset_records(&mut self, records: Vec<Record>) {
        self.record_count = records.len();
        self.size_bytes = records.iter().map(|r| r.wire_size()).sum();
        self.max_timestamp = records
            .iter()
            .map(|r| r.append_time)
            .max()
            .unwrap_or(Timestamp::from_millis(0));
        self.chunks = if records.is_empty() { Vec::new() } else { vec![Arc::from(records)] };
        self.snap_cache = None;
        self.lazy = None;
    }

    /// Rebuild a segment from recovered records (sizes and timestamps
    /// recomputed from the records themselves).
    fn from_records(base_offset: Offset, records: Vec<Record>) -> Self {
        let mut seg = Segment::new(base_offset);
        seg.reset_records(records);
        seg
    }

    /// All records as one contiguous run (cold paths that need a slice:
    /// store rewrites, resync). Loads lazy segments.
    fn contiguous(&self) -> OctoResult<Arc<[Record]>> {
        if let Some(lazy) = &self.lazy {
            return lazy.records();
        }
        if self.chunks.len() == 1 {
            return Ok(self.chunks[0].clone());
        }
        Ok(self.records().cloned().collect::<Vec<_>>().into())
    }
}

/// Immutable view of one segment, shared between the log and every
/// published [`LogSnapshot`] that includes it.
#[derive(Debug)]
pub struct SegmentSnapshot {
    base_offset: Offset,
    max_timestamp: Timestamp,
    body: SnapshotBody,
}

/// How a snapshotted segment holds its records.
#[derive(Debug)]
enum SnapshotBody {
    /// Resident chunks, shared with the live log.
    Chunks(Vec<Arc<[Record]>>),
    /// Footer-certified sealed segment; records load on first read.
    Lazy(Arc<LazySegment>),
}

impl SegmentSnapshot {
    fn loaded(&self) -> OctoResult<Vec<Arc<[Record]>>> {
        match &self.body {
            SnapshotBody::Chunks(chunks) => Ok(chunks.clone()),
            SnapshotBody::Lazy(lazy) => Ok(vec![lazy.records()?]),
        }
    }

    /// Offset of the last record without loading a lazy body.
    fn last_offset(&self) -> Option<Offset> {
        match &self.body {
            SnapshotBody::Chunks(chunks) => {
                chunks.last().and_then(|c| c.last()).map(|r| r.offset)
            }
            SnapshotBody::Lazy(lazy) => Some(lazy.last_offset()),
        }
    }
}

/// An immutable point-in-time view of a partition log.
///
/// Obtained from [`PartitionLog::snapshot`] (or a broker
/// [`crate::broker::LogHandle`]); serves reads with the exact semantics
/// of the live log at publication time, without holding any lock. The
/// paper's fetch path reads the page cache; this is its in-memory
/// equivalent.
#[derive(Debug)]
pub struct LogSnapshot {
    segments: Vec<Arc<SegmentSnapshot>>,
    log_start: Offset,
    end: Offset,
}

impl LogSnapshot {
    /// An empty snapshot (placeholder before the first publish).
    fn empty() -> Self {
        LogSnapshot { segments: Vec::new(), log_start: 0, end: 0 }
    }

    /// Offset the next appended record will get, as of this snapshot.
    pub fn end_offset(&self) -> Offset {
        self.end
    }

    /// Offset of the earliest retained record, as of this snapshot.
    pub fn start_offset(&self) -> Offset {
        self.log_start
    }

    /// Read up to `max_records` records starting at `offset` —
    /// identical semantics to [`PartitionLog::read`], which delegates
    /// here. Record clones are refcount bumps (`Bytes` payloads), not
    /// payload copies.
    pub fn read(&self, offset: Offset, max_records: usize) -> OctoResult<Vec<Record>> {
        if offset == self.end {
            return Ok(Vec::new());
        }
        if offset < self.log_start || offset > self.end {
            return Err(OctoError::OffsetOutOfRange {
                requested: offset,
                earliest: self.log_start,
                latest: self.end,
            });
        }
        let mut out = Vec::new();
        // binary search for the segment containing `offset`
        let seg_idx = match self
            .segments
            .binary_search_by(|s| s.base_offset.cmp(&offset))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        'outer: for seg in &self.segments[seg_idx..] {
            // skip (and never load) segments wholly below the target
            if seg.last_offset().is_none_or(|l| l < offset) {
                continue;
            }
            for chunk in seg.loaded()? {
                for rec in chunk.iter() {
                    if rec.offset < offset {
                        continue;
                    }
                    if out.len() >= max_records {
                        break 'outer;
                    }
                    out.push(rec.clone());
                }
            }
        }
        Ok(out)
    }

    /// The smallest offset whose append time is `>= ts`, or the end
    /// offset if no such record is retained — identical semantics to
    /// [`PartitionLog::offset_for_timestamp`].
    pub fn offset_for_timestamp(&self, ts: Timestamp) -> Offset {
        for seg in &self.segments {
            if seg.max_timestamp < ts {
                continue;
            }
            // best-effort on a lazy segment that fails to load: the
            // max-timestamp prefilter already bounded the answer
            let Ok(chunks) = seg.loaded() else { continue };
            for rec in chunks.iter().flat_map(|c| c.iter()) {
                if rec.append_time >= ts {
                    return rec.offset;
                }
            }
        }
        self.end
    }
}

/// The slot a log publishes snapshots into; shared with reader handles.
///
/// A `Mutex` rather than an `RwLock`: both sides hold it only for an
/// `Arc` clone or pointer swap (nanoseconds), and a mutex keeps the
/// single publishing writer from being starved by a reader stampede —
/// exactly the pattern a fetch-heavy partition produces.
pub type SnapshotSlot = Arc<Mutex<Arc<LogSnapshot>>>;

/// A run of records and the base offset of the segment it belongs to.
type SegmentChunk = (Offset, Arc<[Record]>);

/// What one leader append sealed into its log, in the form its
/// followers adopt (`PartitionLog::append_replicated`): the record
/// chunks it pushed, each with the base offset of the segment it landed
/// in, and on durable logs the frames its store wrote. Followers share
/// the chunks by `Arc` and write the frames' bytes unchanged, so the
/// leader assigns offsets, computes CRCs, and compresses once.
#[derive(Debug)]
pub struct SealedRun {
    /// Offset of the first appended record.
    base: Offset,
    /// Records appended.
    count: usize,
    /// `(segment base, chunk)` per segment the append touched. The
    /// first chunk may begin before `base`: the append merged into the
    /// segment's small last chunk.
    chunks: Vec<SegmentChunk>,
    /// One encoded batch per chunk on durable logs; empty on volatile.
    encoded: Vec<EncodedBatch>,
}

impl SealedRun {
    /// The appended records, in offset order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &Record> {
        self.chunks.iter().flat_map(|(_, c)| c.iter()).skip_while(|r| r.offset < self.base)
    }
}

/// The outcome of [`PartitionLog::append_deferred`].
#[derive(Debug)]
pub struct DeferredAppend {
    /// Offset assigned to the batch's first record.
    pub base: Offset,
    /// The fsync to wait on after releasing the log lock
    /// ([`FlushPolicy::PerBatch`] only).
    pub ticket: Option<SyncTicket>,
    /// What followers adopt.
    pub run: Arc<SealedRun>,
}

/// Check records stamped elsewhere before they join a log: offsets
/// dense from `base` and every record's CRC intact.
fn check_stamped<'a>(records: impl Iterator<Item = &'a Record>, base: Offset) -> OctoResult<()> {
    for (i, rec) in records.enumerate() {
        if rec.offset != base + i as u64 {
            return Err(OctoError::Invalid(format!(
                "copied run not dense: expected offset {}, got {}",
                base + i as u64,
                rec.offset
            )));
        }
        if !rec.verify() {
            let msg = format!("copied record {} failed CRC check", rec.offset);
            return Err(OctoError::Invalid(msg));
        }
    }
    Ok(())
}

/// Write the records at `offset >= base` into `store` — the `encoded`
/// frames as given (a leader's), else encoded here from `chunks` — then
/// apply the flush policy, inline or as a deferred [`SyncTicket`].
/// Returns the ticket and the frames encoded here.
fn write_through(
    store: &mut PartitionStore,
    base: Offset,
    chunks: &[SegmentChunk],
    encoded: Option<&[EncodedBatch]>,
    deferred: bool,
) -> OctoResult<(Option<SyncTicket>, Vec<EncodedBatch>)> {
    let mut kept = Vec::new();
    match encoded {
        Some(encoded) => {
            for batch in encoded {
                store.append_encoded(batch)?;
            }
        }
        None => {
            for (seg_base, chunk) in chunks {
                let held = chunk.partition_point(|r| r.offset < base);
                let batch = store.encode(&chunk[held..], *seg_base);
                store.append_encoded(&batch)?;
                kept.push(batch);
            }
        }
    }
    let ticket = if deferred {
        store.commit_batch_ticket()?
    } else {
        store.commit_batch()?;
        None
    };
    Ok((ticket, kept))
}

/// A segmented log for one partition: always present in memory (the
/// fabric serves reads from the "page cache"), optionally backed by a
/// durable [`PartitionStore`] that survives crashes and power loss.
#[derive(Debug)]
pub struct PartitionLog {
    segments: Vec<Segment>,
    segment_bytes: usize,
    /// Offset of the first retained record.
    log_start: Offset,
    total_bytes: usize,
    /// Durable backing store, if the cluster was built with a data dir.
    store: Option<PartitionStore>,
    /// Published read view; refreshed after every mutation.
    snap: SnapshotSlot,
}

impl Clone for PartitionLog {
    /// Clones are *in-memory snapshots*: the durable store handle stays
    /// with the original, and the clone publishes into its own fresh
    /// snapshot slot (readers of the original keep reading the
    /// original).
    fn clone(&self) -> Self {
        let mut log = PartitionLog {
            segments: self.segments.clone(),
            segment_bytes: self.segment_bytes,
            log_start: self.log_start,
            total_bytes: self.total_bytes,
            store: None,
            snap: Arc::new(Mutex::new(Arc::new(LogSnapshot::empty()))),
        };
        log.publish();
        log
    }
}

impl Default for PartitionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionLog {
    /// Empty log with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_bytes(DEFAULT_SEGMENT_BYTES)
    }

    /// Empty log with a custom segment roll size (small values make
    /// retention tests cheap).
    pub fn with_segment_bytes(segment_bytes: usize) -> Self {
        let mut log = PartitionLog {
            segments: vec![Segment::new(0)],
            segment_bytes: segment_bytes.max(1),
            log_start: 0,
            total_bytes: 0,
            store: None,
            snap: Arc::new(Mutex::new(Arc::new(LogSnapshot::empty()))),
        };
        log.publish();
        log
    }

    /// Open a durable log rooted at `dir`, recovering whatever a
    /// previous incarnation persisted (truncating any torn tail on
    /// disk). Returns the log plus the recovery stats.
    pub fn open_durable(
        segment_bytes: usize,
        dir: impl Into<std::path::PathBuf>,
        policy: FlushPolicy,
        metrics: StoreMetrics,
    ) -> OctoResult<(Self, RecoveryStats)> {
        Self::open_durable_with(segment_bytes, dir, policy, metrics, StoreOptions::default())
    }

    /// [`PartitionLog::open_durable`] with explicit storage options:
    /// sparse index density, per-batch compression, and cold tiering.
    /// Sealed segments recovered via their index footers are adopted
    /// lazily — reopen reads no sealed data at all.
    pub fn open_durable_with(
        segment_bytes: usize,
        dir: impl Into<std::path::PathBuf>,
        policy: FlushPolicy,
        metrics: StoreMetrics,
        opts: StoreOptions,
    ) -> OctoResult<(Self, RecoveryStats)> {
        let (store, recovered, stats) = PartitionStore::open_with(dir, policy, metrics, opts)?;
        let mut log = PartitionLog::with_segment_bytes(segment_bytes);
        log.store = Some(store);
        log.adopt_recovered(recovered);
        Ok((log, stats))
    }

    /// Whether this log writes through to disk.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The current published read view. Cheap (`Arc` clone); safe to
    /// call while another thread appends.
    pub fn snapshot(&self) -> Arc<LogSnapshot> {
        self.snap.lock().clone()
    }

    /// The slot this log publishes into — lets a shared handle read
    /// snapshots without locking the log itself.
    pub fn snapshot_slot(&self) -> SnapshotSlot {
        Arc::clone(&self.snap)
    }

    /// Rebuild and publish the read view. Closed segments reuse their
    /// cached immutable views; only segments mutated since the last
    /// publish are rebuilt.
    fn publish(&mut self) {
        let end = self.end_offset();
        let mut segments = Vec::with_capacity(self.segments.len());
        for seg in &mut self.segments {
            if seg.snap_cache.is_none() {
                let body = match &seg.lazy {
                    Some(lazy) => SnapshotBody::Lazy(Arc::clone(lazy)),
                    None => SnapshotBody::Chunks(seg.chunks.clone()),
                };
                seg.snap_cache = Some(Arc::new(SegmentSnapshot {
                    base_offset: seg.base_offset,
                    max_timestamp: seg.max_timestamp,
                    body,
                }));
            }
            segments.push(seg.snap_cache.clone().expect("just filled"));
        }
        let snapshot = Arc::new(LogSnapshot { segments, log_start: self.log_start, end });
        *self.snap.lock() = snapshot;
    }

    /// Replace in-memory state with segments recovered from disk.
    /// Footer-adopted sealed segments stay lazy (no data read); the
    /// active tail and any rescanned segment arrive resident.
    fn adopt_recovered(&mut self, recovered: RecoveredSegments) {
        if recovered.is_empty() {
            self.segments = vec![Segment::new(0)];
            self.log_start = 0;
            self.total_bytes = 0;
        } else {
            self.segments = recovered
                .into_iter()
                .map(|seg| match seg {
                    RecoveredSegment::Resident { base, records } => {
                        Segment::from_records(base, records)
                    }
                    RecoveredSegment::Sealed(lazy) => Segment::from_lazy(lazy),
                })
                .collect();
            self.log_start = self.segments[0].base_offset;
            self.total_bytes = self.segments.iter().map(|s| s.size_bytes).sum();
        }
        self.publish();
    }

    /// Restart-time recovery. Durable logs reload authoritative state
    /// from disk (rescanning segment files and truncating the torn
    /// tail there); volatile logs fall back to the in-memory
    /// [`PartitionLog::verify_and_truncate`].
    pub fn recover(&mut self) -> OctoResult<RecoveryStats> {
        if let Some(store) = self.store.as_mut() {
            let (recovered, stats) = store.recover()?;
            self.adopt_recovered(recovered);
            Ok(stats)
        } else {
            let dropped = self.verify_and_truncate();
            Ok(RecoveryStats { records_truncated: dropped as u64, ..RecoveryStats::default() })
        }
    }

    /// Adopt another log's contents (ISR resync copying the leader).
    /// Keeps this log's own durable store, rewriting its files as a byte
    /// copy of the source's, so both replicas keep storing the same
    /// bytes as later appends replicate. Replicas of one partition are
    /// all durable or all volatile; a durable log refuses a volatile
    /// source, which has no bytes to copy.
    pub fn replace_from(&mut self, snapshot: &PartitionLog) -> OctoResult<()> {
        if self.store.is_some() && snapshot.store.is_none() {
            let msg = "a durable replica cannot resync from a volatile log";
            return Err(OctoError::Internal(msg.into()));
        }
        self.segments = snapshot.segments.clone();
        self.segment_bytes = snapshot.segment_bytes;
        self.log_start = snapshot.log_start;
        self.total_bytes = snapshot.total_bytes;
        if let (Some(store), Some(src)) = (self.store.as_mut(), snapshot.store.as_ref()) {
            store.copy_from(src)?;
        }
        self.publish();
        Ok(())
    }

    /// Simulate power loss: RAM is gone; the disk keeps closed segments,
    /// the fsynced prefix of the active segment, and an `entropy`-chosen
    /// slice of its unflushed suffix. The in-memory state is wiped —
    /// only [`PartitionLog::recover`] (the restart path) brings the
    /// partition back. Returns bytes torn from disk (`0` for volatile
    /// logs, where a crash loses nothing by construction).
    pub fn power_loss(&mut self, entropy: u64) -> OctoResult<u64> {
        let Some(store) = self.store.as_mut() else { return Ok(0) };
        let torn = store.power_loss(entropy)?;
        self.segments = vec![Segment::new(0)];
        self.log_start = 0;
        self.total_bytes = 0;
        self.publish();
        Ok(torn)
    }

    /// Force-fsync the durable store (graceful shutdown / flush-all).
    pub fn sync_store(&mut self) -> OctoResult<()> {
        match self.store.as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Bytes appended but not yet known to be on stable storage.
    pub fn unflushed_bytes(&self) -> u64 {
        self.store.as_ref().map(|s| s.unflushed_bytes()).unwrap_or(0)
    }

    /// The durable backing store, if any (benches and drills reach the
    /// seek/tiering machinery through this).
    pub fn store(&self) -> Option<&PartitionStore> {
        self.store.as_ref()
    }

    /// Mutable access to the durable backing store, if any.
    pub fn store_mut(&mut self) -> Option<&mut PartitionStore> {
        self.store.as_mut()
    }

    /// Offload every sealed segment's data file to the cold tier now.
    /// Returns how many segments moved (0 without a store or cold tier).
    pub fn offload_cold(&mut self) -> OctoResult<u64> {
        self.store.as_mut().map_or(Ok(0), |s| s.offload_now())
    }

    /// Records currently resident in RAM (lazy sealed segments count
    /// zero until a read materializes them) — lets tests assert that
    /// reopen did not load sealed data.
    pub fn resident_records(&self) -> usize {
        self.segments.iter().filter(|s| s.lazy.is_none()).map(|s| s.record_count).sum()
    }

    /// Change the segment roll size for future appends (topic config
    /// updates propagate here). Existing segments are untouched.
    pub fn set_segment_bytes(&mut self, segment_bytes: usize) {
        self.segment_bytes = segment_bytes.max(1);
    }

    /// Offset the next appended record will get.
    pub fn end_offset(&self) -> Offset {
        self.segments.last().map(|s| s.next_offset()).unwrap_or(self.log_start)
    }

    /// Offset of the earliest retained record.
    pub fn start_offset(&self) -> Offset {
        self.log_start
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.record_count).sum()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained bytes.
    pub fn size_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Append a verified batch at `now`; returns the base offset
    /// assigned to the first record. Durable logs apply the flush policy
    /// inline before returning (an acked record is already fsynced under
    /// [`FlushPolicy::PerBatch`]).
    pub fn append(&mut self, batch: &RecordBatch, now: Timestamp) -> OctoResult<Offset> {
        self.append_inner(batch, now, false).map(|a| a.base)
    }

    /// [`PartitionLog::append`], but under [`FlushPolicy::PerBatch`] the
    /// batch's fsync is deferred to the returned [`SyncTicket`]. The
    /// caller waits the ticket *after releasing the partition lock*, so
    /// concurrent producers to the same partition share fsyncs (group
    /// commit, DESIGN.md §11) instead of serializing them under the
    /// mutex. A failed `wait` means the batch reached the file but its
    /// durability is unconfirmed; callers surface the error and the
    /// producer retries (at-least-once).
    ///
    /// The result also carries the [`SealedRun`] a leader's followers
    /// adopt: the record chunks this append sealed and, on durable logs,
    /// the frames its store wrote.
    pub fn append_deferred(&mut self, batch: &RecordBatch, now: Timestamp) -> OctoResult<DeferredAppend> {
        self.append_inner(batch, now, true)
    }

    fn append_inner(
        &mut self,
        batch: &RecordBatch,
        now: Timestamp,
        deferred: bool,
    ) -> OctoResult<DeferredAppend> {
        if !batch.verify() {
            return Err(OctoError::Invalid("record batch failed CRC check".into()));
        }
        let base = self.end_offset();
        let records = batch.events.iter().enumerate().map(|(i, event)| {
            let mut rec = Record {
                offset: base + i as u64,
                append_time: now,
                key: event.key.clone(),
                value: event.payload.clone(),
                headers: event.headers.clone(),
                producer_time: event.timestamp,
                crc: 0,
                eos: batch.producer.map(|stamp| crate::record::RecordEos {
                    pid: stamp.pid,
                    epoch: stamp.epoch,
                    seq: stamp.seq + i as u64,
                    txn: batch.txn,
                    control: batch.control,
                }),
            };
            rec.crc = rec.compute_crc();
            rec
        });
        let chunks = self.layout(records);
        self.push_stamped(&chunks);
        let (ticket, encoded) = self.persist(base, &chunks, None, deferred)?;
        let run = Arc::new(SealedRun { base, count: batch.events.len(), chunks, encoded });
        Ok(DeferredAppend { base, ticket, run })
    }

    /// Append records copied verbatim from another replica (reassignment
    /// learner catch-up). Unlike [`PartitionLog::append`], offsets,
    /// timestamps, CRCs, and EOS stamps are preserved exactly as the
    /// source assigned them, so the learner's log is byte-identical to
    /// the leader's and the EOS dedup rebuild sees the same history.
    ///
    /// The run must be contiguous with this log: `records[0].offset`
    /// must equal [`PartitionLog::end_offset`]. As a special case an
    /// *empty* log adopts a higher base (the leader's retention already
    /// dropped the front; the learner starts at the leader's start
    /// offset). Durable logs write through inline — catch-up traffic is
    /// throttled anyway, so it never rides the group-commit path.
    ///
    /// This is the verbatim path a follower's replicated append
    /// (`PartitionLog::append_replicated`) shares: the same CRC and
    /// density check, chunk push, and write-through. Only the layout
    /// differs: copied records roll by this log's own segment size,
    /// replicated ones at the leader's segment bases.
    pub fn append_copied(&mut self, records: &[Record]) -> OctoResult<Offset> {
        let Some(first) = records.first() else { return Ok(self.end_offset()) };
        if self.is_empty() && first.offset > self.end_offset() {
            self.segments = vec![Segment::new(first.offset)];
            self.log_start = first.offset;
        }
        let base = self.end_offset();
        if first.offset != base {
            return Err(OctoError::OffsetOutOfRange {
                requested: first.offset,
                earliest: self.log_start,
                latest: base,
            });
        }
        check_stamped(records.iter(), base)?;
        let chunks = self.layout(records.iter().cloned());
        self.push_stamped(&chunks);
        self.persist(base, &chunks, None, false)?;
        Ok(base)
    }

    /// Apply a leader's append on this follower, under the follower's
    /// log lock and judged from this log alone:
    ///
    /// * **It ends where the run begins** — adopt the run verbatim:
    ///   check every record's CRC, roll at the leader's segment bases,
    ///   push the leader's chunks (shared, not copied), and write the
    ///   leader's encoded frames under a group-commit ticket.
    /// * **It already holds the run** (the same records) — a
    ///   resync copied it after the job was queued: acknowledge
    ///   without appending.
    /// * **Anything else** (its leader was deposed mid-produce and the
    ///   logs diverged) — re-derive the producer's `batch` at this
    ///   log's own end, as a plain append would.
    ///
    /// Returns the fsync ticket to wait on after releasing the lock.
    pub(crate) fn append_replicated(
        &mut self,
        run: &SealedRun,
        batch: &RecordBatch,
        now: Timestamp,
    ) -> OctoResult<Option<SyncTicket>> {
        let end = self.end_offset();
        let active_base = self.segments.last().expect("log always has a segment").base_offset;
        // the run's first chunk lands in our active segment or rolls
        // exactly at our end; anything else means the layouts diverged
        let same_layout = run.chunks.first().is_some_and(|(b, _)| *b == active_base || *b == end);
        if run.base == end && same_layout {
            check_stamped(run.records(), end)?;
            self.push_stamped(&run.chunks);
            let encoded = (!run.encoded.is_empty()).then_some(&run.encoded[..]);
            return self.persist(end, &run.chunks, encoded, true).map(|(ticket, _)| ticket);
        }
        if self.holds(run) {
            return Ok(None);
        }
        self.append_deferred(batch, now).map(|a| a.ticket)
    }

    /// Whether this log already holds exactly the records of `run`. Whole
    /// records are compared: a CRC covers only key and value, so equal
    /// CRCs do not tell apart two control markers, or two producers'
    /// events with the same payload.
    fn holds(&self, run: &SealedRun) -> bool {
        let mine = self.snapshot().read(run.base, run.count);
        mine.is_ok_and(|mine| mine.iter().eq(run.records()))
    }

    /// Split stamped records that continue this log into per-segment
    /// chunks by the roll rule, without touching the log. When the
    /// active segment's last chunk is small, the first chunk starts with
    /// its records (a bounded copy), so single-record producers cannot
    /// degenerate a segment into one chunk per record.
    fn layout(&self, records: impl Iterator<Item = Record>) -> Vec<SegmentChunk> {
        let active = self.segments.last().expect("log always has a segment");
        let (mut seg_base, mut count, mut size) =
            (active.base_offset, active.record_count, active.size_bytes);
        let prefix: &[Record] = match active.chunks.last() {
            Some(last) if last.len() < CHUNK_MERGE_BELOW => last,
            _ => &[],
        };
        let mut pending: Vec<Record> = Vec::with_capacity(prefix.len() + records.size_hint().0);
        pending.extend_from_slice(prefix);
        let mut held = prefix.len();
        let mut chunks = Vec::new();
        for rec in records {
            let rec_size = rec.wire_size();
            if count > 0 && size + rec_size > self.segment_bytes {
                if pending.len() > held {
                    chunks.push((seg_base, Arc::from(std::mem::take(&mut pending))));
                }
                pending.clear();
                held = 0;
                seg_base = rec.offset;
                count = 0;
                size = 0;
            }
            count += 1;
            size += rec_size;
            pending.push(rec);
        }
        if pending.len() > held {
            chunks.push((seg_base, Arc::from(pending)));
        }
        chunks
    }

    /// Push stamped chunks (see [`PartitionLog::layout`] and
    /// [`SealedRun`]), each into the segment based at its `seg_base`; a
    /// base past the active segment's rolls. A chunk may begin with
    /// records this log already holds: when they are exactly its last
    /// chunk, the new chunk replaces it (the leader merged a small
    /// append); otherwise only the new records are pushed, copied.
    /// Callers have checked the new records are dense from the log end.
    fn push_stamped(&mut self, chunks: &[SegmentChunk]) {
        for (seg_base, chunk) in chunks {
            if self.segments.last().expect("log always has a segment").base_offset != *seg_base {
                let next = self.end_offset();
                self.segments.push(Segment::new(next));
            }
            let end = self.end_offset();
            let held = chunk.partition_point(|r| r.offset < end);
            let fresh = &chunk[held..];
            let seg = self.segments.last_mut().expect("nonempty");
            let mut added = 0usize;
            for rec in fresh {
                added += rec.wire_size();
                seg.max_timestamp = seg.max_timestamp.max(rec.append_time);
            }
            seg.size_bytes += added;
            seg.record_count += fresh.len();
            seg.snap_cache = None;
            // adopt a merged chunk only when its prefix is the very
            // records we hold: a leader whose tail was rewritten, e.g.
            // corrupted, must not spread that to its replicas
            let extends_last = seg
                .chunks
                .last()
                .is_some_and(|last| held > 0 && last.len() == held && last[..] == chunk[..held]);
            if extends_last {
                *seg.chunks.last_mut().expect("checked") = Arc::clone(chunk);
            } else if held > 0 {
                seg.chunks.push(Arc::from(fresh));
            } else {
                seg.chunks.push(Arc::clone(chunk));
            }
            self.total_bytes += added;
        }
    }

    /// Write the records at `offset >= base` through to the store, if
    /// any ([`write_through`]). A store failure rolls the in-memory tail
    /// back so RAM never claims records the disk could not keep.
    /// Publishes the new read view either way.
    fn persist(
        &mut self,
        base: Offset,
        chunks: &[SegmentChunk],
        encoded: Option<&[EncodedBatch]>,
        deferred: bool,
    ) -> OctoResult<(Option<SyncTicket>, Vec<EncodedBatch>)> {
        let written = match self.store.as_mut() {
            Some(store) => write_through(store, base, chunks, encoded, deferred),
            None => Ok((None, Vec::new())),
        };
        if written.is_err() {
            self.truncate_from_offset(base);
            if let Some(store) = self.store.as_mut() {
                let _ = store.truncate_to(base);
            }
        }
        self.publish();
        written
    }

    /// Remove every in-memory record at `offset >= from`, dropping
    /// trailing segments that end up empty (but always keeping one).
    fn truncate_from_offset(&mut self, from: Offset) {
        for seg in &mut self.segments {
            if seg.lazy.is_some() {
                // lazy segments are sealed history; append rollbacks
                // only ever touch the resident tail
                continue;
            }
            let last_off = seg.last_offset();
            if last_off.map(|o| o < from).unwrap_or(true) {
                continue; // nothing at or beyond `from` in this segment
            }
            let kept: Vec<Record> =
                seg.records().take_while(|r| r.offset < from).cloned().collect();
            let removed_bytes: usize =
                seg.records().skip(kept.len()).map(|r| r.wire_size()).sum();
            self.total_bytes -= removed_bytes;
            let base = seg.base_offset;
            let max_ts = seg.max_timestamp;
            seg.reset_records(kept);
            seg.base_offset = base;
            // keep the observed max timestamp: retention decisions only
            // ever get more conservative from an overestimate
            seg.max_timestamp = max_ts;
        }
        while self.segments.len() > 1
            && self.segments.last().map(|s| s.record_count == 0).unwrap_or(false)
        {
            self.segments.pop();
        }
    }

    /// Read up to `max_records` records starting at `offset`.
    ///
    /// `offset == end_offset()` returns an empty vec (caller is caught
    /// up); offsets below `start_offset` or above the end are
    /// `OffsetOutOfRange`, matching Kafka's fetch semantics. Served
    /// from the published [`LogSnapshot`] — the same path concurrent
    /// readers use — so callers holding the log lock and lock-free
    /// readers can never disagree.
    pub fn read(&self, offset: Offset, max_records: usize) -> OctoResult<Vec<Record>> {
        self.snapshot().read(offset, max_records)
    }

    /// The smallest offset whose append time is `>= ts` (the
    /// "consume after a certain timestamp" mode of §IV-F), or the end
    /// offset if no such record is retained.
    pub fn offset_for_timestamp(&self, ts: Timestamp) -> Offset {
        self.snapshot().offset_for_timestamp(ts)
    }

    /// Apply retention at `now`: drop whole closed segments older than
    /// `retention.ms` or beyond `retention.bytes`. The active (last)
    /// segment is never dropped. Returns the number of records removed.
    pub fn enforce_retention(&mut self, retention: &RetentionConfig, now: Timestamp) -> usize {
        let mut removed = 0usize;
        // time-based: drop closed segments whose newest record is older
        // than the retention window
        while self.segments.len() > 1 {
            let seg = &self.segments[0];
            let expired = retention
                .retention_ms
                .map(|ms| now.since(seg.max_timestamp).as_millis() as u64 > ms)
                .unwrap_or(false);
            let over_size = retention
                .retention_bytes
                .map(|limit| self.total_bytes as u64 > limit)
                .unwrap_or(false);
            if !(expired || over_size) {
                break;
            }
            let seg = self.segments.remove(0);
            removed += seg.record_count;
            self.total_bytes -= seg.size_bytes;
            self.log_start = self.segments[0].base_offset;
            if let Some(store) = self.store.as_mut() {
                // best-effort: a failed delete only means recovery may
                // resurrect an already-expired segment, never data loss
                let _ = store.remove_front_segment(seg.base_offset);
            }
        }
        if removed > 0 {
            self.publish();
        }
        removed
    }

    /// Compact closed segments: keep only the newest record per key
    /// (records without a key are always kept, as in Kafka, where
    /// compaction requires keyed topics — unkeyed records cannot be
    /// superseded). The active segment is left alone. Offsets are
    /// preserved (compaction never renumbers). Returns records removed.
    pub fn compact(&mut self) -> usize {
        if self.segments.len() <= 1 {
            return 0;
        }
        // newest offset per key across *all* retained records (later
        // segments supersede earlier ones); lazy segments load via the
        // shared-decode cache and an unreadable one is left untouched
        let mut newest: HashMap<Bytes, Offset> = HashMap::new();
        let mut loaded: Vec<Option<Vec<Arc<[Record]>>>> = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            match seg.loaded() {
                Ok(chunks) => {
                    for rec in chunks.iter().flat_map(|c| c.iter()) {
                        if let Some(k) = &rec.key {
                            newest.insert(k.clone(), rec.offset);
                        }
                    }
                    loaded.push(Some(chunks));
                }
                Err(_) => loaded.push(None),
            }
        }
        let mut removed = 0usize;
        let last = self.segments.len() - 1;
        let mut store_rewrites: Vec<SegmentChunk> = Vec::new();
        for (seg, chunks) in self.segments[..last].iter_mut().zip(&loaded) {
            let Some(chunks) = chunks else { continue };
            let before: usize = chunks.iter().map(|c| c.len()).sum();
            let kept: Vec<Record> = chunks
                .iter()
                .flat_map(|c| c.iter())
                .filter(|rec| match &rec.key {
                    Some(k) => newest.get(k) == Some(&rec.offset),
                    None => true,
                })
                .cloned()
                .collect();
            if kept.len() == before {
                continue;
            }
            removed += before - kept.len();
            let base = seg.base_offset;
            let max_ts = seg.max_timestamp;
            let old_size = seg.size_bytes;
            seg.reset_records(kept);
            seg.base_offset = base;
            seg.max_timestamp = max_ts;
            self.total_bytes -= old_size - seg.size_bytes;
            store_rewrites
                .push((base, seg.contiguous().expect("segment just made resident")));
        }
        if let Some(store) = self.store.as_mut() {
            for (base, records) in &store_rewrites {
                // atomic rewrite (tmp + rename); best-effort like
                // retention — recovery resurrecting superseded keys
                // only costs space, not correctness
                let _ = store.rewrite_segment(*base, records);
            }
        }
        if removed > 0 {
            self.publish();
        }
        removed
    }

    /// Corrupt the payload bytes of the last `n` retained records
    /// *without* updating their checksums — the shape a torn or
    /// bit-rotted tail write leaves on disk. Fault-injection only.
    /// Returns how many records were actually corrupted.
    pub fn corrupt_tail(&mut self, n: usize) -> usize {
        let mut corrupted = 0usize;
        'outer: for seg in self.segments.iter_mut().rev() {
            if seg.lazy.is_some() && seg.materialize().is_err() {
                break; // unreadable cold segment: nothing to corrupt
            }
            for chunk in seg.chunks.iter_mut().rev() {
                if corrupted >= n {
                    break 'outer;
                }
                let mut records = chunk.to_vec();
                for rec in records.iter_mut().rev() {
                    if corrupted >= n {
                        break;
                    }
                    let mut bytes = rec.value.to_vec();
                    if bytes.is_empty() {
                        bytes.push(0xff);
                    } else {
                        let last = bytes.len() - 1;
                        bytes[last] ^= 0xa5;
                    }
                    rec.value = Bytes::from(bytes);
                    corrupted += 1;
                }
                *chunk = Arc::from(records);
                seg.snap_cache = None;
            }
        }
        if corrupted > 0 {
            self.publish();
        }
        corrupted
    }

    /// Log recovery: scan records in offset order and truncate
    /// everything from the first CRC mismatch onward (a corrupt record
    /// makes the rest of the tail untrustworthy, as in Kafka's
    /// restart-time log recovery). Returns the number of records
    /// dropped.
    pub fn verify_and_truncate(&mut self) -> usize {
        let mut bad: Option<(usize, Offset)> = None;
        'scan: for (si, seg) in self.segments.iter().enumerate() {
            for rec in seg.records() {
                if !rec.verify() {
                    bad = Some((si, rec.offset));
                    break 'scan;
                }
            }
        }
        let Some((si, bad_offset)) = bad else { return 0 };
        let mut removed = 0usize;
        for seg in self.segments.drain(si + 1..) {
            removed += seg.record_count;
            self.total_bytes -= seg.size_bytes;
        }
        let seg = &mut self.segments[si];
        // offsets are monotonic within a segment, so cutting at the bad
        // record's offset is the same as cutting at its position
        let kept: Vec<Record> =
            seg.records().take_while(|r| r.offset < bad_offset).cloned().collect();
        removed += seg.record_count - kept.len();
        let base = seg.base_offset;
        let max_ts = seg.max_timestamp;
        let old_size = seg.size_bytes;
        seg.reset_records(kept);
        seg.base_offset = base;
        seg.max_timestamp = max_ts;
        self.total_bytes -= old_size - seg.size_bytes;
        self.publish();
        removed
    }

    /// Run the configured cleanup policy.
    pub fn cleanup(&mut self, policy: &CleanupPolicy, retention: &RetentionConfig, now: Timestamp) -> usize {
        match policy {
            CleanupPolicy::Delete => self.enforce_retention(retention, now),
            CleanupPolicy::Compact => self.compact(),
            CleanupPolicy::CompactAndDelete => {
                self.compact() + self.enforce_retention(retention, now)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_types::Event;

    fn ev(payload: &str) -> Event {
        Event::from_bytes(payload.as_bytes().to_vec())
    }

    fn kev(key: &str, payload: &str) -> Event {
        Event::builder().key(key).payload(payload.as_bytes().to_vec()).build()
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn offsets_are_dense_and_increasing() {
        let mut log = PartitionLog::new();
        let b0 = log.append(&RecordBatch::new(vec![ev("a"), ev("b")]), t(1)).unwrap();
        let b1 = log.append(&RecordBatch::new(vec![ev("c")]), t(2)).unwrap();
        assert_eq!(b0, 0);
        assert_eq!(b1, 2);
        assert_eq!(log.end_offset(), 3);
        let recs = log.read(0, 100).unwrap();
        assert_eq!(recs.iter().map(|r| r.offset).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(&recs[2].value[..], b"c");
    }

    #[test]
    fn read_semantics_at_boundaries() {
        let mut log = PartitionLog::new();
        log.append(&RecordBatch::new(vec![ev("a"), ev("b"), ev("c")]), t(1)).unwrap();
        // caught-up read is empty, not an error
        assert!(log.read(3, 10).unwrap().is_empty());
        // beyond the end errors
        assert!(matches!(log.read(4, 10), Err(OctoError::OffsetOutOfRange { .. })));
        // max_records respected
        assert_eq!(log.read(0, 2).unwrap().len(), 2);
        // mid-log read
        assert_eq!(log.read(1, 10).unwrap()[0].offset, 1);
    }

    #[test]
    fn corrupt_batch_rejected() {
        let mut log = PartitionLog::new();
        let mut batch = RecordBatch::new(vec![ev("a")]);
        batch.crc ^= 1;
        assert!(matches!(log.append(&batch, t(1)), Err(OctoError::Invalid(_))));
        assert!(log.is_empty());
    }

    #[test]
    fn segments_roll_by_size() {
        let mut log = PartitionLog::with_segment_bytes(10);
        for i in 0..10 {
            log.append(&RecordBatch::new(vec![ev(&format!("{i:06}"))]), t(i)).unwrap();
        }
        // 6-byte records, 10-byte segments -> one record rolls the next
        assert!(log.segments.len() >= 5, "got {} segments", log.segments.len());
        // reads still span segments seamlessly
        let recs = log.read(0, 100).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[9].offset, 9);
    }

    #[test]
    fn append_copied_preserves_offsets_and_crc() {
        let mut leader = PartitionLog::new();
        leader.append(&RecordBatch::new(vec![ev("a"), ev("b"), ev("c"), ev("d")]), t(5)).unwrap();
        let run = leader.read(0, 100).unwrap();

        let mut learner = PartitionLog::with_segment_bytes(16);
        learner.append_copied(&run[..2]).unwrap();
        learner.append_copied(&run[2..]).unwrap();
        assert_eq!(learner.end_offset(), 4);
        let copied = learner.read(0, 100).unwrap();
        for (orig, got) in run.iter().zip(copied.iter()) {
            assert_eq!(orig.offset, got.offset);
            assert_eq!(orig.crc, got.crc);
            assert_eq!(orig.append_time, got.append_time);
        }
        // non-contiguous runs are rejected, duplicates included
        assert!(matches!(
            learner.append_copied(&run[1..]),
            Err(OctoError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn append_copied_bootstraps_empty_log_at_leader_start() {
        let mut leader = PartitionLog::new();
        for i in 0..6 {
            leader.append(&RecordBatch::new(vec![ev(&format!("{i}"))]), t(i)).unwrap();
        }
        // simulate retention having dropped the front on the leader
        let run = leader.read(3, 100).unwrap();
        let mut learner = PartitionLog::new();
        learner.append_copied(&run).unwrap();
        assert_eq!(learner.start_offset(), 3);
        assert_eq!(learner.end_offset(), 6);
        assert_eq!(learner.read(3, 10).unwrap().len(), 3);
    }

    #[test]
    fn replicated_appends_share_the_leaders_chunks_and_rolls() {
        let mut leader = PartitionLog::with_segment_bytes(64);
        let mut follower = PartitionLog::with_segment_bytes(64);
        // single records (merged into small chunks), then batches that
        // roll mid-append
        for i in 0..40u64 {
            let n = if i % 5 == 4 { 9 } else { 1 };
            let events: Vec<Event> = (0..n).map(|j| ev(&format!("{i}-{j}"))).collect();
            let batch = RecordBatch::new(events);
            let run = leader.append_deferred(&batch, t(i)).unwrap().run;
            assert!(follower.append_replicated(&run, &batch, t(999)).unwrap().is_none());
        }
        assert!(leader.segments.len() > 3, "rolled {} times", leader.segments.len() - 1);
        assert_eq!(leader.segments.len(), follower.segments.len());
        for (l, f) in leader.segments.iter().zip(&follower.segments) {
            assert_eq!(l.base_offset, f.base_offset);
            assert_eq!((l.record_count, l.size_bytes), (f.record_count, f.size_bytes));
            assert_eq!(l.chunks.len(), f.chunks.len());
            for (lc, fc) in l.chunks.iter().zip(&f.chunks) {
                assert!(Arc::ptr_eq(lc, fc), "follower holds its own copy of a chunk");
            }
        }
        assert_eq!(follower.size_bytes(), leader.size_bytes());
        // a follower's fault injection copies on write
        follower.corrupt_tail(3);
        assert!(leader.read(0, 1000).unwrap().iter().all(|r| r.verify()));
        assert_eq!(follower.verify_and_truncate(), 3);
    }

    #[test]
    fn replicated_append_branches() {
        let mut leader = PartitionLog::new();
        let a = RecordBatch::new(vec![ev("a")]);
        let x = RecordBatch::new(vec![ev("x")]);
        let run_a = leader.append_deferred(&a, t(1)).unwrap().run;
        let run_x = leader.append_deferred(&x, t(2)).unwrap().run;
        // already holds the run: acknowledged, nothing appended
        let mut copy = leader.clone();
        copy.append_replicated(&run_x, &x, t(2)).unwrap();
        assert_eq!(copy.end_offset(), 2);
        // diverged (holds another record at the run's offset): the batch
        // is re-derived at the follower's own end
        let mut diverged = PartitionLog::new();
        diverged.append(&RecordBatch::new(vec![ev("other")]), t(1)).unwrap();
        diverged.append_replicated(&run_a, &a, t(1)).unwrap();
        let got = diverged.read(0, 10).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(&got[1].value[..], b"a");
        // a run whose record fails its CRC is refused, the log untouched
        let mut tampered: Vec<Record> = run_x.records().cloned().collect();
        tampered[0].value = Bytes::from_static(b"tampered");
        let bad = SealedRun {
            base: 1,
            count: 1,
            chunks: vec![(0, Arc::from(tampered))],
            encoded: Vec::new(),
        };
        let mut behind = PartitionLog::new();
        behind.append_replicated(&run_a, &a, t(1)).unwrap();
        assert!(matches!(behind.append_replicated(&bad, &x, t(2)), Err(OctoError::Invalid(_))));
        assert_eq!(behind.end_offset(), 1);
    }

    #[test]
    fn a_corrupt_leader_prefix_is_not_adopted() {
        let mut leader = PartitionLog::new();
        let mut follower = PartitionLog::new();
        let mut replicate = |leader: &mut PartitionLog, tag: &str| {
            let batch = RecordBatch::new(vec![ev(tag)]);
            let run = leader.append_deferred(&batch, t(1)).unwrap().run;
            follower.append_replicated(&run, &batch, t(1)).unwrap();
        };
        replicate(&mut leader, "a");
        replicate(&mut leader, "b");
        // the next small append merges the corrupted record into its chunk
        leader.corrupt_tail(1);
        replicate(&mut leader, "c");
        assert_eq!(follower.end_offset(), 3);
        assert!(follower.read(0, 10).unwrap().iter().all(|r| r.verify()));
    }

    #[test]
    fn a_different_record_with_the_same_crc_is_not_held() {
        use crate::record::{ControlMarker, ProducerStamp};
        // a CRC covers key and value only: every control marker has the
        // same one, and so do two producers' events with equal payloads
        let abort = RecordBatch::control_batch(7, 0, ControlMarker::Abort);
        let commit = RecordBatch::control_batch(7, 0, ControlMarker::Commit);
        let stamp = |pid| ProducerStamp { pid, epoch: 0, seq: 0 };
        // (one event value, so the two records share a payload allocation)
        let x = ev("x");
        let mine = RecordBatch::new(vec![x.clone()]).with_producer(stamp(1), false);
        let theirs = RecordBatch::new(vec![x]).with_producer(stamp(2), false);
        for (held, batch) in [(abort, commit), (mine.clone(), theirs.clone())] {
            let mut leader = PartitionLog::new();
            let run = leader.append_deferred(&batch, t(1)).unwrap().run;
            let mut follower = PartitionLog::new();
            follower.append(&held, t(1)).unwrap();
            follower.append(&RecordBatch::new(vec![ev("later")]), t(2)).unwrap();
            follower.append_replicated(&run, &batch, t(1)).unwrap();
            // not acked as held: the leader's record reaches the follower
            let got = follower.read(0, 10).unwrap();
            assert_eq!(got.len(), 3);
            assert_eq!(got[2].eos, run.records().next().unwrap().eos);
        }
        // nor does a leader chunk that merged a small append replace ours
        // when its prefix differs from the records we hold
        let (mut leader, mut follower) = (PartitionLog::new(), PartitionLog::new());
        leader.append(&theirs, t(1)).unwrap();
        follower.append(&mine, t(1)).unwrap();
        let held = follower.read(0, 1).unwrap();
        let batch = RecordBatch::new(vec![ev("y")]);
        let run = leader.append_deferred(&batch, t(2)).unwrap().run;
        follower.append_replicated(&run, &batch, t(2)).unwrap();
        assert_eq!(follower.read(0, 1).unwrap(), held);
        assert_eq!(follower.end_offset(), 2);
    }

    #[test]
    fn replace_from_refuses_a_volatile_source_for_a_durable_log() {
        let tmp = crate::store::TempDir::new("octopus-data");
        let metrics = StoreMetrics::new(&octopus_types::obs::MetricsRegistry::new());
        let (mut durable, _) =
            PartitionLog::open_durable(16, tmp.path(), FlushPolicy::PerBatch, metrics).unwrap();
        let source = PartitionLog::new();
        assert!(matches!(durable.replace_from(&source), Err(OctoError::Internal(_))));
    }

    #[test]
    fn snapshot_is_stable_while_log_advances() {
        let mut log = PartitionLog::with_segment_bytes(64);
        log.append(&RecordBatch::new(vec![ev("a"), ev("b")]), t(1)).unwrap();
        let snap = log.snapshot();
        assert_eq!(snap.end_offset(), 2);
        // the log moves on; the held snapshot does not
        log.append(&RecordBatch::new(vec![ev("c")]), t(2)).unwrap();
        assert_eq!(snap.end_offset(), 2);
        assert_eq!(snap.read(0, 100).unwrap().len(), 2);
        // a fresh snapshot sees the new tail
        let snap2 = log.snapshot();
        assert_eq!(snap2.end_offset(), 3);
        assert_eq!(snap2.read(2, 100).unwrap()[0].offset, 2);
        // snapshot read semantics match the log's own at the boundary
        assert!(snap.read(2, 10).unwrap().is_empty());
        assert!(matches!(snap.read(3, 10), Err(OctoError::OffsetOutOfRange { .. })));
    }

    #[test]
    fn snapshot_tracks_every_mutation_kind() {
        let mut log = PartitionLog::with_segment_bytes(8);
        for i in 0..8u64 {
            log.append(&RecordBatch::new(vec![kev("k", &format!("{i:06}"))]), t(i * 1000))
                .unwrap();
        }
        // retention
        let retention = RetentionConfig { retention_ms: Some(1_000), retention_bytes: None };
        log.enforce_retention(&retention, t(9_000));
        let snap = log.snapshot();
        assert_eq!(snap.start_offset(), log.start_offset());
        assert_eq!(snap.end_offset(), log.end_offset());
        // compaction
        log.compact();
        assert_eq!(log.snapshot().read(log.start_offset(), 100).unwrap().len(), log.len());
        // corruption + recovery truncation
        log.corrupt_tail(1);
        let served = log.snapshot().read(log.start_offset(), 100).unwrap();
        assert!(served.iter().any(|r| !r.verify()), "snapshot serves the corrupt tail");
        log.verify_and_truncate();
        assert_eq!(log.snapshot().end_offset(), log.end_offset());
        assert!(log.snapshot().read(log.start_offset(), 100).unwrap().iter().all(|r| r.verify()));
        // clone publishes into its own slot
        let clone = log.clone();
        assert_eq!(clone.snapshot().end_offset(), log.end_offset());
    }

    #[test]
    fn time_retention_drops_old_segments() {
        let mut log = PartitionLog::with_segment_bytes(8);
        for i in 0..8u64 {
            log.append(&RecordBatch::new(vec![ev(&format!("{i:06}"))]), t(i * 1000)).unwrap();
        }
        let retention =
            RetentionConfig { retention_ms: Some(3_000), retention_bytes: None };
        let removed = log.enforce_retention(&retention, t(8_000));
        assert!(removed > 0);
        assert!(log.start_offset() > 0);
        // old offsets now out of range
        assert!(matches!(log.read(0, 10), Err(OctoError::OffsetOutOfRange { .. })));
        // newest data still readable
        assert_eq!(log.read(log.start_offset(), 100).unwrap().len(), log.len());
        // the active segment survives even if expired
        let removed_again = log.enforce_retention(
            &RetentionConfig { retention_ms: Some(0), retention_bytes: None },
            t(1_000_000),
        );
        assert!(!log.is_empty(), "active segment never dropped (removed {removed_again})");
    }

    #[test]
    fn size_retention_bounds_total_bytes() {
        let mut log = PartitionLog::with_segment_bytes(100);
        for i in 0..100 {
            log.append(&RecordBatch::new(vec![ev(&format!("{i:050}"))]), t(i)).unwrap();
        }
        let retention = RetentionConfig { retention_ms: None, retention_bytes: Some(500) };
        log.enforce_retention(&retention, t(1000));
        assert!(log.size_bytes() <= 600, "size {} not bounded", log.size_bytes());
    }

    #[test]
    fn offset_for_timestamp_lookup() {
        let mut log = PartitionLog::new();
        log.append(&RecordBatch::new(vec![ev("a")]), t(100)).unwrap();
        log.append(&RecordBatch::new(vec![ev("b")]), t(200)).unwrap();
        log.append(&RecordBatch::new(vec![ev("c")]), t(300)).unwrap();
        assert_eq!(log.offset_for_timestamp(t(0)), 0);
        assert_eq!(log.offset_for_timestamp(t(150)), 1);
        assert_eq!(log.offset_for_timestamp(t(200)), 1);
        assert_eq!(log.offset_for_timestamp(t(201)), 2);
        assert_eq!(log.offset_for_timestamp(t(999)), 3); // end offset
    }

    #[test]
    fn compaction_keeps_latest_per_key() {
        let mut log = PartitionLog::with_segment_bytes(4);
        log.append(&RecordBatch::new(vec![kev("k1", "v1")]), t(1)).unwrap();
        log.append(&RecordBatch::new(vec![kev("k2", "v1")]), t(2)).unwrap();
        log.append(&RecordBatch::new(vec![kev("k1", "v2")]), t(3)).unwrap();
        log.append(&RecordBatch::new(vec![ev("nk")]), t(4)).unwrap();
        log.append(&RecordBatch::new(vec![kev("k1", "v3")]), t(5)).unwrap();
        let removed = log.compact();
        assert_eq!(removed, 2, "k1@0 and k1@2 removed");
        let recs = log.read(log.start_offset(), 100).unwrap();
        let k1: Vec<&Record> =
            recs.iter().filter(|r| r.key.as_deref() == Some(&b"k1"[..])).collect();
        assert_eq!(k1.len(), 1);
        assert_eq!(&k1[0].value[..], b"v3");
        // unkeyed record survives
        assert!(recs.iter().any(|r| r.key.is_none()));
        // offsets preserved (no renumbering)
        assert_eq!(k1[0].offset, 4);
    }

    #[test]
    fn tail_corruption_detected_and_truncated() {
        let mut log = PartitionLog::with_segment_bytes(12);
        for i in 0..6u64 {
            log.append(&RecordBatch::new(vec![ev(&format!("{i:06}"))]), t(i)).unwrap();
        }
        let bytes_before = log.size_bytes();
        assert_eq!(log.corrupt_tail(2), 2);
        // reads still serve the corrupt records (the fabric trusts the
        // page cache while running) — recovery happens on restart
        assert_eq!(log.read(0, 100).unwrap().len(), 6);
        let dropped = log.verify_and_truncate();
        assert_eq!(dropped, 2);
        assert_eq!(log.end_offset(), 4);
        assert_eq!(log.len(), 4);
        assert!(log.size_bytes() < bytes_before);
        // surviving prefix is intact and re-appendable
        assert!(log.read(0, 100).unwrap().iter().all(|r| r.verify()));
        let next = log.append(&RecordBatch::new(vec![ev("fresh!")]), t(10)).unwrap();
        assert_eq!(next, 4);
    }

    #[test]
    fn verify_and_truncate_is_noop_on_clean_log() {
        let mut log = PartitionLog::new();
        log.append(&RecordBatch::new(vec![ev("a"), ev("b")]), t(1)).unwrap();
        assert_eq!(log.verify_and_truncate(), 0);
        assert_eq!(log.len(), 2);
        assert_eq!(PartitionLog::new().verify_and_truncate(), 0);
    }

    #[test]
    fn cleanup_policy_dispatch() {
        let retention = RetentionConfig { retention_ms: Some(10), retention_bytes: None };
        let mut log = PartitionLog::with_segment_bytes(4);
        for i in 0..5u64 {
            log.append(&RecordBatch::new(vec![kev("k", &format!("v{i}"))]), t(i)).unwrap();
        }
        let mut l2 = log.clone();
        assert!(log.cleanup(&CleanupPolicy::Compact, &retention, t(100)) > 0);
        assert!(l2.cleanup(&CleanupPolicy::CompactAndDelete, &retention, t(100)) > 0);
    }
}
