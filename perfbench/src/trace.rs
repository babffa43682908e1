//! Bench-side tracing: spans around the calls into each layer, kept in
//! memory and written out when the run ends. No tracing runs inside
//! the program.
//!
//! [`TracedTransport`] wraps the `TcpTransport` the SDK clients are
//! built over and records a span around every `produce_batch` and
//! `fetch`; the generator and consumer threads record spans around
//! `Producer::send` and `Consumer::poll`. Spans carry the SDK-stamped
//! trace id of the first event they cover (send spans, recorded before
//! the SDK stamps, carry the event's sequence number instead; produce
//! spans carry both, which joins the two).
//! The wrapper also captures the produced batches (up to a byte budget)
//! for the in-process layer replay.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use octopus_auth::Permission;
use octopus_broker::{
    AckLevel, MemberAssignment, ProduceReceipt, ProducerIdentity, Record, RecordBatch, TopicConfig,
    TxnOffset,
};
use octopus_types::obs::TraceContext;
use octopus_types::{
    Event, Header, MetricsRegistry, OctoResult, Offset, PartitionId, SpanSink, StageMetrics,
    Timestamp, TopicName, Uid,
};
use octopus_wire::Transport;

use crate::workload;

/// Payload bytes of produced batches kept for the layer replay.
const CAPTURE_BUDGET_BYTES: usize = 48 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Send,
    Poll,
    ProduceRpc,
    FetchRpc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Send => "sdk.send",
            Kind::Poll => "sdk.poll",
            Kind::ProduceRpc => "wire.produce_batch",
            Kind::FetchRpc => "wire.fetch",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Trace id of the first event covered (0 if none).
    pub trace_id: u64,
    /// Sequence number of the first event covered (u64::MAX if none).
    pub seq: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Events or records covered.
    pub n: u32,
}

/// Collects spans and captured batches for one traced run.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    /// Every `produce_batch` call, recording on or off.
    produce_calls: AtomicU64,
    spans: Mutex<Vec<Span>>,
    captured: Mutex<(Vec<(PartitionId, RecordBatch)>, usize)>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Recorder {
            epoch,
            on: AtomicBool::new(true),
            produce_calls: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            captured: Mutex::new((Vec::new(), 0)),
        })
    }

    /// Whether spans are being recorded right now.
    pub fn is_on(&self) -> bool {
        // a statistic switch: it publishes no other data
        self.on.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (the overhead legs of the closed loop).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Start a span: `None` while recording is off.
    pub fn start(&self) -> Option<Instant> {
        self.is_on().then(Instant::now)
    }

    pub fn record(&self, kind: Kind, started: Instant, trace_id: u64, seq: u64, n: usize) {
        let span = Span {
            kind,
            trace_id,
            seq,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
            n: n as u32,
        };
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking recorder")
            .push(span);
    }

    fn capture(&self, partition: PartitionId, batch: &RecordBatch) {
        let mut cap = self
            .captured
            .lock()
            .expect("capture lock poisoned by a panicking recorder");
        let bytes: usize = batch.events.iter().map(|e| e.payload.len()).sum();
        if cap.1 + bytes <= CAPTURE_BUDGET_BYTES {
            cap.0.push((partition, batch.clone()));
            cap.1 += bytes;
        }
    }

    /// `produce_batch` calls so far, traced or not.
    pub fn produce_calls(&self) -> u64 {
        self.produce_calls.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking recorder")
            .clone()
    }

    pub fn take_captured(&self) -> Vec<(PartitionId, RecordBatch)> {
        std::mem::take(&mut self.captured.lock().expect("capture lock poisoned").0)
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"trace_id\":{},\"seq\":{},\"start_ns\":{},\"dur_ns\":{},\"n\":{}}}",
                s.kind.name(),
                s.trace_id,
                if s.seq == u64::MAX { -1 } else { s.seq as i64 },
                s.start_ns,
                s.dur_ns,
                s.n
            )?;
        }
        out.flush()
    }
}

/// Trace id stamped on an event's headers (0 when unstamped).
pub fn trace_id(headers: &[Header]) -> u64 {
    TraceContext::from_headers(headers).map_or(0, |tc| tc.trace_id)
}

fn first_seq(events: &[Event]) -> u64 {
    events
        .first()
        .and_then(|e| workload::parse(&e.payload))
        .map_or(u64::MAX, |s| s.seq)
}

/// A `Transport` that records a span around each data-path call into
/// the transport it wraps and forwards everything else untouched.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, rec: Arc<Recorder>) -> Self {
        TracedTransport { inner, rec }
    }
}

impl Transport for TracedTransport {
    fn describe(&self) -> String {
        format!("traced {}", self.inner.describe())
    }

    fn topic_exists(&self, topic: &str) -> bool {
        self.inner.topic_exists(topic)
    }

    fn topics(&self) -> OctoResult<Vec<TopicName>> {
        self.inner.topics()
    }

    fn topic_config(&self, topic: &str) -> OctoResult<TopicConfig> {
        self.inner.topic_config(topic)
    }

    fn create_topic(&self, topic: &str, config: TopicConfig) -> OctoResult<()> {
        self.inner.create_topic(topic, config)
    }

    fn delete_topic(&self, topic: &str) -> OctoResult<()> {
        self.inner.delete_topic(topic)
    }

    fn partition_count(&self, topic: &str) -> OctoResult<u32> {
        self.inner.partition_count(topic)
    }

    fn partition_for(&self, topic: &str, key: Option<&[u8]>) -> OctoResult<PartitionId> {
        self.inner.partition_for(topic, key)
    }

    fn authorize(&self, topic: &str, principal: Option<Uid>, perm: Permission) -> OctoResult<()> {
        self.inner.authorize(topic, principal, perm)
    }

    fn produce_batch(
        &self,
        topic: &str,
        partition: PartitionId,
        batch: RecordBatch,
        acks: AckLevel,
    ) -> OctoResult<ProduceReceipt> {
        self.rec.produce_calls.fetch_add(1, Ordering::Relaxed);
        if !self.rec.is_on() {
            return self.inner.produce_batch(topic, partition, batch, acks);
        }
        self.rec.capture(partition, &batch);
        let n = batch.events.len();
        let tid = batch.events.first().map_or(0, |e| trace_id(&e.headers));
        let seq = first_seq(&batch.events);
        let started = Instant::now();
        let result = self.inner.produce_batch(topic, partition, batch, acks);
        self.rec.record(Kind::ProduceRpc, started, tid, seq, n);
        result
    }

    fn fetch(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
        principal: Option<Uid>,
    ) -> OctoResult<Vec<Record>> {
        let Some(started) = self.rec.start() else {
            return self
                .inner
                .fetch(topic, partition, offset, max_records, principal);
        };
        let result = self
            .inner
            .fetch(topic, partition, offset, max_records, principal);
        let (tid, seq, n) = match &result {
            Ok(recs) => match recs.first() {
                Some(r) => (
                    trace_id(&r.headers),
                    workload::parse(&r.value).map_or(u64::MAX, |s| s.seq),
                    recs.len(),
                ),
                None => (0, u64::MAX, 0),
            },
            Err(_) => (0, u64::MAX, 0),
        };
        self.rec.record(Kind::FetchRpc, started, tid, seq, n);
        result
    }

    fn fetch_committed(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> OctoResult<(Vec<Record>, Offset)> {
        self.inner
            .fetch_committed(topic, partition, offset, max_records)
    }

    fn earliest_offset(&self, topic: &str, partition: PartitionId) -> OctoResult<Offset> {
        self.inner.earliest_offset(topic, partition)
    }

    fn latest_offset(&self, topic: &str, partition: PartitionId) -> OctoResult<Offset> {
        self.inner.latest_offset(topic, partition)
    }

    fn offset_for_timestamp(
        &self,
        topic: &str,
        partition: PartitionId,
        ts: Timestamp,
    ) -> OctoResult<Offset> {
        self.inner.offset_for_timestamp(topic, partition, ts)
    }

    fn group_join(
        &self,
        group: &str,
        member: &str,
        topics: Vec<TopicName>,
        counts: &HashMap<TopicName, u32>,
    ) -> OctoResult<MemberAssignment> {
        self.inner.group_join(group, member, topics, counts)
    }

    fn group_assignment(&self, group: &str, member: &str) -> OctoResult<Option<MemberAssignment>> {
        self.inner.group_assignment(group, member)
    }

    fn group_leave(
        &self,
        group: &str,
        member: &str,
        counts: &HashMap<TopicName, u32>,
    ) -> OctoResult<()> {
        self.inner.group_leave(group, member, counts)
    }

    fn offset_commit(
        &self,
        group: &str,
        generation: u64,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
    ) -> OctoResult<()> {
        self.inner
            .offset_commit(group, generation, topic, partition, offset)
    }

    fn offset_committed(
        &self,
        group: &str,
        topic: &str,
        partition: PartitionId,
    ) -> OctoResult<Option<Offset>> {
        self.inner.offset_committed(group, topic, partition)
    }

    fn register_producer(&self, name: &str) -> OctoResult<ProducerIdentity> {
        self.inner.register_producer(name)
    }

    fn txn_begin(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.inner.txn_begin(name, id)
    }

    fn txn_produce(
        &self,
        name: &str,
        id: ProducerIdentity,
        topic: &str,
        partition: PartitionId,
        events: Vec<Event>,
    ) -> OctoResult<ProduceReceipt> {
        self.inner.txn_produce(name, id, topic, partition, events)
    }

    fn txn_send_offsets(
        &self,
        name: &str,
        id: ProducerIdentity,
        offsets: Vec<TxnOffset>,
    ) -> OctoResult<()> {
        self.inner.txn_send_offsets(name, id, offsets)
    }

    fn txn_commit(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.inner.txn_commit(name, id)
    }

    fn txn_abort(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.inner.txn_abort(name, id)
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    fn stage_metrics(&self) -> StageMetrics {
        self.inner.stage_metrics()
    }

    fn span_sink(&self) -> Arc<SpanSink> {
        self.inner.span_sink()
    }
}
