//! The repository benchmark: one named workload driven over the path a
//! user takes — SDK `Producer`/`Consumer` over `TcpTransport` to a
//! `WireServer` in a separate broker process, through the cluster
//! leader, replicas and store, and back out through fetch.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-events --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run is set-up (spawn the broker process, create the topic,
//! prefill, connect — repeated, the median reported) and then
//! [`ROUNDS`] rounds of the same three phases, so that a disturbance of
//! the host lands in some rounds of every metric, not in all of one:
//! 1. open loop: the workload's fixed rate (Poisson arrivals drawn from
//!    the seed), a consumer tailing the
//!    topic (and, on `deep-replay`, a fresh group replaying the
//!    prefilled backlog from earliest beside it);
//! 2. closed loop: as fast as `buffer.memory` admits;
//! 3. drain: one consumer group, fresh at the first round, reads from
//!    earliest to the end of the topic; the correctness oracle checks
//!    every record it reads.
//!
//! Rates are medians over chunks of all rounds, latency quantiles the
//! median over the windows of all rounds. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the same phases with
//! bench-side spans and a layer replay and prints the per-layer
//! metrics. The last stdout line is one JSON object.
//!
//! The load generator is this process: the main thread generates, one
//! consumer thread consumes, each on its own TCP connection (plus the
//! SDK's own sender thread). Exit code 1 means a correctness violation,
//! a refused or failed open-loop send (each rate is one the parent
//! commit sustains without any), or a failed run.

mod broker;
mod layers;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_broker::TempDir;
use octopus_sdk::{Consumer, ConsumerConfig, DeliveryReport, OffsetReset, Producer};
use octopus_types::{Event, OctoError, RegistrySnapshot};
use octopus_wire::{TcpTransport, TcpTransportConfig, Transport};

use broker::BrokerProcess;
use oracle::Oracle;
use stats::{median, ms, us, ChunkRate, Samples, Windows, NEVER_MS};
use trace::{Kind, Recorder, TracedTransport};
use workload::{partition_keys, Generator, Workload, TOPIC};

/// Set-ups per run, the median reported; the run uses the last one
/// taken at the start. A set-up without a prefill takes milliseconds.
/// A volatile one is too short to sample the host's state on its own,
/// so throwaway ones are also taken after every round, spread over the
/// run like its rounds. A durable one creates and deletes files, which
/// would disturb the disk under the next round's fsyncs, so all of
/// them are taken at the start. One that prefills a backlog takes
/// seconds and writes hundreds of MB, so it is taken fewer times.
const SETUPS_AT_START: usize = 9;
const SETUPS_PER_ROUND: usize = 5;
const PREFILL_SETUPS: usize = 3;
/// Rounds of open loop, closed loop and drain per run.
const ROUNDS: u32 = 5;
/// Shares of `--seconds` given to the open and the closed loop.
const OPEN_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.3;
/// Latency windows per open-loop round: quantiles are taken per window
/// and the median window is reported (see `stats::Windows`).
const WINDOWS_PER_ROUND: u32 = 4;
/// Rate chunks per closed loop, drain and replay round: the median
/// chunk rate is reported. On traced runs the closed loop records spans
/// on odd chunks only; the even ones after the first (warm-up) are the
/// untraced legs of the tracing-overhead estimate.
const CHUNKS_PER_ROUND: u64 = 4;
/// A consumer that found nothing waits this long before polling again:
/// short, so the e2e latencies measure the program and not this pause.
const EMPTY_POLL_PAUSE: Duration = Duration::from_micros(100);
/// The generator sleeps toward the next due time in slices this long,
/// taking delivery reports between them, so an ack is seen within a
/// slice of its arrival.
const SLEEP_SLICE: Duration = Duration::from_micros(50);
/// Longest wait for in-flight acks, the tail consumer, or the drain.
const PHASE_DEADLINE: Duration = Duration::from_secs(30);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    broker: bool,
    data: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        broker: false,
        data: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--broker" => args.broker = true,
            "--data" => args.data = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| {
        let w = Workload::by_name(&args.workload).ok_or_else(|| {
            format!(
                "unknown workload {:?}; one of {:?}",
                args.workload,
                workload::NAMES
            )
        })?;
        if args.broker {
            return broker::serve(&w, args.seed, args.data.as_deref()).map(|()| true);
        }
        // every temp dir (data, cold tier, replay stores) lives under
        // the working directory, and is removed when its run ends
        let tmp = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench")
            .join("tmp");
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        sweep_killed_runs(&tmp);
        std::env::set_var("TMPDIR", &tmp);
        let report = run(&w, &args)?;
        report.print();
        Ok(report.correct)
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Remove the temp dirs of earlier runs that were killed before they
/// could clean up: `TempDir` names carry the creating process id.
fn sweep_killed_runs(tmp: &Path) {
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = ["octopus-data-", "octopus-cold-"]
            .iter()
            .find_map(|prefix| name.strip_prefix(prefix))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Nanoseconds of `t` since the bench epoch, never 0 (0 marks untimed).
fn epoch_ns(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64 + 1
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// A live broker process and the two client connections to it.
struct Setup {
    producer_tcp: TcpTransport,
    consumer_tcp: TcpTransport,
    broker: BrokerProcess,
    data: Option<TempDir>,
}

impl Setup {
    fn start(w: &Workload, seed: u64) -> Result<Self, String> {
        let data = w.durable().then(|| TempDir::new("octopus-data"));
        let broker = BrokerProcess::spawn(w, seed, data.as_ref().map(|d| d.path()))?;
        let connect = |client_id: &str| -> Result<TcpTransport, String> {
            let t = TcpTransport::connect(
                broker.addr.clone(),
                TcpTransportConfig {
                    client_id: client_id.into(),
                    ..Default::default()
                },
            );
            t.ensure_connected()
                .map_err(|e| format!("connect {client_id}: {e}"))?;
            t.partition_count(TOPIC)
                .map_err(|e| format!("metadata: {e}"))?;
            Ok(t)
        };
        let producer_tcp = connect("perfbench-generator")?;
        let consumer_tcp = connect("perfbench-consumer")?;
        Ok(Setup {
            producer_tcp,
            consumer_tcp,
            broker,
            data,
        })
    }

    /// Close the connections, stop the broker (returning its peak RSS
    /// in KiB), then remove its data dir.
    fn stop(self) -> Result<u64, String> {
        let Setup {
            producer_tcp,
            consumer_tcp,
            broker,
            data,
        } = self;
        drop((producer_tcp, consumer_tcp));
        let kb = broker.shutdown();
        drop(data);
        kb
    }
}

// ---------------------------------------------------------------------------
// generator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Closed,
}

struct InFlight {
    seq: u64,
    due: Instant,
    phase: Phase,
    handle: octopus_sdk::producer::DeliveryHandle,
}

/// The main thread's side: builds events, sends them, and watches the
/// delivery reports (one FIFO per partition: the SDK dispatches a
/// partition's batches in order and reports a batch at once).
struct Gen<'a> {
    w: &'a Workload,
    seed: u64,
    gen: Generator,
    keys: Vec<String>,
    /// `None` once closed.
    producer: Option<Producer>,
    rec: Option<Arc<Recorder>>,
    epoch: Instant,
    next_seq: u64,
    inflight: Vec<VecDeque<InFlight>>,
    acked: Vec<bool>,
    /// (start, window length) of each open-loop round, in epoch ns.
    rounds: Vec<(u64, u64)>,
    ack: Windows,
    late_us: Samples,
    send_us: Samples,
    /// Accepted-send rate of every closed-loop chunk, in order.
    closed_rates: Vec<f64>,
    open_attempts: u64,
    open_acked: u64,
    closed_sent: u64,
    closed_acked: u64,
    refusals: u64,
    sends: u64,
    failed: u64,
}

impl<'a> Gen<'a> {
    fn new(
        w: &'a Workload,
        seed: u64,
        producer: Producer,
        rec: Option<Arc<Recorder>>,
        epoch: Instant,
    ) -> Self {
        let first = w.prefill;
        Gen {
            w,
            seed,
            gen: Generator::new(w, seed),
            keys: partition_keys(w.partitions),
            producer: Some(producer),
            rec,
            epoch,
            next_seq: first,
            inflight: (0..w.partitions).map(|_| VecDeque::new()).collect(),
            // prefilled events were acknowledged during set-up
            acked: vec![true; first as usize],
            rounds: Vec::new(),
            ack: Windows::default(),
            late_us: Samples::new(),
            send_us: Samples::new(),
            closed_rates: Vec::new(),
            open_attempts: 0,
            open_acked: 0,
            closed_sent: 0,
            closed_acked: 0,
            refusals: 0,
            sends: 0,
            failed: 0,
        }
    }

    /// The latency window an open-loop event due at `due_ns` falls in.
    fn window_of(&self, due_ns: u64) -> usize {
        let round = self
            .rounds
            .partition_point(|&(start, _)| start <= due_ns)
            .saturating_sub(1);
        let (start, len) = self.rounds.get(round).copied().unwrap_or((0, 1));
        let w = (due_ns.saturating_sub(start) / len.max(1)).min(WINDOWS_PER_ROUND as u64 - 1);
        round * WINDOWS_PER_ROUND as usize + w as usize
    }

    fn event(&self, seq: u64, due_ns: u64) -> Event {
        let p = (seq % self.w.partitions as u64) as usize;
        Event::builder()
            .key(self.keys[p].clone())
            .payload(self.gen.payload(seq, due_ns))
            .build()
    }

    /// One `Producer::send`; `Ok(false)` on a `BufferFull` refusal.
    fn send(&mut self, seq: u64, ev: Event, due: Instant, phase: Phase) -> Result<bool, String> {
        let started = self.rec.as_ref().and_then(|r| r.start());
        let result = self
            .producer
            .as_ref()
            .expect("producer is open")
            .send(TOPIC, ev);
        let t = Instant::now();
        self.sends += 1;
        let accepted = match result {
            Ok(handle) => {
                let p = (seq % self.w.partitions as u64) as usize;
                self.inflight[p].push_back(InFlight {
                    seq,
                    due,
                    phase,
                    handle,
                });
                true
            }
            Err(OctoError::BufferFull { .. }) => {
                self.refusals += 1;
                false
            }
            Err(e) => return Err(format!("send: {e}")),
        };
        if let (Some(rec), Some(s)) = (&self.rec, started) {
            rec.record(Kind::Send, s, 0, seq, accepted as usize);
            if accepted && phase == Phase::Closed {
                self.send_us.push(us(t - s));
            }
        }
        Ok(accepted)
    }

    fn settle(
        &mut self,
        seq: u64,
        due: Instant,
        phase: Phase,
        report: DeliveryReport,
        now: Instant,
    ) {
        let delivered = matches!(report, DeliveryReport::Delivered(_));
        if delivered {
            let idx = seq as usize;
            if idx >= self.acked.len() {
                self.acked.resize(idx + 1, false);
            }
            self.acked[idx] = true;
        } else {
            self.failed += 1;
        }
        let window = self.window_of(epoch_ns(self.epoch, due));
        match (phase, delivered) {
            (Phase::Open, true) => {
                self.open_acked += 1;
                self.ack.push(window, ms(now - due));
            }
            (Phase::Open, false) => self.ack.push(window, NEVER_MS),
            (Phase::Closed, true) => self.closed_acked += 1,
            (Phase::Closed, false) => {}
        }
    }

    /// Take every delivery report that has arrived.
    fn reap(&mut self) {
        let now = Instant::now();
        for p in 0..self.inflight.len() {
            while let Some(report) = self.inflight[p].front().and_then(|f| f.handle.try_get()) {
                let f = self.inflight[p].pop_front().expect("front exists");
                self.settle(f.seq, f.due, f.phase, report, now);
            }
        }
    }

    /// Block until the oldest send in flight is reported: the SDK frees
    /// a batch's `buffer.memory` before it reports the batch, so a
    /// refused send can be retried then, with no polling delay.
    fn wait_oldest(&mut self) {
        let oldest = (0..self.inflight.len())
            .filter_map(|p| self.inflight[p].front().map(|f| (f.seq, p)))
            .min();
        if let Some((_, p)) = oldest {
            let f = self.inflight[p].pop_front().expect("front exists");
            let InFlight {
                seq,
                due,
                phase,
                handle,
            } = f;
            let report = handle.wait();
            self.settle(seq, due, phase, report, Instant::now());
        }
    }

    fn in_flight(&self) -> usize {
        self.inflight.iter().map(VecDeque::len).sum()
    }

    /// Reap until nothing is in flight.
    fn settle_all(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PHASE_DEADLINE;
        while self.in_flight() > 0 {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} sends never got a delivery report",
                    self.in_flight()
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
            self.reap();
        }
        Ok(())
    }

    /// Send at the workload's fixed rate for `dur` (Poisson arrivals),
    /// timing every event from its due time.
    fn open_loop(&mut self, dur: Duration) -> Result<(), String> {
        let mut arrivals = self.w.arrivals(self.seed, self.rounds.len() as u32);
        let start = Instant::now() + Duration::from_millis(1);
        let end = start + dur;
        let window_ns = (dur / WINDOWS_PER_ROUND).as_nanos() as u64;
        self.rounds.push((epoch_ns(self.epoch, start), window_ns));
        let mut due = start;
        loop {
            due += arrivals.next_gap();
            if due >= end {
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let due_ns = epoch_ns(self.epoch, due);
            let ev = self.event(seq, due_ns);
            while let Some(left) = due.checked_duration_since(Instant::now()) {
                self.reap();
                std::thread::sleep(left.min(SLEEP_SLICE));
            }
            self.late_us
                .push(us(Instant::now().saturating_duration_since(due)));
            self.open_attempts += 1;
            let window = self.window_of(due_ns);
            self.ack.attempt(window);
            if !self.send(seq, ev, due, Phase::Open)? {
                // a refused open-loop event misses every latency limit
                self.failed += 1;
                self.ack.push(window, NEVER_MS);
            }
            self.reap();
        }
        self.settle_all()
    }

    /// Send `events` as fast as `buffer.memory` admits, recording the
    /// accepted-send rate of each chunk.
    fn closed_loop(&mut self, events: u64) -> Result<(), String> {
        let mut rate = ChunkRate::new(events, CHUNKS_PER_ROUND);
        if let Some(rec) = &self.rec {
            rec.set_on(false);
        }
        for _ in 0..events {
            let seq = self.next_seq;
            self.next_seq += 1;
            let ev = self.event(seq, 0);
            let now = Instant::now();
            while !self.send(seq, ev.clone(), now, Phase::Closed)? {
                self.reap();
                self.wait_oldest();
            }
            self.closed_sent += 1;
            if rate.add(1) {
                if let Some(rec) = &self.rec {
                    rec.set_on(rate.chunks() % 2 == 1);
                }
            }
            self.reap();
        }
        if let Some(rec) = &self.rec {
            rec.set_on(true);
        }
        self.closed_rates.extend_from_slice(rate.rates());
        self.settle_all()
    }
}

// ---------------------------------------------------------------------------
// consumers
// ---------------------------------------------------------------------------

/// What the generator tells the consumer thread.
struct Control {
    open_done: AtomicBool,
    /// Open-loop events acknowledged in this round.
    open_acked: AtomicU64,
}

/// The consumer thread's findings over one open-loop round.
struct TailReport {
    /// (due time, due → poll returned) of each open-loop event.
    e2e: Vec<(u64, f64)>,
    /// Chunk rates of this round's replay (deep-replay only).
    replay_rates: Vec<f64>,
    replayed: u64,
}

struct PollStats {
    poll_us: Samples,
    polls: u64,
    empty: u64,
    events: u64,
}

impl PollStats {
    fn new() -> Self {
        PollStats {
            poll_us: Samples::new(),
            polls: 0,
            empty: 0,
            events: 0,
        }
    }
}

/// `Consumer::poll` with a span (traced runs).
fn poll(
    c: &mut Consumer,
    rec: Option<&Recorder>,
    stats: &mut PollStats,
) -> Result<Vec<octopus_types::DeliveredEvent>, String> {
    let started = rec.and_then(|r| r.start());
    let events = c.poll().map_err(|e| format!("poll: {e}"))?;
    if let (Some(rec), Some(s)) = (rec, started) {
        let first = events.first();
        rec.record(
            Kind::Poll,
            s,
            first.map_or(0, |e| trace::trace_id(&e.event.headers)),
            first
                .and_then(|e| workload::parse(&e.event.payload))
                .map_or(u64::MAX, |s| s.seq),
            events.len(),
        );
        stats.poll_us.push(us(s.elapsed()));
        stats.polls += 1;
        stats.empty += events.is_empty() as u64;
        stats.events += events.len() as u64;
    }
    Ok(events)
}

fn consumer(
    transport: &Arc<dyn Transport>,
    group: &str,
    reset: OffsetReset,
) -> Result<Consumer, String> {
    let mut c = Consumer::over(
        Arc::clone(transport),
        ConsumerConfig {
            group: group.into(),
            offset_reset: reset,
            ..Default::default()
        },
        None,
    );
    c.subscribe(&[TOPIC])
        .map_err(|e| format!("subscribe {group}: {e}"))?;
    Ok(c)
}

/// The consumer thread of one round: a fresh group tails the topic
/// through the open loop; on `deep-replay` another fresh group replays
/// the prefilled backlog from earliest beside it.
#[allow(clippy::too_many_arguments)]
fn consume_open_loop(
    w: &Workload,
    round: u32,
    transport: Arc<dyn Transport>,
    rec: Option<&Recorder>,
    stats: &mut PollStats,
    epoch: Instant,
    ctl: &Control,
    ready: std::sync::mpsc::Sender<()>,
) -> Result<TailReport, String> {
    let mut tail = consumer(
        &transport,
        &format!("bench-tail-{round}"),
        OffsetReset::Latest,
    )?;
    // the first poll pins the tail's positions at the log end
    poll(&mut tail, rec, stats)?;
    let mut replay = match w.replays() {
        true => Some(consumer(
            &transport,
            &format!("bench-replay-{round}"),
            OffsetReset::Earliest,
        )?),
        false => None,
    };
    let _ = ready.send(());
    let mut out = TailReport {
        e2e: Vec::new(),
        replay_rates: Vec::new(),
        replayed: 0,
    };
    let mut replay_rate = ChunkRate::new(w.prefill, CHUNKS_PER_ROUND);
    let mut seen = HashSet::new();
    let mut done_at = None;
    loop {
        let mut idle = true;
        if let Some(r) = replay.as_mut() {
            let n = poll(r, rec, stats)?.len() as u64;
            idle &= n == 0;
            out.replayed += n;
            replay_rate.add(n);
            if out.replayed >= w.prefill {
                replay = None;
            }
        }
        let events = poll(&mut tail, rec, stats)?;
        let now = Instant::now();
        idle &= events.is_empty();
        for e in &events {
            let stamp = workload::parse(&e.event.payload).ok_or_else(|| {
                format!(
                    "corrupt event at partition {} offset {}",
                    e.partition, e.offset
                )
            })?;
            if stamp.due_ns > 0 && seen.insert(stamp.seq) {
                let due = epoch + Duration::from_nanos(stamp.due_ns - 1);
                out.e2e
                    .push((stamp.due_ns, ms(now.saturating_duration_since(due))));
            }
        }
        if ctl.open_done.load(Ordering::Acquire) {
            let done_at = *done_at.get_or_insert_with(Instant::now);
            let caught_up = seen.len() as u64 >= ctl.open_acked.load(Ordering::Acquire);
            if (caught_up && replay.is_none()) || done_at.elapsed() > PHASE_DEADLINE {
                break;
            }
        }
        if idle {
            std::thread::sleep(EMPTY_POLL_PAUSE);
        }
    }
    if replay.is_some() {
        return Err("the replay never reached the end of the backlog".into());
    }
    out.replay_rates = replay_rate.rates().to_vec();
    Ok(out)
}

/// One consumer group reading the topic from earliest, a round at a
/// time; the oracle checks every record.
struct Drain {
    consumer: Consumer,
    oracle: Oracle,
    events: u64,
    rates: Vec<f64>,
}

impl Drain {
    fn new(
        w: &Workload,
        tcp: &TcpTransport,
        transport: &Arc<dyn Transport>,
    ) -> Result<Self, String> {
        let starts = (0..w.partitions)
            .map(|p| tcp.earliest_offset(TOPIC, p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Drain {
            consumer: consumer(transport, "bench-drain", OffsetReset::Earliest)?,
            oracle: Oracle::new(&starts, w.idempotent),
            events: 0,
            rates: Vec::new(),
        })
    }

    /// The current end offset of every partition.
    fn ends(w: &Workload, tcp: &TcpTransport) -> Result<Vec<u64>, String> {
        (0..w.partitions)
            .map(|p| tcp.latest_offset(TOPIC, p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())
    }

    /// Read up to the topic's current end.
    fn catch_up(
        &mut self,
        w: &Workload,
        tcp: &TcpTransport,
        rec: Option<&Recorder>,
        stats: &mut PollStats,
    ) -> Result<(), String> {
        let ends = Self::ends(w, tcp)?;
        let behind = |o: &Oracle| {
            (0..w.partitions)
                .map(|p| ends[p as usize].saturating_sub(o.read_to(p)))
                .sum::<u64>()
        };
        let mut rate = ChunkRate::new(behind(&self.oracle), CHUNKS_PER_ROUND);
        let start = Instant::now();
        while behind(&self.oracle) > 0 && start.elapsed() < PHASE_DEADLINE {
            let got = poll(&mut self.consumer, rec, stats)?;
            rate.add(got.len() as u64);
            self.events += got.len() as u64;
            for e in got {
                self.oracle.observe(e.partition, e.offset, &e.event.payload);
            }
        }
        self.rates.extend_from_slice(rate.rates());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// one run
// ---------------------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

struct Report {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        println!("workload {}", self.workload);
        for n in &self.notes {
            println!("{n}");
        }
        let mut map = serde_json::Map::new();
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
            map.insert(
                m.name.into(),
                serde_json::json!({ "value": m.value, "unit": m.unit }),
            );
        }
        let line = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": map,
        });
        println!("{line}");
    }
}

fn counter(snap: &RegistrySnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Closed-loop chunk rates without each round's first chunk, which
/// starts on an empty buffer and so runs ahead of the steady state.
fn steady(rates: &[f64]) -> Vec<f64> {
    rates
        .chunks(CHUNKS_PER_ROUND as usize)
        .flat_map(|round| round.iter().skip(1))
        .copied()
        .collect()
}

fn rates_text(rates: &[f64]) -> String {
    rates
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let at_start = if w.prefill > 0 {
        PREFILL_SETUPS
    } else {
        SETUPS_AT_START
    };
    let per_round = if w.durable() { 0 } else { SETUPS_PER_ROUND };
    let mut setup_times = Vec::new();
    let mut timed_setup = || -> Result<Setup, String> {
        let t = Instant::now();
        let s = Setup::start(w, args.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        Ok(s)
    };
    // each set-up at the start begins before the previous one is torn
    // down: deleting a data dir just before a set-up made durable
    // set-up times twice as unsteady
    let mut setup = None;
    for _ in 0..at_start {
        if let Some(s) = setup.replace(timed_setup()?) {
            s.stop()?;
        }
    }
    let setup = setup.expect("at least one set-up");

    let epoch = Instant::now();
    let rec = args.trace.then(|| Recorder::new(epoch));
    let wrap = |tcp: &TcpTransport| -> Arc<dyn Transport> {
        let plain: Arc<dyn Transport> = Arc::new(tcp.clone());
        match &rec {
            Some(r) => Arc::new(TracedTransport::new(plain, Arc::clone(r))),
            None => plain,
        }
    };
    let producer_t = wrap(&setup.producer_tcp);
    let consumer_t = wrap(&setup.consumer_tcp);
    let producer = Producer::over(producer_t, w.producer_config(), None);
    let mut g = Gen::new(w, args.seed, producer, rec.clone(), epoch);
    let mut polls = PollStats::new();
    let mut drain = Drain::new(w, &setup.consumer_tcp, &consumer_t)?;
    let open_dur = Duration::from_secs_f64(args.seconds * OPEN_SHARE / ROUNDS as f64);
    let closed_events = ((w.closed_sizing_rate * args.seconds * CLOSED_SHARE) as u64
        / ROUNDS as u64)
        .max(CHUNKS_PER_ROUND);
    let (mut e2e_pairs, mut replay_rates, mut replayed) = (Vec::new(), Vec::new(), 0u64);

    for round in 0..ROUNDS {
        // open loop, with the consumer thread tailing (and replaying)
        let ctl = Control {
            open_done: AtomicBool::new(false),
            open_acked: AtomicU64::new(0),
        };
        let acked_before = g.open_acked;
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let tail = std::thread::scope(|s| {
            let consumer_t = Arc::clone(&consumer_t);
            let (rec, ctl, polls) = (rec.as_deref(), &ctl, &mut polls);
            let handle = s.spawn(move || {
                consume_open_loop(w, round, consumer_t, rec, polls, epoch, ctl, ready_tx)
            });
            let sent = match ready_rx.recv() {
                Ok(()) => g.open_loop(open_dur),
                Err(_) => Ok(()), // the consumer failed to start; its error wins
            };
            ctl.open_acked
                .store(g.open_acked - acked_before, Ordering::Release);
            ctl.open_done.store(true, Ordering::Release);
            let consumed = handle
                .join()
                .map_err(|_| "consumer thread panicked".to_string())?;
            sent.and(consumed)
        })?;
        e2e_pairs.extend(tail.e2e);
        replay_rates.extend(tail.replay_rates);
        replayed += tail.replayed;

        // closed loop, nothing else running, a fixed volume
        g.closed_loop(closed_events)?;

        // drain to the end of the topic
        drain.catch_up(w, &setup.consumer_tcp, rec.as_deref(), &mut polls)?;

        for _ in 0..per_round {
            timed_setup()?.stop()?;
        }
    }

    let ends = Drain::ends(w, &setup.consumer_tcp)?;
    let counters = setup
        .producer_tcp
        .describe_metrics(false)
        .map_err(|e| format!("describe metrics: {e}"))?
        .snapshot;
    drop(g.producer.take());
    let rss_kb = setup.stop()?;
    let duplicates = drain.oracle.duplicates();
    let verdict = drain.oracle.finish(&ends, &g.acked);

    let mut notes = Vec::new();
    let mut correct = match &verdict {
        Ok(n) => {
            notes.push(format!(
                "oracle ok: {n} distinct events, {duplicates} redelivered"
            ));
            true
        }
        Err(violations) => {
            for v in violations {
                notes.push(format!("VIOLATION: {v}"));
            }
            false
        }
    };
    if g.failed > 0 {
        notes.push(format!(
            "VIOLATION: {} sends refused in the open loop or failed; the workload's rate is one \
             the parent commit sustains without any",
            g.failed
        ));
        correct = false;
    }
    let attempted = g.open_attempts + g.closed_sent;
    notes.push(format!(
        "failed_ratio {:.6} ({} of {attempted} events refused or failed)",
        ratio(g.failed as f64, attempted as f64),
        g.failed
    ));
    notes.push(format!(
        "{ROUNDS} rounds: open loop {} ev/s for {:.2} s, closed loop {closed_events} events, drain; \
         {} brokers; 1 generator + 1 consumer thread, 2 connections",
        w.open_rate,
        open_dur.as_secs_f64(),
        workload::BROKERS
    ));
    notes.push(format!(
        "set-up times (ms): {}",
        setup_times
            .iter()
            .map(|t| format!("{:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "closed-loop chunk rates (events/s): {}",
        rates_text(&g.closed_rates)
    ));
    let (consume_rates, consumed) = if w.replays() {
        (&replay_rates, replayed)
    } else {
        (&drain.rates, drain.events)
    };
    notes.push(format!(
        "consume chunk rates (events/s): {}",
        rates_text(consume_rates)
    ));

    let mut report = Report {
        workload: w.name,
        correct,
        attempted,
        failed: g.failed,
        notes,
        metrics: Vec::new(),
    };
    // open-loop events the tail never saw miss every limit
    let mut e2e = g.ack.empty_like();
    for &(due, v) in &e2e_pairs {
        e2e.push(g.window_of(due), v);
    }
    let windows =
        |w: &Windows, q| rates_text(&w.per_window(q).iter().map(|v| v * 1e3).collect::<Vec<_>>());
    report.notes.push(format!(
        "ack p50 per window (us): {}",
        windows(&g.ack, 0.50)
    ));
    report
        .notes
        .push(format!("e2e p50 per window (us): {}", windows(&e2e, 0.50)));
    report.notes.push(format!(
        "ack p99 per window (us): {}",
        windows(&g.ack, 0.99)
    ));
    report
        .notes
        .push(format!("e2e p99 per window (us): {}", windows(&e2e, 0.99)));
    report.notes.push(format!(
        "pooled over all windows (ms): ack p50 {:.4} p99 {:.4}, e2e p50 {:.4} p99 {:.4}",
        g.ack.pooled(0.50),
        g.ack.pooled(0.99),
        e2e.pooled(0.50),
        e2e.pooled(0.99)
    ));
    let mut m = |name, value, unit, samples| {
        report.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        })
    };
    if !args.trace {
        m("setup_s", median(&setup_times), "s", setup_times.len());
        m(
            "produce_eps",
            median(&steady(&g.closed_rates)),
            "events/s",
            g.closed_acked as usize,
        );
        m(
            "consume_eps",
            median(consume_rates),
            "events/s",
            consumed as usize,
        );
        m("ack_p50_ms", g.ack.median_window(0.50), "ms", g.ack.len());
        m("ack_p99_ms", g.ack.median_window(0.99), "ms", g.ack.len());
        m("e2e_p50_ms", e2e.median_window(0.50), "ms", e2e.len());
        m("e2e_p99_ms", e2e.median_window(0.99), "ms", e2e.len());
        m("broker_rss_peak_mb", rss_kb as f64 / 1024.0, "MB", 1);
        return Ok(report);
    }
    // ----- traced run: spans, counters, layer replay -----
    let rec = rec.expect("traced run has a recorder");
    let spans = rec.spans();
    let (mut produce_rpc, mut fetch_rpc) = (Samples::new(), Samples::new());
    let (mut rpc_events, mut rpcs, mut fetched) = (0u64, 0u64, 0u64);
    for s in &spans {
        match s.kind {
            Kind::ProduceRpc => {
                produce_rpc.push(s.dur_ns as f64 / 1e3);
                rpcs += 1;
                rpc_events += s.n as u64;
            }
            Kind::FetchRpc => {
                fetch_rpc.push(s.dur_ns as f64 / 1e3);
                fetched += s.n as u64;
            }
            Kind::Send | Kind::Poll => {}
        }
    }
    rec.write_spans(&Path::new(".perfbench").join(format!("spans-{}.jsonl", w.name)))
        .map_err(|e| format!("write spans: {e}"))?;
    let mut l = layers::replay(w, &rec.take_captured())?;

    let batches = rec.produce_calls();
    let produced = (g.open_acked + g.closed_acked) as f64;
    let stored_events = produced + w.prefill as f64;
    // per closed loop, even chunks ran untraced and odd ones traced;
    // chunk 0 is warm-up
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for (i, &r) in g.closed_rates.iter().enumerate() {
        match i as u64 % CHUNKS_PER_ROUND {
            0 => {}
            c if c % 2 == 0 => off.push(r),
            _ => on.push(r),
        }
    }
    let overhead = ratio(median(&off), median(&on)) - 1.0;
    let raw = counter(&counters, "octopus_store_compressed_raw_bytes_total");
    let stored = counter(&counters, "octopus_store_compressed_stored_bytes_total");

    m("gen.late_p99_us", g.late_us.p99(), "us", g.late_us.len());
    m("sdk.send_us_p50", g.send_us.p50(), "us", g.send_us.len());
    m("sdk.send_us_p99", g.send_us.p99(), "us", g.send_us.len());
    m(
        "sdk.events_per_rpc",
        ratio(rpc_events as f64, rpcs as f64),
        "events",
        rpcs as usize,
    );
    m(
        "sdk.refused_ratio",
        ratio(g.refusals as f64, g.sends as f64),
        "ratio",
        g.sends as usize,
    );
    m(
        "sdk.poll_us_p50",
        polls.poll_us.p50(),
        "us",
        polls.poll_us.len(),
    );
    m(
        "sdk.poll_us_p99",
        polls.poll_us.p99(),
        "us",
        polls.poll_us.len(),
    );
    m(
        "sdk.events_per_poll",
        ratio(polls.events as f64, polls.polls as f64),
        "events",
        polls.polls as usize,
    );
    m(
        "sdk.empty_poll_ratio",
        ratio(polls.empty as f64, polls.polls as f64),
        "ratio",
        polls.polls as usize,
    );
    m(
        "wire.produce_rpc_us_p50",
        produce_rpc.p50(),
        "us",
        produce_rpc.len(),
    );
    m(
        "wire.produce_rpc_us_p99",
        produce_rpc.p99(),
        "us",
        produce_rpc.len(),
    );
    m(
        "wire.fetch_rpc_us_p50",
        fetch_rpc.p50(),
        "us",
        fetch_rpc.len(),
    );
    m(
        "wire.fetch_rpc_us_p99",
        fetch_rpc.p99(),
        "us",
        fetch_rpc.len(),
    );
    m(
        "wire.bytes_in_per_event",
        ratio(counter(&counters, "octopus_wire_bytes_in_total"), produced),
        "B",
        produced as usize,
    );
    m(
        "wire.bytes_out_per_record",
        ratio(
            counter(&counters, "octopus_wire_bytes_out_total"),
            fetched as f64,
        ),
        "B",
        fetched as usize,
    );
    m(
        "wire.codec_produce_us_per_event",
        l.codec_produce_us_per_event,
        "us",
        l.events,
    );
    m(
        "wire.codec_fetch_us_per_record",
        l.codec_fetch_us_per_record,
        "us",
        l.broker_fetch_us.len(),
    );
    m(
        "broker.produce_us_p50",
        l.broker_produce_us.p50(),
        "us",
        l.batches,
    );
    m(
        "broker.produce_us_p99",
        l.broker_produce_us.p99(),
        "us",
        l.batches,
    );
    m(
        "broker.produce_rf1_us_p50",
        l.broker_produce_rf1_us.p50(),
        "us",
        l.batches,
    );
    m(
        "broker.fetch_us_p50",
        l.broker_fetch_us.p50(),
        "us",
        l.broker_fetch_us.len(),
    );
    m(
        "broker.fetch_us_p99",
        l.broker_fetch_us.p99(),
        "us",
        l.broker_fetch_us.len(),
    );
    m(
        "store.append_us_p50",
        l.store_append_us.p50(),
        "us",
        l.store_append_us.len(),
    );
    m(
        "store.append_us_p99",
        l.store_append_us.p99(),
        "us",
        l.store_append_us.len(),
    );
    m(
        "store.read_us_p50",
        l.store_read_us.p50(),
        "us",
        l.store_read_us.len(),
    );
    m(
        "store.indexed_read_us_p50",
        l.store_indexed_read_us.p50(),
        "us",
        l.store_indexed_read_us.len(),
    );
    m(
        "store.fsyncs_per_batch",
        ratio(
            counter(&counters, "octopus_store_flushes_total"),
            batches as f64,
        ),
        "count",
        batches as usize,
    );
    m(
        "store.bytes_per_event",
        ratio(
            counter(&counters, "octopus_store_bytes_written_total"),
            stored_events,
        ),
        "B",
        stored_events as usize,
    );
    m(
        "store.compression_ratio",
        ratio(raw, stored),
        "ratio",
        counter(&counters, "octopus_store_compressed_batches_total") as usize,
    );
    m(
        "store.offloaded_mb",
        counter(&counters, "octopus_store_tier_offloaded_bytes_total") / 1e6,
        "MB",
        1,
    );
    m(
        "store.hydrations",
        counter(&counters, "octopus_store_tier_hydrations_total"),
        "count",
        1,
    );
    m(
        "compression.compress_mb_s",
        l.compress_mb_s,
        "MB/s",
        l.batches,
    );
    m(
        "compression.decompress_mb_s",
        l.decompress_mb_s,
        "MB/s",
        l.batches,
    );
    m(
        "bench.trace_overhead_pct",
        overhead * 100.0,
        "%",
        off.len() + on.len(),
    );
    Ok(report)
}
