//! Per-broker replication executors.
//!
//! `acks=all` produces must land a batch on every in-sync follower
//! before acknowledging. Doing that inline on the producing thread
//! serializes the follower appends — replication latency becomes the
//! *sum* over followers, where the paper's Fig. 3 measures a fan-out
//! (max over followers). This module gives every broker a long-lived
//! executor thread fed by a bounded channel; the produce path submits
//! one job per follower and waits for the replies, so follower appends
//! overlap.
//!
//! ## What is replicated: the leader's append
//!
//! The leader assigns offsets and append times, computes every record's
//! CRC, seals the records into `Arc<[Record]>` chunks and, on durable
//! logs, encodes (and lz4-compresses) them into store frames — once.
//! Each job carries that [`SealedRun`]. Under its own log lock a
//! follower decides from its own log alone
//! (`PartitionLog::append_replicated`):
//!
//! * **Its log ends where the run begins**: it checks each record's
//!   CRC, rolls at the leader's segment bases, shares the leader's
//!   chunks, and writes the leader's frame bytes under a group-commit
//!   ticket. Replicas hold the same records and store the same bytes.
//! * **It already holds the run** (the same records): a resync
//!   copied it after the job was queued. It acknowledges without
//!   appending (appending again would duplicate the run and shift every
//!   later offset on the replica).
//! * **Anything else** (its leader was deposed mid-produce): it
//!   re-derives the producer's batch at its own end. Rejecting this
//!   case instead loses acknowledged records; removing it needs
//!   epoch-fenced leaders.
//!
//! A follower replicates successfully iff, at execution time, the
//! leader→follower link is not severed, the follower is alive in the
//! job's incarnation, and its replica log accepts the append. Any
//! failure drops the follower from the ISR (Kafka's leader removes
//! laggards), and a full executor queue counts as failure too: a
//! follower that cannot keep up with the submission rate *is* a
//! laggard, and treating it as one keeps submission non-blocking,
//! which matters because jobs are submitted while the leader's log lock
//! is held (see below).
//!
//! ## Ordering
//!
//! Jobs are submitted *under the leader's log lock*, and each broker
//! has exactly one executor draining a FIFO channel. Concurrent
//! producers therefore enqueue follower appends in leader-append
//! order, and the executor applies them in that order — follower
//! replicas converge to the leader's exact record sequence. (The old
//! sequential loop replicated *outside* any shared ordering: two
//! producers could append to the leader in one order and to a follower
//! in the other, silently diverging the replica until the next
//! resync.)
//!
//! ## No deadlocks
//!
//! Submission uses `try_send` (never blocks while holding the leader
//! lock); reply channels are sized to the follower count (worker
//! replies never block); executors take only one log lock at a time.

use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::RwLock;

use octopus_types::{PartitionId, Timestamp, TopicName};

use crate::broker::{Broker, BrokerId};
use crate::fault::FaultInjector;
use crate::log::SealedRun;
use crate::record::RecordBatch;

/// Jobs queued ahead of a follower before submission starts failing
/// (and shrinking the ISR). Sized so only a genuinely stalled follower
/// ever reports Full.
const QUEUE_DEPTH: usize = 256;

/// How many `try_recv` probes (each followed by a `yield_now`) an idle
/// executor makes before parking on a blocking `recv`. Under a steady
/// produce load the next job arrives within a probe or two, so the
/// executor dodges the condvar sleep/wake. The bound is deliberately
/// tiny: on an oversubscribed machine each yield can burn a full
/// scheduler slice running an unrelated thread, so after a few misses
/// parking is strictly cheaper (and an idle cluster must not busy-wait).
const IDLE_SPIN_LIMIT: u32 = 4;

/// One follower append, executed on the follower's executor thread.
pub(crate) struct ReplicationJob {
    /// Leader broker (for the severed-link check, evaluated on the
    /// executor at execution time, exactly like the old inline loop).
    pub leader: BrokerId,
    pub topic: TopicName,
    pub partition: PartitionId,
    /// The leader's append, which the follower adopts verbatim.
    pub run: Arc<SealedRun>,
    /// The producer's batch and the leader's append time, used only
    /// when the follower's log has diverged from the leader's and the
    /// batch must be re-derived at the follower's own end.
    pub batch: Arc<RecordBatch>,
    pub now: Timestamp,
    /// The follower's incarnation at submission time. The executor
    /// refuses the job if the follower has been killed since (the
    /// epoch bumps on every kill): a batch queued before a crash must
    /// never replay onto the restarted broker's resynced log, where it
    /// would duplicate records the resync already copied.
    pub follower_epoch: u64,
    /// Where the executor reports `(follower, success)`.
    pub reply: Sender<(BrokerId, bool)>,
}

/// One executor thread per broker, each draining a bounded FIFO.
///
/// The pool grows at runtime: brokers joining the cluster get an
/// executor via [`ReplicationPool::add_broker`]. Slots are indexed by
/// broker id and never removed (retired brokers' executors idle until
/// the pool drops), so submission stays a lock-free-ish indexed send
/// behind a briefly-held read lock.
pub(crate) struct ReplicationPool {
    senders: RwLock<Vec<Sender<ReplicationJob>>>,
}

impl ReplicationPool {
    /// Spawn one executor per broker. Threads exit when the pool (the
    /// cluster) is dropped and the channels disconnect.
    pub fn new(brokers: &[Arc<Broker>], fault: FaultInjector) -> Self {
        let pool = ReplicationPool { senders: RwLock::new(Vec::with_capacity(brokers.len())) };
        for b in brokers {
            pool.add_broker(b, fault.clone());
        }
        pool
    }

    /// Spawn an executor for a broker that just joined. Must be called
    /// with ids in order: the new broker's id must equal the current
    /// slot count so `senders[id]` stays the broker's channel.
    pub fn add_broker(&self, broker: &Arc<Broker>, fault: FaultInjector) {
        let mut senders = self.senders.write();
        assert_eq!(
            senders.len(),
            broker.id().0 as usize,
            "replication pool slots must be added in broker-id order"
        );
        let (tx, rx) = bounded::<ReplicationJob>(QUEUE_DEPTH);
        let broker = Arc::clone(broker);
        std::thread::Builder::new()
            .name(format!("octopus-repl-{}", broker.id().0))
            .spawn(move || run_executor(broker, fault, rx))
            .expect("spawn replication executor");
        senders.push(tx);
    }

    /// Submit a follower append. Never blocks: a full queue (stalled
    /// follower) or a disconnected executor reports failure on the
    /// job's reply channel immediately, which the caller turns into an
    /// ISR shrink.
    pub fn submit(&self, follower: BrokerId, job: ReplicationJob) {
        match self.senders.read()[follower.0 as usize].try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                let _ = job.reply.send((follower, false));
            }
        }
    }
}

/// Executor loop: drain jobs until the cluster drops the sender side.
///
/// Durable appends are two-phase: the write happens under the replica's
/// log lock, but the fsync ticket is waited *after* the lock drops, so
/// the follower's fsync runs concurrently with the leader's (and group-
/// commits with other producers' batches on the same replica).
fn run_executor(broker: Arc<Broker>, fault: FaultInjector, rx: Receiver<ReplicationJob>) {
    'drain: loop {
        // Probe-and-yield before parking: under load the next job is
        // already queued (or lands within a timeslice), and skipping
        // the blocking recv skips a sleep/wake round-trip per job.
        let mut next = None;
        for _ in 0..IDLE_SPIN_LIMIT {
            match rx.try_recv() {
                Ok(job) => {
                    next = Some(job);
                    break;
                }
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => break 'drain,
            }
        }
        let job = match next {
            Some(job) => job,
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => break,
            },
        };
        let ok = !fault.is_severed(job.leader, broker.id())
            && broker.is_alive()
            && broker.epoch() == job.follower_epoch
            && match broker.log(&job.topic, job.partition) {
                Some(log) => {
                    let appended = log.lock().append_replicated(&job.run, &job.batch, job.now);
                    match appended {
                        Ok(Some(ticket)) => ticket.wait().is_ok(),
                        Ok(None) => true,
                        Err(_) => false,
                    }
                }
                None => false,
            };
        let _ = job.reply.send((broker.id(), ok));
    }
}

/// An executor's `(follower, success)` verdict for one job.
pub(crate) type ReplicationReply = (BrokerId, bool);

/// Build a reply channel sized so executor replies can never block.
pub(crate) fn reply_channel(
    followers: usize,
) -> (Sender<ReplicationReply>, Receiver<ReplicationReply>) {
    bounded(followers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::log::{PartitionLog, DEFAULT_SEGMENT_BYTES};
    use octopus_types::{Event, Timestamp};

    /// A leader log that stamps every job's run, so executors see
    /// exactly what the produce path hands them.
    struct Leader {
        log: PartitionLog,
    }

    impl Leader {
        fn new() -> Self {
            Leader { log: PartitionLog::new() }
        }

        fn job(
            &mut self,
            tag: &str,
            epoch: u64,
            reply: &Sender<ReplicationReply>,
        ) -> ReplicationJob {
            let event = Event::from_bytes(tag.as_bytes().to_vec());
            let batch = Arc::new(RecordBatch::new(vec![event]));
            let now = Timestamp::from_millis(0);
            let run = self.log.append_deferred(&batch, now).unwrap().run;
            ReplicationJob {
                leader: BrokerId(0),
                topic: "t".to_string(),
                partition: 0,
                run,
                batch,
                now,
                follower_epoch: epoch,
                reply: reply.clone(),
            }
        }
    }

    fn follower() -> Arc<Broker> {
        let broker = Arc::new(Broker::new(BrokerId(1)));
        broker.host_partition("t", 0, DEFAULT_SEGMENT_BYTES).unwrap();
        broker
    }

    fn pool_of(follower: &Arc<Broker>, fault: FaultInjector) -> ReplicationPool {
        // senders are indexed by broker id, so slot 0 is a placeholder
        let brokers = vec![Arc::new(Broker::new(BrokerId(0))), Arc::clone(follower)];
        ReplicationPool::new(&brokers, fault)
    }

    fn contents(log: &PartitionLog) -> Vec<(u64, Vec<u8>)> {
        let records = log.read(log.start_offset(), 1024).unwrap();
        records.iter().map(|r| (r.offset, r.value.to_vec())).collect()
    }

    #[test]
    fn executor_appends_in_submission_order() {
        let broker = follower();
        let pool = pool_of(&broker, FaultInjector::new());
        let mut leader = Leader::new();
        let (tx, rx) = reply_channel(1);
        for i in 0..64 {
            pool.submit(BrokerId(1), leader.job(&format!("r{i}"), broker.epoch(), &tx));
        }
        for _ in 0..64 {
            assert_eq!(rx.recv().unwrap(), (BrokerId(1), true));
        }
        let log = broker.log("t", 0).unwrap();
        let records = log.snapshot().read(0, 128).unwrap();
        assert_eq!(records.len(), 64);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.offset, i as u64);
            assert_eq!(&rec.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn dead_broker_and_severed_link_report_failure() {
        let broker = follower();
        let mut leader = Leader::new();
        let severed = FaultInjector::new();
        severed.sever_link(BrokerId(0), BrokerId(1));
        let severed_pool = pool_of(&broker, severed);
        let (tx, rx) = reply_channel(1);
        severed_pool.submit(BrokerId(1), leader.job("x", broker.epoch(), &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), false));

        let pool = pool_of(&broker, FaultInjector::new());
        broker.kill();
        pool.submit(BrokerId(1), leader.job("y", broker.epoch(), &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), false));
        assert!(broker.log("t", 0).unwrap().snapshot().read(0, 8).unwrap().is_empty());
    }

    #[test]
    fn pool_grows_at_runtime() {
        let broker = follower();
        let pool = pool_of(&broker, FaultInjector::new());
        // a broker joins after the pool was built
        let joined = Arc::new(Broker::new(BrokerId(2)));
        joined.host_partition("t", 0, DEFAULT_SEGMENT_BYTES).unwrap();
        pool.add_broker(&joined, FaultInjector::new());
        let (tx, rx) = reply_channel(1);
        pool.submit(BrokerId(2), Leader::new().job("joined", joined.epoch(), &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(2), true));
        assert_eq!(joined.log("t", 0).unwrap().snapshot().read(0, 8).unwrap().len(), 1);
    }

    #[test]
    fn stale_epoch_jobs_are_fenced_after_restart() {
        let broker = follower();
        let pool = pool_of(&broker, FaultInjector::new());
        let mut leader = Leader::new();
        let (tx, rx) = reply_channel(1);
        // a job queued before the crash, executed after the restart,
        // must NOT append (the resync copy already covers its batch)
        let stale = broker.epoch();
        broker.kill();
        broker.restart();
        pool.submit(BrokerId(1), leader.job("ghost", stale, &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), false));
        assert!(broker.log("t", 0).unwrap().snapshot().read(0, 8).unwrap().is_empty());
        // current-epoch jobs still land
        pool.submit(BrokerId(1), leader.job("live", broker.epoch(), &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), true));
        assert_eq!(broker.log("t", 0).unwrap().snapshot().read(0, 8).unwrap().len(), 1);
    }

    #[test]
    fn job_queued_before_a_resync_is_not_applied_twice() {
        let broker = follower();
        let pool = pool_of(&broker, FaultInjector::new());
        let mut leader = Leader::new();
        let (tx, rx) = reply_channel(1);
        pool.submit(BrokerId(1), leader.job("a", broker.epoch(), &tx));
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), true));
        // the follower restarts while nothing is produced to it, so it
        // never leaves the ISR; a produce queues a job for its new
        // incarnation, and the resync copies the leader's log before
        // the executor runs that job
        broker.kill();
        broker.restart();
        let queued = leader.job("x", broker.epoch(), &tx);
        broker.log("t", 0).unwrap().lock().replace_from(&leader.log).unwrap();
        pool.submit(BrokerId(1), queued);
        assert_eq!(rx.recv().unwrap(), (BrokerId(1), true));
        let log = broker.log("t", 0).unwrap();
        assert_eq!(contents(&log.lock()), contents(&leader.log));
        assert_eq!(contents(&leader.log), vec![(0, b"a".to_vec()), (1, b"x".to_vec())]);
    }
}
