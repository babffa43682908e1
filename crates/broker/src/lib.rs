//! A Kafka-like event streaming fabric — the in-process equivalent of
//! the AWS MSK cluster that hosts the Octopus event fabric (§IV-A).
//!
//! The crate implements the abstractions the paper's evaluation
//! exercises:
//!
//! - [`record`]: records and batches with CRC32C integrity checks.
//! - [`log`]: segmented, append-only partition logs with offset and
//!   timestamp lookup, retention, and key-based compaction.
//! - [`config`]: topic configuration (partitions, replication factor,
//!   retention, compaction, `min.insync.replicas`).
//! - [`broker`]: a broker node hosting partition replicas.
//! - [`cluster`]: the multi-broker cluster: topic creation, partition
//!   leadership, synchronous ISR replication, acks=0/1/all semantics,
//!   leader failover, broker kill/restart injection, and per-topic ACL
//!   enforcement.
//! - [`group`]: consumer groups — join/leave, generation-numbered
//!   rebalances, range assignment, committed offsets (at-least-once).
//! - [`store`]: the durable storage engine — on-disk segmented logs
//!   with CRC-framed records, configurable flush policies, crash and
//!   power-loss recovery with torn-tail truncation, and committed-
//!   offset checkpoints.
//! - [`mirror`]: MirrorMaker-style cross-cluster topic replication
//!   (§IV-F geo-replication).
//! - [`eos`]: exactly-once semantics — producer-id allocation with
//!   epoch fencing, append-time sequence dedup, and the transaction
//!   coordinator behind read-committed consumption.
//!
//! Threading model: brokers are passive state guarded by per-partition
//! locks; clients drive them from any number of threads. This mirrors
//! Kafka's design point (partition = unit of parallelism) and is what
//! the Criterion benches in `octopus-bench` measure.

pub mod balance;
pub mod broker;
pub mod cluster;
pub mod config;
pub mod eos;
pub mod fault;
pub mod group;
pub mod health;
pub mod index;
pub mod lag;
pub mod log;
pub mod mirror;
pub mod reassign;
pub mod record;
mod replication;
pub mod store;
pub mod tier;

pub use balance::{AutoBalancer, BalanceReport, BalancerAction, BalancerConfig};
pub use broker::{Broker, BrokerId, LogHandle, SharedLog, StoreContext};
pub use reassign::{MoveThrottle, ReassignPhase, ReassignStatus, ReassignTracker};
pub use cluster::{
    AckLevel, Cluster, DurabilityInfo, PowerLossReport, ProduceReceipt, TopicStats,
};
pub use eos::{
    DedupTable, DedupVerdict, PidAllocator, ProducerIdentity, TxnCoordinator, TxnIndex, TxnOffset,
    TxnState, DEDUP_WINDOWS,
};
pub use cluster::key_partition;
pub use fault::{DeliveryFault, FaultInjector, SeverObserver};
pub use config::{CleanupPolicy, RetentionConfig, StorageSpec, TopicConfig};
pub use group::{GroupCoordinator, GroupMember, MemberAssignment};
pub use health::{
    BrokerHealth, BrokerLiveness, ClusterHealth, HealthReport, HealthStatus, HealthTransition,
    PartitionHealth, PartitionRef, PartitionView,
};
pub use lag::{LagReport, LagTracker, PartitionLag};
pub use log::{DeferredAppend, LogSnapshot, PartitionLog, SealedRun};
pub use mirror::{MirrorHandle, MirrorMaker};
pub use record::{crc32c, ControlMarker, Crc32c, ProducerStamp, Record, RecordBatch, RecordEos};
pub use index::SealedMeta;
pub use store::{
    FlushPolicy, LazySegment, OffsetCheckpoint, OffsetEntry, ProducerCheckpoint,
    ProducerCkptEntry, RecoveredSegment, RecoveredSegments, RecoveryStats, SeekMode, StoreMetrics,
    StoreOptions, SyncTicket, TempDir,
};
pub use tier::{ColdStore, FsColdStore, TierMarker};
pub use octopus_compression::Compression;
