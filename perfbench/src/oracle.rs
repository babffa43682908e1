//! The drain's correctness oracle.
//!
//! Fed every record the drain reads, it checks that:
//! - each payload's checksum matches;
//! - each partition's offsets are dense from the partition start to
//!   its end offset;
//! - within a partition, events appear in generator order, and only
//!   events whose key maps to that partition appear there;
//! - every acknowledged event is delivered;
//! - with `unique`, no event is delivered twice.

use std::fmt;

use octopus_types::{Offset, PartitionId};

use crate::workload;

/// The first problem found, with enough context to chase it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    Corrupt {
        partition: PartitionId,
        offset: Offset,
    },
    Gap {
        partition: PartitionId,
        expected: Offset,
        got: Offset,
    },
    WrongPartition {
        partition: PartitionId,
        seq: u64,
    },
    OutOfOrder {
        partition: PartitionId,
        seq: u64,
        after: u64,
    },
    Duplicate {
        seq: u64,
    },
    Missing {
        seq: u64,
        missing: u64,
    },
    Short {
        partition: PartitionId,
        read_to: Offset,
        end: Offset,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Corrupt { partition, offset } => {
                write!(
                    f,
                    "checksum mismatch at partition {partition} offset {offset}"
                )
            }
            Violation::Gap {
                partition,
                expected,
                got,
            } => {
                write!(
                    f,
                    "partition {partition}: expected offset {expected}, got {got}"
                )
            }
            Violation::WrongPartition { partition, seq } => {
                write!(
                    f,
                    "event {seq} delivered from partition {partition}, not its key's"
                )
            }
            Violation::OutOfOrder {
                partition,
                seq,
                after,
            } => {
                write!(f, "partition {partition}: event {seq} after event {after}")
            }
            Violation::Duplicate { seq } => write!(f, "event {seq} delivered twice"),
            Violation::Missing { seq, missing } => {
                write!(
                    f,
                    "{missing} acknowledged events never delivered (first: {seq})"
                )
            }
            Violation::Short {
                partition,
                read_to,
                end,
            } => {
                write!(
                    f,
                    "partition {partition}: drain stopped at {read_to}, end is {end}"
                )
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Lane {
    next_offset: Offset,
    /// Highest sequence number seen on this partition.
    last_seq: Option<u64>,
}

/// Streaming oracle over one drain.
#[derive(Debug)]
pub struct Oracle {
    partitions: u32,
    unique: bool,
    lanes: Vec<Lane>,
    /// Deliveries per sequence number (saturating).
    seen: Vec<u8>,
    duplicates: u64,
    violations: Vec<Violation>,
}

impl Oracle {
    /// `starts[p]` is the first offset partition `p` retains.
    pub fn new(starts: &[Offset], unique: bool) -> Self {
        Oracle {
            partitions: starts.len() as u32,
            unique,
            lanes: starts
                .iter()
                .map(|&s| Lane {
                    next_offset: s,
                    last_seq: None,
                })
                .collect(),
            seen: Vec::new(),
            duplicates: 0,
            violations: Vec::new(),
        }
    }

    fn flag(&mut self, v: Violation) {
        // the first few are enough to debug; later ones are echoes
        if self.violations.len() < 16 {
            self.violations.push(v);
        }
    }

    /// Feed one delivered record.
    pub fn observe(&mut self, partition: PartitionId, offset: Offset, payload: &[u8]) {
        let Some(lane) = self.lanes.get(partition as usize).copied() else {
            self.flag(Violation::WrongPartition {
                partition,
                seq: u64::MAX,
            });
            return;
        };
        if offset != lane.next_offset {
            self.flag(Violation::Gap {
                partition,
                expected: lane.next_offset,
                got: offset,
            });
        }
        self.lanes[partition as usize].next_offset = offset + 1;
        let Some(stamp) = workload::parse(payload) else {
            self.flag(Violation::Corrupt { partition, offset });
            return;
        };
        let seq = stamp.seq;
        if seq % self.partitions as u64 != partition as u64 {
            self.flag(Violation::WrongPartition { partition, seq });
        }
        let idx = seq as usize;
        if idx >= self.seen.len() {
            self.seen.resize(idx + 1, 0);
        }
        let first = self.seen[idx] == 0;
        self.seen[idx] = self.seen[idx].saturating_add(1);
        if !first {
            // at-least-once may redeliver; order is judged on first
            // deliveries only
            self.duplicates += 1;
            if self.unique {
                self.flag(Violation::Duplicate { seq });
            }
            return;
        }
        if let Some(after) = lane.last_seq {
            if seq <= after {
                self.flag(Violation::OutOfOrder {
                    partition,
                    seq,
                    after,
                });
            }
        }
        self.lanes[partition as usize].last_seq = Some(seq);
    }

    /// How far the drain has read partition `p` (next expected offset).
    pub fn read_to(&self, partition: PartitionId) -> Offset {
        self.lanes[partition as usize].next_offset
    }

    /// Records delivered more than once.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Close the drain: `ends[p]` is partition `p`'s end offset and
    /// `acked[seq]` whether event `seq` was acknowledged.
    pub fn finish(mut self, ends: &[Offset], acked: &[bool]) -> Result<u64, Vec<Violation>> {
        for (p, &end) in ends.iter().enumerate() {
            let read_to = self.lanes[p].next_offset;
            if read_to != end {
                self.flag(Violation::Short {
                    partition: p as PartitionId,
                    read_to,
                    end,
                });
            }
        }
        let mut missing = 0u64;
        let mut first_missing = None;
        for (seq, _) in acked.iter().enumerate().filter(|(_, &a)| a) {
            if self.seen.get(seq).copied().unwrap_or(0) == 0 {
                missing += 1;
                first_missing.get_or_insert(seq as u64);
            }
        }
        if let Some(seq) = first_missing {
            self.flag(Violation::Missing { seq, missing });
        }
        if self.violations.is_empty() {
            Ok(self.seen.iter().filter(|&&n| n > 0).count() as u64)
        } else {
            Err(self.violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Workload};

    /// A clean two-partition log of `n` events: event `seq` at
    /// partition `seq % 2`, offset `seq / 2`.
    fn log(n: u64) -> Vec<(PartitionId, Offset, Vec<u8>)> {
        let g = Generator::new(&Workload::by_name("durable-eos").unwrap(), 11);
        (0..n)
            .map(|seq| ((seq % 2) as u32, seq / 2, g.payload(seq, 0)))
            .collect()
    }

    fn run(
        records: &[(PartitionId, Offset, Vec<u8>)],
        ends: [Offset; 2],
        unique: bool,
    ) -> Result<u64, Vec<Violation>> {
        let mut o = Oracle::new(&[0, 0], unique);
        for (p, off, payload) in records {
            o.observe(*p, *off, payload);
        }
        o.finish(&ends, &[true; 10])
    }

    #[test]
    fn a_clean_drain_passes() {
        assert_eq!(run(&log(10), [5, 5], true), Ok(10));
    }

    #[test]
    fn a_dropped_record_fails() {
        let mut records = log(10);
        records.remove(4); // seq 4: partition 0, offset 2
        let err = run(&records, [5, 5], false).unwrap_err();
        assert!(
            err.contains(&Violation::Gap {
                partition: 0,
                expected: 2,
                got: 3
            }),
            "{err:?}"
        );
        assert!(
            err.contains(&Violation::Missing { seq: 4, missing: 1 }),
            "{err:?}"
        );
    }

    #[test]
    fn a_dropped_tail_fails_even_without_a_gap() {
        let mut records = log(10);
        records.pop(); // seq 9: the last record of partition 1
        let err = run(&records, [5, 5], false).unwrap_err();
        assert!(
            err.contains(&Violation::Short {
                partition: 1,
                read_to: 4,
                end: 5
            }),
            "{err:?}"
        );
    }

    #[test]
    fn a_duplicated_record_fails_when_events_must_be_unique() {
        let mut records = log(10);
        // the broker appended event 8 twice: it reappears at the next offset
        let dup = records[8].2.clone();
        records.insert(9, (0, 5, dup));
        let ends = [6, 5];
        let err = run(&records, ends, true).unwrap_err();
        assert_eq!(err, vec![Violation::Duplicate { seq: 8 }]);
        // at-least-once tolerates the redelivery
        assert_eq!(run(&records, ends, false), Ok(10));
    }

    #[test]
    fn a_corrupted_record_fails() {
        let mut records = log(10);
        let last = records[3].2.len() - 1;
        records[3].2[last] ^= 0x20;
        let err = run(&records, [5, 5], false).unwrap_err();
        assert!(
            err.contains(&Violation::Corrupt {
                partition: 1,
                offset: 1
            }),
            "{err:?}"
        );
        assert!(
            err.contains(&Violation::Missing { seq: 3, missing: 1 }),
            "{err:?}"
        );
    }

    #[test]
    fn reordered_records_fail() {
        let mut records = log(10);
        // swap the payloads of offsets 1 and 2 on partition 0
        let (a, b) = (records[2].2.clone(), records[4].2.clone());
        records[2].2 = b;
        records[4].2 = a;
        let err = run(&records, [5, 5], false).unwrap_err();
        assert_eq!(
            err,
            vec![Violation::OutOfOrder {
                partition: 0,
                seq: 2,
                after: 4
            }]
        );
    }
}
