//! Order statistics over latency samples.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A latency that never completed (refused or failed send, event never
/// delivered): larger than any limit a run could set.
pub const NEVER_MS: f64 = 1.0e6;

/// Samples of one timing, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

/// Latencies of the open loop bucketed into windows of its schedule.
/// Each window's quantile is taken on its own, padded with [`NEVER_MS`]
/// up to the events attempted in it. The median window is reported:
/// the host steals CPU in bursts, so a burst moves the windows it lands
/// in and not the figure, while a change that slows half the windows or
/// more moves it. A stall confined to fewer windows shows in
/// [`Windows::pooled`], which is printed beside it.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    buckets: Vec<Samples>,
    attempts: Vec<u64>,
}

impl Windows {
    fn grow(&mut self, i: usize) {
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, Samples::new());
            self.attempts.resize(i + 1, 0);
        }
    }

    /// An event of window `i` was attempted.
    pub fn attempt(&mut self, i: usize) {
        self.grow(i);
        self.attempts[i] += 1;
    }

    pub fn push(&mut self, i: usize, v: f64) {
        self.grow(i);
        self.buckets[i].push(v);
    }

    /// The same windows and attempt counts, without samples.
    pub fn empty_like(&self) -> Self {
        Windows {
            buckets: vec![Samples::new(); self.buckets.len()],
            attempts: self.attempts.clone(),
        }
    }

    /// Samples recorded, over all windows.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Samples::len).sum()
    }

    /// Median of the windows' `q` quantiles.
    pub fn median_window(&self, q: f64) -> f64 {
        median(&self.per_window(q))
    }

    /// The `q` quantile of all samples of all windows together, padded
    /// like each window.
    pub fn pooled(&self, q: f64) -> f64 {
        let mut all = Samples::new();
        for (b, &n) in self.buckets.iter().zip(&self.attempts) {
            for &v in &b.values {
                all.push(v);
            }
            for _ in b.len() as u64..n {
                all.push(NEVER_MS);
            }
        }
        all.quantile(q)
    }

    /// Each window's `q` quantile, in window order.
    pub fn per_window(&self, q: f64) -> Vec<f64> {
        self.buckets
            .iter()
            .zip(&self.attempts)
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| {
                let mut b = b.clone();
                for _ in b.len() as u64..n {
                    b.push(NEVER_MS);
                }
                b.quantile(q)
            })
            .collect()
    }
}

/// Throughput over equal chunks of a fixed amount of work; the median
/// chunk rate is reported, so a stall moves one chunk.
#[derive(Debug, Clone)]
pub struct ChunkRate {
    chunk: u64,
    done: u64,
    mark: std::time::Instant,
    rates: Vec<f64>,
}

impl ChunkRate {
    /// `total` units of work in `chunks` chunks, starting now.
    pub fn new(total: u64, chunks: u64) -> Self {
        ChunkRate {
            chunk: (total / chunks.max(1)).max(1),
            done: 0,
            mark: std::time::Instant::now(),
            rates: Vec::new(),
        }
    }

    /// `n` more units done; returns true when a chunk just closed.
    pub fn add(&mut self, n: u64) -> bool {
        self.done += n;
        let mut closed = false;
        while self.done >= (self.rates.len() as u64 + 1) * self.chunk {
            let now = std::time::Instant::now();
            self.rates
                .push(self.chunk as f64 / (now - self.mark).as_secs_f64());
            self.mark = now;
            closed = true;
        }
        closed
    }

    /// Chunks completed so far.
    pub fn chunks(&self) -> usize {
        self.rates.len()
    }

    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Median of a small set (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::new().p99(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windows_pad_missing_events_and_report_the_median_window() {
        let mut w = Windows::default();
        for i in [0, 0, 1, 1, 2, 2] {
            w.attempt(i);
        }
        for (i, v) in [(0, 1.0), (0, 2.0), (1, 3.0), (1, 4.0), (2, 5.0)] {
            w.push(i, v); // one event of window 2 never completed
        }
        assert_eq!(w.len(), 5);
        // window p99s: 2, 4, NEVER
        assert_eq!(w.per_window(0.99), vec![2.0, 4.0, NEVER_MS]);
        assert_eq!(w.median_window(0.99), 4.0);
        // pooled: [1, 2, 3, 4, 5, NEVER]
        assert_eq!(w.pooled(0.5), 3.0);
        assert_eq!(w.pooled(0.99), NEVER_MS);
        let mut e = w.empty_like();
        assert_eq!(e.len(), 0);
        e.push(0, 9.0);
        // windows with attempts but no samples count as NEVER
        assert_eq!(e.per_window(0.5), vec![9.0, NEVER_MS, NEVER_MS]);
        assert_eq!(e.median_window(0.5), NEVER_MS);
    }
}
