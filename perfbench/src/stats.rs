//! Latency samples: nearest-rank percentiles and the tail-sample rule.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Latency samples of one operation class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Median, p99 and sample count of a [`Samples`] set, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Median and p99, or an error when the p99 has fewer than
    /// [`MIN_TAIL_SAMPLES`] samples beyond it.
    pub fn summary(&self, what: &str) -> Result<Summary, String> {
        let beyond = tail_samples(self.ns.len(), 0.99);
        if beyond < MIN_TAIL_SAMPLES {
            return Err(format!(
                "{what}: {} samples leave {beyond} beyond the p99, need {MIN_TAIL_SAMPLES}",
                self.ns.len()
            ));
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        Ok(Summary {
            count: sorted.len(),
            p50_us: percentile(&sorted, 0.50) as f64 / 1e3,
            p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
        })
    }
}

/// Rank (1-based) of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples ranked strictly above the `q` percentile among `n` samples.
pub fn tail_samples(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_p99() {
        assert_eq!(tail_samples(0, 0.99), 0);
        assert_eq!(tail_samples(999, 0.99), 9);
        assert_eq!(tail_samples(1000, 0.99), 10);
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(i);
        }
        assert!(s.summary("x").is_err());
        s.push(999);
        let sum = s.summary("x").expect("1000 samples suffice");
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50_us, 0.499);
        assert_eq!(sum.p99_us, 0.989);
    }
}
