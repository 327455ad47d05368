//! Latency histogram of fixed size, allocated once per run.
//!
//! Its size does not grow with the op count, so a run's peak RSS measures
//! the program rather than the samples the benchmark keeps; and being
//! allocated before the first pass, it does not make the program's heap
//! layout depend on measured times.

/// Bits of mantissa kept per power of two: a relative resolution of
/// 1/1024, far finer than run-to-run noise.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Samples are clamped to 2^36 ns (about 69 s).
const MAX_NS: u64 = (1 << 36) - 1;

fn bucket(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns < SUB {
        ns as usize
    } else {
        let e = 63 - ns.leading_zeros() - SUB_BITS;
        (u64::from(e) * SUB + (ns >> e)) as usize
    }
}

/// Midpoint of bucket `b` in nanoseconds.
fn midpoint(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let e = b / SUB - 1;
    let lower = (b % SUB + SUB) << e;
    lower as f64 + ((1u64 << e) - 1) as f64 / 2.0
}

/// Log-linear histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            counts: vec![0; bucket(MAX_NS) + 1],
            total: 0,
        }
    }
}

impl LatencyHist {
    /// Adds every sample of `ns`.
    pub fn record(&mut self, ns: &[u64]) {
        for &v in ns {
            self.counts[bucket(v)] += 1;
        }
        self.total += ns.len() as u64;
    }

    /// Nearest-rank percentile `q` (0..=1) in nanoseconds, or NaN when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_tight() {
        let mut last = 0;
        for v in (0..5_000u64).chain((5_000..50_000_000).step_by(997)) {
            let b = bucket(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let mid = midpoint(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / SUB as f64,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut h = LatencyHist::default();
        h.record(&[5, 1, 4, 2, 3]);
        assert_eq!(h.percentile(0.5), 3.0);
        assert_eq!(h.percentile(0.99), 5.0);
        assert_eq!(h.percentile(0.0), 1.0);
        h.record(&[6, 7, 8, 9, 10]);
        assert_eq!(h.percentile(0.5), 5.0);
        assert!(LatencyHist::default().percentile(0.5).is_nan());
    }
}
