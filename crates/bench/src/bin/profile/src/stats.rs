//! Order statistics, the tail-percentile rule and the output fingerprint.

/// Percentiles the tail rule may report, highest first.
const TAIL_GRID: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match those computed from the result lines in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (0 for one value).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 || !m.is_finite() {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// One op's `(kind, time)`: ops of a kind cost the same.
pub type Sample = (usize, f64);

/// Median op time of a workload that mixes op kinds of different cost:
/// the median of each kind's times, weighted by how many ops the kind
/// has. A plain median of such a mix falls between the kinds' clusters,
/// where a small shift of one kind moves it a long way; this statistic
/// keeps the mix fixed and is still a median within each kind, so a stall
/// of a few ops moves it little.
pub fn mix_median(samples: &[Sample]) -> f64 {
    let mut kinds: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(kind, t) in samples {
        kinds.entry(kind).or_default().push(t);
    }
    let weighted: f64 = kinds.values().map(|t| median(t) * t.len() as f64).sum();
    weighted / samples.len() as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of [`TAIL_GRID`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples strictly beyond its rank; `None` when
/// even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= TAIL_BEYOND
    })
}

/// `(percentile, value)` of the tail of `values` by [`tail_percentile`].
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    tail_percentile(values.len()).map(|p| (p, percentile(values, p)))
}

/// Blocks or windows a timed phase is cut into for a median rate.
pub const RATE_PARTS: usize = 8;

/// Throughput of a sequence of ops as the median over [`RATE_PARTS`]
/// blocks of consecutive ops of the amount completed per second. Events
/// are `(seconds since start at the op's end, amount)`. Blocks hold whole
/// multiples of `cycle` ops, so every block has the same mix of op kinds;
/// a stall inside one block moves the median far less than the mean.
pub fn block_rate(events: &[(f64, f64)], cycle: usize) -> f64 {
    let cycle = cycle.max(1);
    let size = (events.len() / cycle / RATE_PARTS).max(1) * cycle;
    let mut rates = Vec::new();
    let mut start = 0.0;
    for block in events.chunks(size) {
        let end = block[block.len() - 1].0;
        if block.len() == size && end > start {
            rates.push(block.iter().map(|e| e.1).sum::<f64>() / (end - start));
        }
        start = end;
    }
    median(&rates)
}

/// Throughput of concurrent clients as the median over [`RATE_PARTS`]
/// equal windows of `[0, span)` of the amount completed per second.
pub fn window_rate(events: &[(f64, f64)], span: f64) -> f64 {
    let width = span / RATE_PARTS as f64;
    let mut sums = [0.0; RATE_PARTS];
    for &(t, amount) in events {
        let w = ((t / width) as usize).min(RATE_PARTS - 1);
        sums[w] += amount;
    }
    let rates: Vec<f64> = sums.iter().map(|s| s / width).collect();
    median(&rates)
}

/// 64-bit FNV-1a over the bit patterns of every output value, so two runs
/// agree only if every switching probability is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn values(&mut self, values: &[f64]) {
        for x in values {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(384), Some(97.0));
        assert_eq!(tail_percentile(600), Some(98.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        // Fewer than ten samples beyond even the median: no tail.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail(&[1.0; 5]), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mix_median_weights_each_kinds_median() {
        // Two kinds, cheap (~10 ms) and costly (~100 ms), 4 ops each, one
        // costly op stalled: kind medians 10 and 100.5, equal weights.
        let mut samples = [
            (0, 10.0),
            (1, 100.0),
            (0, 11.0),
            (1, 99.0),
            (0, 9.0),
            (1, 500.0),
            (0, 10.0),
            (1, 101.0),
        ];
        assert_eq!(mix_median(&samples), 55.25);
        let plain = |s: &[(usize, f64)]| median(&s.iter().map(|s| s.1).collect::<Vec<_>>());
        assert_eq!(plain(&samples), 55.0);
        // A stall of one cheap op moves the plain median, which sits
        // between the clusters, but not the mix median.
        samples[2].1 = 60.0;
        assert_eq!(plain(&samples), 79.5);
        assert_eq!(mix_median(&samples), 55.25);
        assert_eq!(mix_median(&[(0, 3.0), (0, 1.0), (0, 2.0)]), 2.0);
        // Weights follow the mix: three cheap ops to one costly.
        assert_eq!(mix_median(&[(0, 1.0), (0, 1.0), (0, 1.0), (1, 5.0)]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn rates_are_medians_over_parts() {
        // 8 windows of 1 s; one window stalls and completes nothing.
        let events: Vec<(f64, f64)> = (0..80)
            .filter(|i| i / 10 != 3)
            .map(|i| (f64::from(i) / 10.0, 2.0))
            .collect();
        assert_eq!(window_rate(&events, 8.0), 20.0);
        // Events at or past the end land in the last window.
        assert_eq!(window_rate(&[(9.0, 8.0)], 8.0), 0.0);

        // Ops alternate 1 s and 3 s, amounts 1 and 5; blocks of whole
        // cycles all read (1 + 5) / 4 s. One slow cycle does not move it.
        let mut t = 0.0;
        let mut events = Vec::new();
        for k in 0..32 {
            t += if k == 6 {
                30.0
            } else if k % 2 == 0 {
                1.0
            } else {
                3.0
            };
            events.push((t, if k % 2 == 0 { 1.0 } else { 5.0 }));
        }
        assert_eq!(block_rate(&events, 2), 1.5);
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let mut a = Fnv::default();
        a.values(&[0.25, 0.5]);
        let mut b = Fnv::default();
        b.values(&[0.25, f64::from_bits(0.5f64.to_bits() + 1)]);
        assert_ne!(a.finish(), b.finish());
    }
}
