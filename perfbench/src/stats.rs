//! The benchmark's own statistics: medians, quartiles, tail percentiles,
//! a seeded generator for workload inputs, and open-loop request timing.

/// Median of `xs` (mean of the middle pair for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest of `xs`: for repetitions of identical deterministic work,
/// the one least slowed by whatever else ran on the host.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `xs`: for per-window rates of the same work, the window
/// least slowed by whatever else ran on the host.
pub fn highest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` does (its default
/// "exclusive" method), so spreads printed here match the ones a
/// Python harness computes from the same values. Needs two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let s = sorted(xs);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark's bounds are checked against.
pub fn rel_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The calm end of a run's windows: the first quartile of per-window
/// times (`lower_is_better`) or the third quartile of per-window rates.
/// Other tenants of a shared host only ever slow a window down, so this
/// quarter follows the program's own speed, where a median follows how
/// much of the run the host was busy. Panics on an empty slice.
pub fn calm(xs: &[f64], lower_is_better: bool) -> f64 {
    assert!(!xs.is_empty(), "no windows");
    if xs.len() == 1 {
        return xs[0];
    }
    let (q1, _, q3) = quartiles(xs);
    if lower_is_better {
        q1
    } else {
        q3
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the benchmark reports tails at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond`
/// of `n` samples above it, or `None` when even the median has fewer.
/// A tail read from fewer samples is one outlier, not a percentile.
pub fn highest_resolvable_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        // Work in millionths so the comparison is exact integer math.
        let beyond_millionths = n as u128 * (1_000_000 - (p * 10_000.0).round() as u128);
        beyond_millionths >= min_beyond as u128 * 1_000_000
    })
}

/// Ascending copy of `xs` (NaN-free inputs).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    s
}

/// SplitMix64: the benchmark's input generator. Every workload input is
/// drawn from one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so two inputs of
    /// one workload never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (ns after the schedule's start) of an open-loop Poisson
/// arrival process at `rate_per_s`, covering `span_ns`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, span_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= span_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// One open-loop request: when it was due, when the generator actually
/// issued it, and when it completed (ns on one clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Scheduled send time.
    pub due_ns: u64,
    /// Time the generator issued the call.
    pub sent_ns: u64,
    /// Time the call returned.
    pub done_ns: u64,
}

impl Request {
    /// Latency as a user of an open-loop system sees it: from the due
    /// time, so a stall that delays the generator is charged to every
    /// request it held back, not hidden by measuring from the send.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator issued the request.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Fixed-memory sample of a stream of durations (Vitter's algorithm R
/// with a deterministic generator): exact count and sum, percentiles
/// from a uniform sample of at most `cap` values.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    /// Values offered.
    pub count: u64,
    /// Sum of every value offered.
    pub sum: u64,
    sample: Vec<u64>,
    rng: SplitMix64,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` values.
    pub fn new(cap: usize) -> Self {
        Reservoir { cap, count: 0, sum: 0, sample: Vec::new(), rng: SplitMix64::new(cap as u64, 7) }
    }

    /// Offer one value.
    pub fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        if self.sample.len() < self.cap {
            self.sample.push(v);
        } else {
            let j = self.rng.next_u64() % self.count;
            if (j as usize) < self.cap {
                self.sample[j as usize] = v;
            }
        }
    }

    /// Fold another reservoir in. Count and sum stay exact; when both
    /// samples do not fit, each side keeps a share of the cap in
    /// proportion to its count.
    pub fn merge(&mut self, other: &Reservoir) {
        let total = self.count + other.count;
        if self.sample.len() + other.sample.len() > self.cap {
            let keep_self = (self.cap as u128 * self.count as u128 / total as u128) as usize;
            self.sample.truncate(keep_self);
            let room = self.cap - self.sample.len();
            self.sample.extend(other.sample.iter().copied().take(room));
        } else {
            self.sample.extend_from_slice(&other.sample);
        }
        self.count = total;
        self.sum += other.sum;
    }

    /// Mean of every value offered (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile of the sample (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self.sample.iter().map(|&x| x as f64).collect();
        percentile(&sorted(&v), p)
    }
}
