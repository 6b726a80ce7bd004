//! Latency samples and order statistics.
//!
//! A run is cut into chunks of [`CHUNK_S`] seconds of measured time. Each
//! end-to-end figure is computed per chunk and reported as the median
//! over chunks, so a short burst of interference on a shared machine
//! moves one chunk, not the run's figure.
//!
//! A shared host also changes speed for tens of seconds at a time, as
//! its neighbours' load comes and goes: the same code then runs up to
//! 1.6 times faster or slower, for longer than a run lasts. Every timing
//! is therefore read beside a [`Gauge`]: a fixed reference kernel, timed
//! between measurements in the same chunk, and each figure is scaled to
//! the host speed at which that kernel takes [`REF_NS`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Length of one measurement chunk, in seconds.
pub const CHUNK_S: f64 = 0.5;

/// A sample is `chunk << TAG_SHIFT | nanoseconds`, so sorting the raw
/// values groups them by chunk and orders each chunk by latency.
const TAG_SHIFT: u32 = 48;
const NS_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Chunks in a run of `seconds`.
pub fn chunks_for(seconds: f64) -> usize {
    ((seconds / CHUNK_S).round() as usize).max(1)
}

/// The chunk a measurement that started `elapsed_ns` into the run
/// belongs to.
pub fn chunk_of(elapsed_ns: u64) -> usize {
    (elapsed_ns as f64 / (CHUNK_S * 1e9)) as usize
}

/// Nominal time of one [`reference_kernel`] run, in nanoseconds (about
/// its median on a 2-vCPU Xeon VM at 2.1 GHz). Timings are reported as
/// if the host ran the kernel in exactly this time.
pub const REF_NS: f64 = 20_000.0;

/// Measured work between two gauge readings, in nanoseconds: the kernel
/// then costs about 2% of a run's wall time.
pub const GAUGE_EVERY_NS: u64 = 1_000_000;

/// Kernel runs that bracket one set-up repetition on each side.
const SETUP_READINGS: usize = 4;

/// A fixed amount of work that shares no code with the program under
/// test: fill 1024 words from an xorshift generator and sort them (8 KiB,
/// resident in L1). Its time follows the host's current speed.
pub fn reference_kernel() -> u64 {
    let mut words = [0u64; 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for w in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    std::hint::black_box(&mut words).sort_unstable();
    words[17]
}

/// Runs [`reference_kernel`] once and returns its time in nanoseconds.
pub fn reference_ns() -> u64 {
    let t = Instant::now();
    std::hint::black_box(reference_kernel());
    t.elapsed().as_nanos() as u64
}

/// How much slower than nominal the host runs right now: the mean of a
/// few reference-kernel times over [`REF_NS`].
pub fn slowdown_now() -> f64 {
    let ns: u64 = (0..SETUP_READINGS).map(|_| reference_ns()).sum();
    ns as f64 / SETUP_READINGS as f64 / REF_NS
}

/// Times one set-up repetition: its wall time in seconds, and that time
/// scaled to nominal host speed by readings taken just before and after.
pub fn time_setup<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = slowdown_now();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let slowdown = (before + slowdown_now()) / 2.0;
    (out, secs, secs / slowdown)
}

/// Reference-kernel times booked per chunk.
pub struct Gauge {
    ns: Vec<u64>,
    readings: Vec<u64>,
}

impl Gauge {
    pub fn new(chunks: usize) -> Self {
        Gauge {
            ns: vec![0; chunks],
            readings: vec![0; chunks],
        }
    }

    /// Books one kernel time of `ns` nanoseconds to `chunk`; readings
    /// past the last chunk are dropped.
    pub fn book(&mut self, chunk: usize, ns: u64) {
        if let (Some(t), Some(n)) = (self.ns.get_mut(chunk), self.readings.get_mut(chunk)) {
            *t += ns;
            *n += 1;
        }
    }

    /// Per chunk, the mean kernel time over [`REF_NS`]: how much slower
    /// than nominal the host ran. A chunk without readings reads 1.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.ns
            .iter()
            .zip(&self.readings)
            .map(|(&ns, &n)| {
                if n == 0 {
                    1.0
                } else {
                    ns as f64 / n as f64 / REF_NS
                }
            })
            .collect()
    }
}

/// Latency samples held in memory fixed at set-up.
///
/// The buffer is allocated and touched once, so the process's peak
/// resident set does not grow with throughput. Past `capacity` samples
/// the buffer becomes a uniform reservoir (Vitter's algorithm R), which
/// keeps percentiles unbiased.
pub struct Samples {
    buf: Vec<u64>,
    len: usize,
    seen: u64,
    rng: StdRng,
}

impl Samples {
    pub fn with_capacity(capacity: usize, seed: u64) -> Self {
        // `vec![1; n]` writes every page; zeroed memory would stay lazy.
        let buf = vec![1u64; capacity.max(1)];
        Samples {
            buf,
            len: 0,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Records a latency of `ns` nanoseconds in `chunk`.
    pub fn push(&mut self, chunk: usize, ns: u64) {
        let v = ((chunk as u64) << TAG_SHIFT) | ns.min(NS_MASK);
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        } else {
            let j = self.rng.random_range(0..self.seen);
            if let Ok(j) = usize::try_from(j) {
                if j < self.buf.len() {
                    self.buf[j] = v;
                }
            }
        }
    }

    /// Samples observed (not only those retained).
    pub fn count(&self) -> u64 {
        self.seen
    }
}

/// The value at quantile `q` (nearest rank) of sorted `values`, with the
/// number of samples ranked strictly above it.
pub fn rank(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[r - 1], n - r))
}

/// The value at quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [u64], q: f64) -> Option<(u64, usize)> {
    values.sort_unstable();
    rank(values, q)
}

/// Latency figures of a chunked run: medians over chunks of each chunk's
/// p50 and p99, scaled to nominal host speed, in microseconds.
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Samples observed over the run.
    pub n: u64,
    /// Chunks with at least one sample.
    pub chunks: usize,
    /// The fewest samples any chunk has beyond its p99.
    pub min_beyond_p99: usize,
}

impl Latency {
    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}, n={} in {} chunks of {CHUNK_S} s, median over chunks at nominal host speed",
            self.n, self.chunks
        )
    }
}

/// Per-chunk percentiles of `samples`, each divided by its chunk's host
/// slowdown, summarised as medians over the chunks `slowdowns` covers.
/// Sorts the retained samples in place.
pub fn latency(samples: &mut Samples, slowdowns: &[f64]) -> Option<Latency> {
    let n = samples.count();
    let v = &mut samples.buf[..samples.len];
    v.sort_unstable();
    let (mut p50s, mut p99s, mut min_beyond) = (Vec::new(), Vec::new(), usize::MAX);
    for (c, &slowdown) in (0u64..).zip(slowdowns) {
        let lo = v.partition_point(|&x| x >> TAG_SHIFT < c);
        let hi = v.partition_point(|&x| x >> TAG_SHIFT <= c);
        let chunk = &v[lo..hi];
        if let (Some((p50, _)), Some((p99, beyond))) = (rank(chunk, 0.5), rank(chunk, 0.99)) {
            p50s.push((p50 & NS_MASK) as f64 / 1e3 / slowdown);
            p99s.push((p99 & NS_MASK) as f64 / 1e3 / slowdown);
            min_beyond = min_beyond.min(beyond);
        }
    }
    (!p50s.is_empty()).then(|| Latency {
        p50_us: median_f64(&p50s),
        p99_us: median_f64(&p99s),
        n,
        chunks: p50s.len(),
        min_beyond_p99: min_beyond,
    })
}

/// The median of a few floats.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some((500, 500)));
        assert_eq!(quantile(&mut v, 0.99), Some((990, 10)));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_capacity_and_counts_all() {
        let mut s = Samples::with_capacity(100, 1);
        for i in 0..10_000 {
            s.push(0, i);
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.len, 100);
        // A uniform reservoir of 0..10000 has its median near 5000.
        let l = latency(&mut s, &[1.0]).unwrap();
        assert!((2.5..7.5).contains(&l.p50_us), "median {}", l.p50_us);
    }

    #[test]
    fn chunk_figures_are_medians_over_chunks() {
        let mut s = Samples::with_capacity(10_000, 1);
        // Chunk c holds latencies (c+1) * 1000 .. (c+1) * 1000 + 999 ns.
        for c in [2usize, 0, 1] {
            for i in 0..1000 {
                s.push(c, (c as u64 + 1) * 1000 + i);
            }
        }
        let l = latency(&mut s, &[1.0; 3]).unwrap();
        assert_eq!(l.chunks, 3);
        assert_eq!(l.n, 3000);
        assert_eq!(l.p50_us, 2.499);
        assert_eq!(l.p99_us, 2.989);
        assert_eq!(l.min_beyond_p99, 10);
        // Samples past the last chunk are ignored.
        assert_eq!(latency(&mut s, &[1.0]).unwrap().p50_us, 1.499);
        // A chunk the host ran at half speed counts at half its latency.
        let l = latency(&mut s, &[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(l.p50_us, 1.7495);
    }

    #[test]
    fn gauge_slowdowns_are_mean_readings_over_nominal() {
        let mut g = Gauge::new(3);
        g.book(0, 20_000);
        g.book(0, 40_000);
        g.book(1, 10_000);
        g.book(5, 1);
        assert_eq!(g.slowdowns(), vec![1.5, 0.5, 1.0]);
    }

    #[test]
    fn reference_kernel_is_fixed_work() {
        assert_eq!(reference_kernel(), reference_kernel());
        assert!(reference_ns() > 0);
    }

    #[test]
    fn chunk_boundaries() {
        assert_eq!(chunks_for(10.0), 20);
        assert_eq!(chunks_for(0.1), 1);
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(499_999_999), 0);
        assert_eq!(chunk_of(500_000_000), 1);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
