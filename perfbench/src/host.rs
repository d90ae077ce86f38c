//! Host-side measurement helpers: process CPU and run-queue time,
//! peak memory, a deterministic input RNG and a fixed-memory latency
//! histogram.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fs;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Process CPU time and run-queue wait, summed over every thread of
/// this process (`/proc/self/task/*/schedstat`, fields 1 and 2, in ns).
/// Run-queue wait is the time a thread was runnable but not running:
/// it grows when the scheduler, not the program, slowed a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSample {
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent waiting on a run queue.
    pub runq_ns: u64,
}

impl CpuSample {
    /// Read the current totals; zero where `/proc` is unavailable.
    pub fn now() -> CpuSample {
        let mut out = CpuSample::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return out;
        };
        for task in tasks.flatten() {
            let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            out.cpu_ns += fields.next().unwrap_or(0);
            out.runq_ns += fields.next().unwrap_or(0);
        }
        out
    }

    /// Time elapsed since `earlier`.
    pub fn since(self, earlier: CpuSample) -> CpuSample {
        CpuSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Multiply-rotate hasher for the checker's integer keys: the default
/// SipHash would make the benchmark's own bookkeeping a visible share of
/// the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

/// `HashMap` with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Host ns per [`RefKernel`] step on the host the bounds in
/// `BENCHMARK.json` were set on (a 2-vCPU x86-64 KVM guest, unloaded).
pub const REF_NS_PER_STEP: f64 = 64.0;

/// A fixed piece of benchmark-owned work that measures how fast the
/// host runs right now: an event-queue loop (binary-heap pop and push,
/// random reads and writes in 512 KiB, one small allocation per step),
/// the same mix of work the simulator does but none of its code. Neighbours
/// on a shared host slow it and the program alike, so host times scaled
/// by `measured / REF_NS_PER_STEP` change with the program, not the host.
pub struct RefKernel {
    state: Vec<u64>,
    seed: u64,
}

impl Default for RefKernel {
    fn default() -> RefKernel {
        RefKernel {
            state: vec![0; 1 << 16],
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RefKernel {
    /// Steps per measurement: about 4 ms.
    const STEPS: u64 = 60_000;

    /// Run the kernel once; host ns per step.
    pub fn measure(&mut self) -> f64 {
        let mask = self.state.len() - 1;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..1024u32)
            .map(|i| Reverse((u64::from(i) * 7, i)))
            .collect();
        let mut x = self.seed;
        let t0 = Instant::now();
        for _ in 0..Self::STEPS {
            let Reverse((t, id)) = heap.pop().expect("the heap never empties");
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ t;
            let k = (x as usize ^ id as usize) & mask;
            self.state[k] = self.state[k].wrapping_add(x);
            let v = Box::new(self.state[(k * 31) & mask]);
            heap.push(Reverse((t + 1 + (*std::hint::black_box(v) ^ x) % 1000, id)));
        }
        let ns = t0.elapsed().as_nanos() as f64 / Self::STEPS as f64;
        self.seed = x;
        std::hint::black_box(&heap);
        ns
    }
}

/// Median of `v` (0 when empty); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// splitmix64: the benchmark's input generator. Inputs depend only on
/// the seed, never on the program's crates, so a change to a crate's RNG
/// cannot change what the benchmark feeds it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Exponential with the given mean, in whole nanoseconds (≥ 1).
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u = self.unit().max(1e-12);
        ((-u.ln()) * mean_ns).ceil().max(1.0) as u64
    }
}

/// Zipf sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// `n` ranks with exponent `alpha`.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(alpha);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Sub-buckets per power of two above [`LINEAR`]: bucket width is at
/// most 1/1024 of the value.
const SUB: u64 = 1024;
/// Values below this are counted in 1-unit buckets.
const LINEAR: u64 = 2 * SUB;
/// Octaves above `LINEAR` (values up to 2^42 ns ≈ 73 min).
const OCTAVES: u64 = 31;

/// Fixed-memory histogram of non-negative integers (nanoseconds here).
/// Percentiles interpolate linearly inside the bucket holding the rank,
/// so they move with every sample rather than snapping to bucket edges.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; (LINEAR + OCTAVES * SUB) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let e = u64::from(63 - v.leading_zeros());
        let shift = e - 10;
        let idx = LINEAR + (e - 11) * SUB + ((v >> shift) - SUB);
        idx.min(LINEAR + OCTAVES * SUB - 1) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < LINEAR {
            return (i as f64, 1.0);
        }
        let e = (i - LINEAR) / SUB + 11;
        let sub = (i - LINEAR) % SUB;
        let width = (1u64 << (e - 10)) as f64;
        (((SUB + sub) << (e - 10)) as f64, width)
    }

    /// Count one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Percentile `p` in `[0, 1]` (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (p * self.n as f64).clamp(0.0, self.n as f64);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                return lo + width * ((rank - below as f64) / c as f64);
            }
            below += c;
        }
        let (lo, width) = Self::bounds(self.counts.len() - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_cover_values_in_order() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 1023,
            1 << 40,
        ] {
            let i = Hist::index(v);
            assert!(i >= last, "index must be monotone at {v}");
            last = i;
            let (lo, w) = Hist::bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v} outside bucket {lo}+{w}"
            );
        }
    }

    #[test]
    fn hist_percentiles_track_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.002, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.002, "p99 {p99}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(7, 0);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(head > 5_000, "head share {head}");
    }
}
