//! Deterministic random numbers with hierarchical substreams.
//!
//! Every stochastic element of the simulation (straggler delays, jittered
//! compute, random workloads) draws from a [`DetRng`] forked from the
//! experiment's root seed by a stable label, so adding a new consumer never
//! perturbs existing streams and runs are exactly reproducible.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — stable across platforms and Rust versions,
/// unlike `DefaultHasher`. The workspace's one FNV-1a: substream labels,
/// run digests and replica placement all fold through it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// [`fnv1a`] over a word sequence, each word folded as its eight
/// little-endian bytes.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv1a_fold(h, &w.to_le_bytes()))
}

fn fnv1a_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64 finalizer — decorrelates seeds that differ in few bits.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// xoshiro256++ core: fast, 256-bit state, excellent statistical quality.
/// Implemented locally so the simulator's streams are frozen by this file,
/// not by an external crate's version bumps.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expand a 64-bit seed into the full state with splitmix64 (the
    /// reference seeding procedure; guarantees a non-zero state).
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9e3779b97f4a7c15);
            *slot = splitmix(z);
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` via 128-bit widening multiply (Lemire). The bias
    /// without a rejection step is < n/2^64 — irrelevant at simulation
    /// scales and branch-free, keeping draws cheap and deterministic.
    fn bounded(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A seeded RNG that can spawn independent, reproducible substreams.
pub struct DetRng {
    seed: u64,
    rng: Xoshiro256,
}

impl DetRng {
    /// Root RNG for a run.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            rng: Xoshiro256::seed_from_u64(splitmix(seed)),
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork a named substream. Forking does not consume state from `self`,
    /// so fork order is irrelevant to determinism.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(splitmix(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Fork an indexed substream (e.g. one per rank).
    pub fn fork_idx(&self, idx: u64) -> DetRng {
        DetRng::new(splitmix(
            self.seed ^ splitmix(idx.wrapping_add(0x5bf0_3635)),
        ))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.rng.bounded(hi - lo)
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.rng.bounded(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.next_f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = self.rng.next_f64();
        // Guard against ln(0).
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid range");
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        let u1: f64 = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent_of_parent_state() {
        let mut a = DetRng::new(7);
        let fork_before = a.fork("straggler");
        let _ = a.f64(); // consume parent state
        let fork_after = a.fork("straggler");
        let mut x = fork_before;
        let mut y = fork_after;
        for _ in 0..10 {
            assert_eq!(x.range_u64(0, 1000), y.range_u64(0, 1000));
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let root = DetRng::new(7);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn indexed_forks_differ() {
        let root = DetRng::new(7);
        let mut a = root.fork_idx(0);
        let mut b = root.fork_idx(1);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = DetRng::new(99);
        let n = 20_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.1,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = DetRng::new(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }
}
