//! Seeded workload inputs. The benchmark owns these generators (it does
//! not import `fempath_bench::harness`), so a later edit to the paper
//! harness cannot change what a workload runs.
//!
//! Both generators are unbounded iterators: a run measures for a fixed
//! time, so the number of operations it will draw is not known up front.

/// SplitMix64: 64 bits of state, full period, and good enough mixing that
/// consecutive seeds give unrelated streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Endless stream of uniform `(s, t)` pairs over `0..n` with `s != t`.
pub fn uniform_pairs(n: usize, seed: u64) -> impl Iterator<Item = (i64, i64)> {
    assert!(n >= 2, "uniform_pairs needs at least two nodes");
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0001);
    std::iter::repeat_with(move || {
        let s = rng.below(n as u64);
        let mut t = rng.below(n as u64);
        if t == s {
            t = (t + 1) % n as u64;
        }
        (s as i64, t as i64)
    })
}

/// Endless stream of ranks in `0..pool_len` where rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^theta` (`theta = 0` is
/// uniform, `0.99` the YCSB hot-key skew).
pub fn zipf_trace(pool_len: usize, theta: f64, seed: u64) -> impl Iterator<Item = usize> {
    assert!(pool_len > 0, "zipf_trace needs a non-empty pool");
    let mut cdf = Vec::with_capacity(pool_len);
    let mut total = 0.0f64;
    for rank in 0..pool_len {
        total += 1.0 / ((rank + 1) as f64).powf(theta);
        cdf.push(total);
    }
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0002);
    std::iter::repeat_with(move || {
        let x = rng.unit() * total;
        cdf.partition_point(|&c| c < x).min(pool_len - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pairs_are_deterministic_in_seed_and_never_trivial() {
        let a: Vec<_> = uniform_pairs(100, 7).take(500).collect();
        let b: Vec<_> = uniform_pairs(100, 7).take(500).collect();
        let c: Vec<_> = uniform_pairs(100, 8).take(500).collect();
        assert_eq!(a, b, "same seed, same pairs");
        assert_ne!(a, c, "another seed, other pairs");
        assert!(a
            .iter()
            .all(|&(s, t)| s != t && (0..100).contains(&s) && (0..100).contains(&t)));
    }

    #[test]
    fn a_longer_draw_extends_a_shorter_one() {
        // A run that lasts longer must see the same prefix of operations.
        let short: Vec<_> = uniform_pairs(1000, 3).take(10).collect();
        let long: Vec<_> = uniform_pairs(1000, 3).take(50).collect();
        assert_eq!(short[..], long[..10]);
    }

    #[test]
    fn zipf_trace_is_deterministic_and_skewed() {
        let a: Vec<_> = zipf_trace(64, 0.99, 9).take(4000).collect();
        let b: Vec<_> = zipf_trace(64, 0.99, 9).take(4000).collect();
        assert_eq!(a, b, "same seed, same trace");
        assert!(a.iter().all(|&r| r < 64));
        let count = |trace: &[usize], r: usize| trace.iter().filter(|&&x| x == r).count();
        let (hot, cold) = (count(&a, 0), count(&a, 63));
        assert!(
            hot > 8 * cold.max(1),
            "theta 0.99 favours rank 0: {hot} vs {cold}"
        );
        let u: Vec<_> = zipf_trace(64, 0.0, 9).take(4000).collect();
        assert!(count(&u, 0) < u.len() / 16, "theta 0 is uniform");
    }
}
