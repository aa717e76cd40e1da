//! A small seeded generator (SplitMix64) so every input the benchmark
//! builds is a pure function of `--seed`.

/// SplitMix64: 64-bit state, full period, good enough mixing for
/// workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams
    /// per thread or purpose from one seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Skewed towards the top of `[0, bound)`: `bound - 1 - ⌊bound·u^k⌋`,
    /// so recent items (high indices) are favoured more as `k` grows.
    pub fn recent(&mut self, bound: u64, k: i32) -> u64 {
        let back = (bound as f64 * self.unit().powi(k)) as u64;
        bound - 1 - back.min(bound - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|v| *v == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
    }

    #[test]
    fn recent_stays_in_range_and_favours_the_top() {
        let mut r = Rng::new(1, 0);
        let draws: Vec<u64> = (0..10_000).map(|_| r.recent(100, 3)).collect();
        assert!(draws.iter().all(|d| *d < 100));
        let top = draws.iter().filter(|d| **d >= 50).count();
        assert!(top > 8_000, "top half drew {top}");
    }
}
