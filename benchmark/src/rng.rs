//! The harness's own randomness: SplitMix64 and a Zipf sampler.
//!
//! Everything the benchmark feeds the service is drawn from here, so a
//! workload is a pure function of `--seed` and never depends on which
//! generator a crate under test happens to ship.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, one multiply-
/// xorshift round per draw.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is far below 2^32 here, so
    /// the bias is below 2^-32).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for one purpose (`tag`), so that drawing more
    /// faults never shifts which queries get generated.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup; `s = 0` is uniform.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Analytic probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn top_mass(&self, k: usize) -> f64 {
        self.cdf[k.min(self.cdf.len()) - 1]
    }

    /// `k` distinct ranks, in draw order (rejection on repeats).
    pub fn sample_distinct(&self, rng: &mut SplitMix64, k: usize) -> Vec<u32> {
        assert!(k <= self.cdf.len(), "cannot draw more ranks than exist");
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k {
            let r = self.sample(rng) as u32;
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the public-domain reference.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipf_top12_mass_matches_analytic_at_s_1_2() {
        let z = Zipf::new(400, 1.2);
        let mut rng = SplitMix64::new(7);
        let draws = 400_000;
        let top = (0..draws).filter(|_| z.sample(&mut rng) < 12).count();
        let measured = top as f64 / draws as f64;
        let analytic = z.top_mass(12);
        assert!(
            (measured - analytic).abs() / analytic < 0.01,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn uniform_is_zipf_zero_and_forks_are_independent() {
        let z = Zipf::new(10, 0.0);
        assert!((z.top_mass(3) - 0.3).abs() < 1e-12);
        let base = SplitMix64::new(1);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        let picks = z.sample_distinct(&mut base.fork(3), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }
}
