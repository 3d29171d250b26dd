//! Deterministic randomness.
//!
//! All stochastic behaviour in the simulation (payload bytes, request mixes,
//! jitter) flows through a single seeded generator so that every experiment
//! is reproducible. The paper repeats each measurement five times; we do the
//! same with five derived seeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator with simulation-flavoured helpers.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Returns the seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named subsystem.
    ///
    /// Mixing the label in keeps subsystems decoupled: adding draws in one
    /// does not perturb another.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::new(h)
    }

    /// Derives an independent generator for the `idx`-th instance of a
    /// named subsystem (e.g. one stream per supervised vswitch), so that
    /// draws for one instance never perturb another.
    pub fn derive_indexed(&self, label: &str, idx: u64) -> DetRng {
        let mut h = self.derive(label).seed;
        // One more FNV round folds the index in.
        for b in idx.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::new(h)
    }

    /// Uniform integer in `[0, bound)`. A bound of zero yields zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive); swaps if reversed.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Fills a byte slice with random data.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill(buf);
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.inner.gen_range(0..len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = DetRng::new(7);
        let mut x1 = root.derive("tcp");
        let mut x2 = root.derive("tcp");
        let mut y = root.derive("nic");
        assert_eq!(x1.below(1 << 40), x2.below(1 << 40));
        assert_ne!(root.derive("tcp").seed(), y.derive("tcp").seed());
        let _ = y.unit();
    }

    #[test]
    fn derive_indexed_separates_instances() {
        let root = DetRng::new(13);
        let mut a0 = root.derive_indexed("supervisor", 0);
        let mut a0b = root.derive_indexed("supervisor", 0);
        let mut a1 = root.derive_indexed("supervisor", 1);
        assert_eq!(a0.below(1 << 40), a0b.below(1 << 40));
        assert_ne!(
            root.derive_indexed("supervisor", 0).seed(),
            a1.seed(),
            "indices must not collide"
        );
        assert_ne!(
            root.derive_indexed("faults", 0).seed(),
            root.derive_indexed("supervisor", 0).seed(),
            "labels must not collide"
        );
        let _ = a1.unit();
    }

    #[test]
    fn bounds_are_respected() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.between(10, 20);
            assert!((10..=20).contains(&v));
            assert!(r.below(5) < 5);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(r.below(0), 0);
        let mut twin = r.clone();
        assert_eq!(r.between(9, 3), twin.between(9, 3));
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(7.0));
    }
}
