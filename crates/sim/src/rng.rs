//! Deterministic random streams.
//!
//! Every stochastic component (per-node jitter, contention episodes, scheduler
//! pending times, dataset generation…) draws from its own *stream* derived from a
//! master seed and a stable stream identifier. Streams are independent, so adding
//! a new consumer never perturbs the draws seen by existing ones — a property the
//! reproducibility tests rely on.
//!
//! [`StdRng`] is the workspace's only generator: xoshiro256** seeded through
//! SplitMix64. Its streams are part of every golden fixture, so any change to
//! the arithmetic below fails the known-answer test in this module.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 finalizer: a strong 64-bit mixer used to derive stream seeds.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256**: small, fast and statistically strong for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Expand `seed` into the 256-bit state with four SplitMix64 steps
    /// (`mix64(seed + i·γ)` is SplitMix64's output number `i + 1`).
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = [0; 4];
        for (i, w) in s.iter_mut().enumerate() {
            *w = mix64(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        StdRng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A draw over the type's natural range (`[0, 1)` for `f64`).
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    /// A uniform draw from `lo..hi` or `lo..=hi`; panics on an empty range.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: impl SampleRange<T>) -> T {
        let (lo, hi, inclusive) = range.bounds();
        T::sample_range(self, lo, hi, inclusive)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.gen::<f64>() < p
    }

    /// Fisher–Yates, drawing each swap index from `0..=i`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = usize::sample_range(self, 0, i, true);
            xs.swap(i, j);
        }
    }
}

/// Types [`StdRng::gen`] can draw.
pub trait Standard {
    fn from_u64(x: u64) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn from_u64(x: u64) -> Self {
        x
    }
}

impl Standard for f64 {
    #[inline]
    fn from_u64(x: u64) -> Self {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`StdRng::gen_range`] can draw uniformly.
pub trait SampleUniform: Sized {
    fn sample_range(rng: &mut StdRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut StdRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "cannot sample empty range");
                let span = ((hi - lo) as u64).wrapping_add(inclusive as u64);
                if span == 0 {
                    // The inclusive full range of u64.
                    return rng.next_u64() as $t;
                }
                // Lemire's nearly-divisionless rejection method.
                let zone = span.wrapping_neg() % span;
                loop {
                    let m = (rng.next_u64() as u128) * (span as u128);
                    if (m as u64) >= zone {
                        return lo + (m >> 64) as $t;
                    }
                }
            }
        }
    )*};
}
uniform_int!(u32, u64, usize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut StdRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "cannot sample empty range");
                let u = f64::from_u64(rng.next_u64());
                let x = lo + ((hi - lo) as f64 * u) as $t;
                if !inclusive && x >= hi { lo } else { x.min(hi) }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Ranges [`StdRng::gen_range`] accepts: `(lo, hi, inclusive)`.
pub trait SampleRange<T> {
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    #[inline]
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

/// Derive a child seed from `(master, id)`.
#[inline]
pub fn derive_seed(master: u64, id: u64) -> u64 {
    mix64(master ^ mix64(id))
}

/// A pool of independent, reproducible random streams keyed by `u64` ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngPool {
    master: u64,
}

impl RngPool {
    pub fn new(master: u64) -> Self {
        RngPool { master }
    }

    pub fn master(&self) -> u64 {
        self.master
    }

    /// A fresh RNG for stream `id`. Calling twice with the same id yields
    /// identical streams.
    pub fn stream(&self, id: u64) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.master, id))
    }

    /// Convenience for two-level ids (e.g. `(component, node)`).
    pub fn stream2(&self, a: u64, b: u64) -> StdRng {
        self.stream(mix64(a).wrapping_add(b))
    }

    /// A deterministic Bernoulli draw addressed by `(stream, index)` without
    /// materializing an RNG — used for per-episode contention coin flips where
    /// the outcome must be queryable out of order.
    pub fn bernoulli_at(&self, stream: u64, index: u64, p: f64) -> bool {
        let h = mix64(derive_seed(self.master, stream) ^ mix64(index));
        // Map the top 53 bits to [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers: the streams every golden fixture and the benchmark
    /// record were produced with. Any edit to the generator, the seeding or
    /// the range/float/shuffle arithmetic fails here first.
    #[test]
    fn known_answers() {
        let first8 = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            std::array::from_fn::<u64, 8, _>(|_| r.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
                0xBBA5_AD4A_1F84_2E59,
                0xFFEF_8375_D9EB_CACA,
                0x6C16_0DEE_D2F5_4C98,
                0x8920_AD64_8FC3_0A3F,
            ]
        );
        assert_eq!(
            first8(u64::MAX),
            [
                0x8F55_20D5_2A7E_AD08,
                0xC476_A018_CAA1_802D,
                0x81DE_31C0_D260_469E,
                0xBF65_8D7E_065F_3C2F,
                0x9135_93FD_A1BC_A32A,
                0xBB53_5E93_941B_A525,
                0x5ECD_A415_C3C6_DFDE,
                0xC487_398F_C9DE_9AE2,
            ]
        );

        let mut r = StdRng::seed_from_u64(2024);
        let mut draws = |n: usize, f: &mut dyn FnMut(&mut StdRng) -> String| {
            (0..n).map(|_| f(&mut r)).collect::<Vec<_>>().join(" ")
        };
        let got = [
            draws(4, &mut |r| r.gen_range(0u32..100).to_string()),
            draws(4, &mut |r| r.gen_range(5u32..=9).to_string()),
            draws(4, &mut |r| r.gen_range(10u64..1_000_000).to_string()),
            draws(2, &mut |r| r.gen_range(7u64..=8).to_string()),
            draws(2, &mut |r| r.gen_range(0..=u64::MAX).to_string()),
            draws(4, &mut |r| r.gen_range(0usize..7).to_string()),
            draws(4, &mut |r| r.gen_range(1usize..=3).to_string()),
            draws(3, &mut |r| format!("{:?}", r.gen_range(0.05..0.75))),
            draws(2, &mut |r| format!("{:?}", r.gen_range(-2.0..=2.0))),
            draws(2, &mut |r| format!("{:?}", r.gen_range(-1.6f32..1.6))),
            draws(3, &mut |r| format!("{:?}", r.gen::<f64>())),
            draws(8, &mut |r| u8::from(r.gen_bool(0.3)).to_string()),
            draws(1, &mut |r| {
                let mut xs: Vec<u32> = (0..10).collect();
                r.shuffle(&mut xs);
                format!("{xs:?}")
            }),
            draws(1, &mut |r| format!("{:#X}", r.next_u64())),
        ];
        let want = [
            "5 78 7 15",
            "8 6 6 6",
            "556789 50677 720347 931730",
            "8 7",
            "14266888874185006351 3503152987054942469",
            "0 4 5 2",
            "2 1 1 2",
            "0.3860145549343607 0.051922256570233555 0.40161965788341897",
            "-1.0385767205603602 0.0427852823514252",
            "0.27252018 1.4828621",
            "0.5023711086556266 0.1313994547080395 0.12971755875124824",
            "0 0 1 0 1 0 0 0",
            "[6, 0, 5, 3, 9, 4, 7, 8, 2, 1]",
            "0x751F3039C5CFE2BB",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn streams_are_reproducible() {
        let pool = RngPool::new(42);
        let a: Vec<u64> = (0..8).map(|_| pool.stream(7).gen::<u64>()).collect();
        // Note: each `stream(7)` above returns a *fresh* RNG, so all draws equal.
        assert!(a.windows(2).all(|w| w[0] == w[1]));

        let mut r1 = pool.stream(7);
        let mut r2 = pool.stream(7);
        for _ in 0..100 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn streams_are_independent() {
        let pool = RngPool::new(42);
        let mut r1 = pool.stream(1);
        let mut r2 = pool.stream(2);
        let v1: Vec<u64> = (0..16).map(|_| r1.gen()).collect();
        let v2: Vec<u64> = (0..16).map(|_| r2.gen()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn bernoulli_at_respects_probability() {
        let pool = RngPool::new(7);
        let hits = (0..10_000).filter(|&i| pool.bernoulli_at(3, i, 0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        // Deterministic: asking twice gives the same answer.
        for i in 0..100 {
            assert_eq!(pool.bernoulli_at(3, i, 0.3), pool.bernoulli_at(3, i, 0.3));
        }
    }

    #[test]
    fn different_masters_differ() {
        let a = RngPool::new(1).stream(0).gen::<u64>();
        let b = RngPool::new(2).stream(0).gen::<u64>();
        assert_ne!(a, b);
    }
}
