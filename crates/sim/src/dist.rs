//! Small distribution toolkit (Box–Muller normal, log-normal, exponential,
//! uniform, point mass), so the workspace needs no distributions crate. All
//! sampling goes through [`StdRng`].

use crate::rng::StdRng;

/// A univariate distribution over non-negative reals, used for jitter, pending
/// times, init times and similar cost-model quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Point { value: f64 },
    /// Uniform over `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Normal(mean, std), truncated below at zero.
    Normal { mean: f64, std: f64 },
    /// LogNormal with the *underlying* normal's mu/sigma.
    LogNormal { mu: f64, sigma: f64 },
    /// Exponential with the given mean (not rate).
    Exponential { mean: f64 },
}

impl Dist {
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Dist::Point { value } => value,
            Dist::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            Dist::Normal { mean, std } => (mean + std * standard_normal(rng)).max(0.0),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
        }
    }

    /// The distribution's mean (used by closed-form expectations in tests).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Point { value } => value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            // Truncation at zero is ignored here; callers keep std << mean.
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            Dist::Exponential { mean } => mean,
        }
    }
}

/// One draw from N(0,1) via Box–Muller, single value. This is on the hot
/// path: every jittered worker iteration start draws one through
/// [`unit_mean_jitter`] (libm's `ln`, `sqrt` and `cos`, then the jitter's
/// `exp`). The pair's sibling is discarded, and caching it for the next
/// call is not an option: that call would then consume no uniforms, which
/// shifts every later draw of the stream and so every seeded result (the
/// golden traces and the benchmark records pin them).
#[inline]
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multiplicative log-normal jitter with unit mean: `exp(sigma*Z - sigma^2/2)`.
/// `sigma = 0` returns exactly 1.0.
#[inline]
pub fn unit_mean_jitter(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    (sigma * standard_normal(rng) - 0.5 * sigma * sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: Dist, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(123);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn point_mass() {
        assert_eq!(Dist::Point { value: 3.5 }.sample(&mut StdRng::seed_from_u64(0)), 3.5);
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((sample_mean(d, 20_000) - 3.0).abs() < 0.02);
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let d = Dist::Uniform { lo: 5.0, hi: 5.0 };
        assert_eq!(d.sample(&mut StdRng::seed_from_u64(0)), 5.0);
    }

    #[test]
    fn normal_mean_and_nonnegativity() {
        let d = Dist::Normal { mean: 10.0, std: 2.0 };
        let m = sample_mean(d, 20_000);
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        let d2 = Dist::Normal { mean: 0.1, std: 5.0 };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(d2.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let d = Dist::Exponential { mean: 4.0 };
        let m = sample_mean(d, 50_000);
        assert!((m - 4.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let d = Dist::LogNormal { mu: 0.0, sigma: 0.5 };
        let m = sample_mean(d, 100_000);
        assert!((m - d.mean()).abs() < 0.03, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn unit_jitter_has_unit_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| unit_mean_jitter(&mut rng, 0.2)).sum::<f64>() / n as f64;
        assert!((m - 1.0).abs() < 0.01, "mean {m}");
        assert_eq!(unit_mean_jitter(&mut rng, 0.0), 1.0);
    }
}
