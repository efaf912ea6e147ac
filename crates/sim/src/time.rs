//! Virtual time. Instants and durations are integer microseconds so that event
//! ordering is exact and runs are bit-for-bit reproducible (no float drift in the
//! clock itself; costs are computed in `f64` seconds and quantized once on entry).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since job start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const MICROS_PER_SEC: u64 = 1_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }
    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }
    #[inline]
    pub const fn from_minutes(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Convert non-negative seconds to microseconds, rounding to nearest.
/// Negative or NaN inputs clamp to zero: cost models must never produce negative
/// delays, and clamping keeps a misbehaving profile from corrupting the clock.
#[inline]
fn secs_to_micros(secs: f64) -> u64 {
    // NaN-safe: anything not strictly positive (including NaN) clamps to zero.
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    round_micros(secs * MICROS_PER_SEC as f64)
}

/// 2^52: below it every double has an ulp of at most 0.5, so truncating to an
/// integer and subtracting it back are both exact.
const INLINE_ROUND_LIMIT: f64 = (1u64 << 52) as f64;

/// Round a non-negative microsecond count to nearest, ties away from zero —
/// bit for bit `us.round()`, saturating at `u64::MAX`. Every simulated cost
/// lies below [`INLINE_ROUND_LIMIT`] and rounds inline, without the libm call.
#[inline]
fn round_micros(us: f64) -> u64 {
    if us < INLINE_ROUND_LIMIT {
        let i = us as i64;
        (i + i64::from(us - i as f64 >= 0.5)) as u64
    } else if us >= u64::MAX as f64 {
        u64::MAX
    } else {
        us.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_costs_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_is_saturating() {
        let a = SimTime::from_secs_f64(5.0);
        let b = SimTime::from_secs_f64(8.0);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    /// The libm-rounding conversion that `round_micros` replaced, kept as
    /// its oracle.
    fn libm_secs_to_micros(secs: f64) -> u64 {
        if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        let us = secs * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us.round() as u64
        }
    }

    #[test]
    fn inline_rounding_matches_libm_round() {
        let two52 = (1u64 << 52) as f64;
        // Microsecond counts: exact ties, the largest double below one half,
        // subnormals, and both sides of 2^52 (where the ulp reaches 1).
        let edges = [
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            two52 - 1.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 + 2.0,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
        ];
        let oracle = |us: f64| if us >= u64::MAX as f64 { u64::MAX } else { us.round() as u64 };
        for us in edges {
            assert_eq!(round_micros(us), oracle(us), "us {us:e}");
        }
        for seed in 0..64u64 {
            let mut rng = crate::rng::StdRng::seed_from_u64(seed);
            let mut micros = Vec::new();
            for _ in 0..1_000 {
                let k = rng.gen_range(0..1u64 << 52) as f64;
                micros.push(k + 0.5);
                micros.push(rng.gen::<f64>() * 10f64.powi(rng.gen_range(0..40u32) as i32 - 12));
                micros.push(f64::from_bits(rng.next_u64()).abs());
            }
            for us in micros {
                assert_eq!(round_micros(us), oracle(us), "seed {seed}: us {us:e}");
            }
        }
    }

    #[test]
    fn secs_to_micros_matches_libm_oracle() {
        let two52 = (1u64 << 52) as f64;
        let edges = [
            0.0,
            -0.0,
            -1.5,
            -1e-300,
            5e-324,
            0.5e-6,
            f64::from_bits(0.5e-6f64.to_bits() - 1),
            1.5e-6,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            (two52 - 0.5) / 1e6,
            two52 / 1e6,
            (two52 + 2.0) / 1e6,
        ];
        for secs in edges {
            assert_eq!(secs_to_micros(secs), libm_secs_to_micros(secs), "secs {secs:e}");
        }
        for seed in 0..64u64 {
            let mut rng = crate::rng::StdRng::seed_from_u64(seed);
            for _ in 0..1_000 {
                let secs =
                    (rng.gen::<f64>() - 0.25) * 10f64.powi(rng.gen_range(0..24u32) as i32 - 9);
                let bits = f64::from_bits(rng.next_u64());
                for secs in [secs, bits] {
                    assert_eq!(
                        secs_to_micros(secs),
                        libm_secs_to_micros(secs),
                        "seed {seed}: secs {secs:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_minutes(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_secs(3) * 4, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 4, SimDuration::from_secs(3));
    }
}
