//! Time-series recorder used by experiment reports (BPT trajectories, batch-size
//! trajectories, global throughput…). Points are `(SimTime, f64)` in insertion
//! order; insertion order is expected to be time-ordered for windowed queries.
//!
//! # Layout
//!
//! A series is one packed `Vec<u32>`, because every what-if answer holds
//! a whole report of them. Each point starts with a head word:
//!
//! - its low 31 bits hold the µs step from the previous point's instant
//!   (the first point steps from t = 0);
//! - its top bit is set when the value has the same bits as the previous
//!   point's (before the first point, +0.0's), and the head is then the
//!   whole point. Otherwise two words of value bits follow, low word first.
//!
//! A step that does not fit — a backward step, or one of 2³¹−1 µs
//! (~36 min) or more — is written as the escape head (all 31 step bits
//! set) followed by two words of the absolute instant in µs, low word
//! first, before any value words. A BPT point thus takes 12 B and a
//! repeated batch size 4 B, where a `(SimTime, f64)` pair takes 16 B.
//!
//! The struct also keeps the last instant and value bits, so
//! [`TimeSeries::push`] and [`TimeSeries::last`] never read the buffer.

use crate::time::SimTime;
use std::fmt;

/// Head-word flag: the point repeats the previous value's bits.
const REPEAT: u32 = 1 << 31;
/// Head-word step mask; a step of exactly this value is the escape head.
const ESCAPE: u32 = REPEAT - 1;

#[derive(Clone, Default)]
pub struct TimeSeries {
    words: Vec<u32>,
    /// Instant of the last point in µs (0 while empty).
    last_us: u64,
    /// Value bits of the last point (+0.0's while empty).
    last_bits: u64,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn push(&mut self, t: SimTime, v: f64) {
        let bits = v.to_bits();
        let flag = if bits == self.last_bits { REPEAT } else { 0 };
        // A backward step wraps to a huge one and takes the escape too.
        let step = t.0.wrapping_sub(self.last_us);
        if step < u64::from(ESCAPE) {
            let head = step as u32 | flag;
            if flag == REPEAT {
                self.words.push(head);
            } else {
                self.words.extend_from_slice(&[head, bits as u32, (bits >> 32) as u32]);
            }
        } else {
            self.push_escaped(t.0, bits, flag);
        }
        self.last_us = t.0;
        self.last_bits = bits;
    }

    #[cold]
    #[inline(never)]
    fn push_escaped(&mut self, us: u64, bits: u64, flag: u32) {
        self.words.extend_from_slice(&[ESCAPE | flag, us as u32, (us >> 32) as u32]);
        if flag == 0 {
            self.words.extend_from_slice(&[bits as u32, (bits >> 32) as u32]);
        }
    }

    /// The points in insertion order. O(1) per point; the series has no
    /// random access.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        Points { words: self.words.iter(), us: 0, bits: 0 }
    }

    /// Number of points. Walks the series.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn last(&self) -> Option<(SimTime, f64)> {
        (!self.is_empty()).then(|| (SimTime(self.last_us), f64::from_bits(self.last_bits)))
    }

    /// Heap bytes the packed buffer holds (its capacity).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
    }

    /// Mean of all values (None if empty).
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.iter().map(|(_, v)| v).sum::<f64>() / self.len() as f64)
    }

    /// Mean of values with timestamps in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        self.iter().map(|(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    pub fn max(&self) -> Option<f64> {
        self.iter().map(|(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Downsample to at most `buckets` points by averaging consecutive runs —
    /// used when printing figure data.
    pub fn downsample(&self, buckets: usize) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        self.downsample_into(buckets, &mut out);
        out
    }

    /// Allocation-reusing [`TimeSeries::downsample`]: clears `out` and fills
    /// it, so a caller printing many series can recycle one buffer.
    pub fn downsample_into(&self, buckets: usize, out: &mut Vec<(SimTime, f64)>) {
        out.clear();
        let n = self.len();
        if buckets == 0 || n == 0 {
            return;
        }
        if n <= buckets {
            out.extend(self.iter());
            return;
        }
        let chunk = n.div_ceil(buckets);
        out.reserve(n.div_ceil(chunk));
        let mut points = self.iter();
        for start in (0..n).step_by(chunk) {
            // Each bucket: the middle point's instant, the run's mean.
            let len = chunk.min(n - start);
            let mut t = SimTime::ZERO;
            let sum = points
                .by_ref()
                .take(len)
                .enumerate()
                .map(|(i, (ti, v))| {
                    if i == len / 2 {
                        t = ti;
                    }
                    v
                })
                .sum::<f64>();
            out.push((t, sum / len as f64));
        }
    }
}

/// Decoder over a packed buffer (see the module docs).
struct Points<'a> {
    words: std::slice::Iter<'a, u32>,
    us: u64,
    bits: u64,
}

impl Points<'_> {
    /// The two words after a head, low word first.
    fn pair(&mut self) -> u64 {
        let mut word = || u64::from(*self.words.next().expect("a head's words follow it"));
        word() | word() << 32
    }
}

impl Iterator for Points<'_> {
    type Item = (SimTime, f64);

    #[inline]
    fn next(&mut self) -> Option<(SimTime, f64)> {
        let head = *self.words.next()?;
        let step = head & ESCAPE;
        self.us = if step == ESCAPE { self.pair() } else { self.us + u64::from(step) };
        if head & REPEAT == 0 {
            self.bits = self.pair();
        }
        Some((SimTime(self.us), f64::from_bits(self.bits)))
    }
}

/// Renders exactly what the derived impl of the unpacked
/// `TimeSeries { points: Vec<(SimTime, f64)> }` rendered, pretty mode
/// included: report dumps are golden fixtures.
impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(&'a TimeSeries);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("TimeSeries").field("points", &List(self)).finish()
    }
}

/// Point-wise, with `f64` `==` on the values (so 0.0 == −0.0 and NaN ≠
/// NaN), as the unpacked `Vec<(SimTime, f64)>` compared.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Mean and sample standard deviation of a slice (used for Table III's `±σ`).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in vals {
            s.push(SimTime::from_secs_f64(t), v);
        }
        s
    }

    #[test]
    fn mean_and_bounds() {
        let s = series(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(6.0));
        assert!(TimeSeries::new().mean().is_none());
    }

    #[test]
    fn windowed_mean() {
        let s = series(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]);
        assert_eq!(s.mean_in(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(4.0)), Some(25.0));
        assert_eq!(s.mean_in(SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(20.0)), None);
    }

    #[test]
    fn downsample_preserves_mean_roughly() {
        let mut s = TimeSeries::new();
        for i in 0..1000 {
            s.push(SimTime::from_secs_f64(i as f64), (i % 10) as f64);
        }
        let d = s.downsample(10);
        assert!(d.len() <= 10);
        let dm = d.iter().map(|&(_, v)| v).sum::<f64>() / d.len() as f64;
        assert!((dm - 4.5).abs() < 0.5);
        assert!(s.downsample(0).is_empty());
        assert_eq!(s.downsample(5000).len(), 1000);
    }

    /// The unpacked series this one replaced: the oracle for
    /// `packed_series_matches_the_unpacked_oracle`.
    mod unpacked {
        use crate::time::SimTime;

        #[derive(Debug, PartialEq)]
        pub struct TimeSeries {
            pub points: Vec<(SimTime, f64)>,
        }

        impl TimeSeries {
            pub fn mean(&self) -> Option<f64> {
                if self.points.is_empty() {
                    return None;
                }
                Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
            }

            pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
                let (mut sum, mut n) = (0.0, 0usize);
                for &(t, v) in &self.points {
                    if t >= from && t < to {
                        sum += v;
                        n += 1;
                    }
                }
                (n > 0).then(|| sum / n as f64)
            }

            pub fn min(&self) -> Option<f64> {
                self.points
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
            }

            pub fn max(&self) -> Option<f64> {
                self.points
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
            }

            pub fn downsample(&self, buckets: usize) -> Vec<(SimTime, f64)> {
                if buckets == 0 || self.points.is_empty() {
                    return Vec::new();
                }
                if self.points.len() <= buckets {
                    return self.points.clone();
                }
                let chunk = self.points.len().div_ceil(buckets);
                let mean =
                    |c: &[(SimTime, f64)]| c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64;
                self.points.chunks(chunk).map(|c| (c[c.len() / 2].0, mean(c))).collect()
            }
        }
    }

    /// A seeded random series: steps of every size class (zero, small,
    /// just under and at the escape, ≥ 2³¹ µs gaps, backward, up to
    /// `SimTime::MAX`) and values with runs of repeats, ±0.0 and NaN bit
    /// patterns. Empty and one-point series are drawn too.
    fn random_points(rng: &mut crate::rng::StdRng) -> Vec<(SimTime, f64)> {
        const ODD: [u64; 7] = [
            0x0000_0000_0000_0000, // +0.0
            0x8000_0000_0000_0000, // -0.0
            0x7ff8_0000_0000_0000, // quiet NaN
            0x7ff0_0000_0000_0001, // signalling NaN
            0xfff8_dead_beef_0001, // negative NaN with a payload
            0x7ff0_0000_0000_0000, // +inf
            0x0000_0000_0000_0001, // smallest subnormal
        ];
        let n = match rng.gen_range(0..8u32) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..120usize),
        };
        let (mut t, mut bits) = (0u64, 0u64);
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            let esc = u64::from(ESCAPE);
            t = match rng.gen_range(0..12u32) {
                0 => t,
                1 => t.saturating_sub(rng.gen_range(1..=1_000_000u64)),
                2 => t.saturating_add(esc - 1),
                3 => t.saturating_add(esc),
                4 => t.saturating_add(rng.gen_range(esc..=1u64 << 40)),
                5 => rng.gen_range(0..=u64::MAX),
                6 => u64::MAX,
                _ => t.saturating_add(rng.gen_range(1..=5_000_000u64)),
            };
            bits = match rng.gen_range(0..6u32) {
                0 | 1 => bits,
                2 => ODD[rng.gen_range(0..ODD.len())],
                3 => rng.next_u64(),
                _ => (rng.gen_range(0.0..100.0f64)).to_bits(),
            };
            points.push((SimTime(t), f64::from_bits(bits)));
        }
        points
    }

    #[test]
    fn packed_series_matches_the_unpacked_oracle() {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let pairs =
            |xs: &[(SimTime, f64)]| xs.iter().map(|&(t, v)| (t, v.to_bits())).collect::<Vec<_>>();
        let pack = |points: &[(SimTime, f64)]| {
            let mut s = TimeSeries::new();
            for &(t, v) in points {
                s.push(t, v);
            }
            s
        };
        let mut rng = crate::rng::StdRng::seed_from_u64(0x5e7_1e5);
        let mut prev: Option<(TimeSeries, unpacked::TimeSeries)> = None;
        for case in 0..512 {
            let points = random_points(&mut rng);
            let s = pack(&points);
            let o = unpacked::TimeSeries { points };
            assert_eq!(
                pairs(&s.iter().collect::<Vec<_>>()),
                pairs(&o.points),
                "case {case} points"
            );
            assert_eq!(
                s.last().map(|(t, v)| (t, v.to_bits())),
                o.points.last().map(|&(t, v)| (t, v.to_bits())),
                "case {case} last"
            );
            assert_eq!(
                (s.len(), s.is_empty()),
                (o.points.len(), o.points.is_empty()),
                "case {case} len"
            );
            assert_eq!(bits(s.mean()), bits(o.mean()), "case {case} mean");
            assert_eq!(bits(s.min()), bits(o.min()), "case {case} min");
            assert_eq!(bits(s.max()), bits(o.max()), "case {case} max");
            for _ in 0..4 {
                let mut at = || {
                    o.points
                        .get(rng.gen_range(0..o.points.len().max(1)))
                        .map_or(SimTime::ZERO, |p| p.0)
                };
                let (from, to) = (at(), at());
                assert_eq!(
                    bits(s.mean_in(from, to)),
                    bits(o.mean_in(from, to)),
                    "case {case} mean_in"
                );
            }
            let n = o.points.len();
            for buckets in [0, 1, 2, 3, 7, n.saturating_sub(1), n, n + 1, rng.gen_range(1..200)] {
                assert_eq!(
                    pairs(&s.downsample(buckets)),
                    pairs(&o.downsample(buckets)),
                    "case {case} downsample {buckets}"
                );
            }
            assert_eq!(format!("{s:?}"), format!("{o:?}"), "case {case} debug");
            assert_eq!(format!("{s:#?}"), format!("{o:#?}"), "case {case} pretty debug");
            assert_eq!(s == s.clone(), o == o, "case {case} eq self");
            if let Some((ps, po)) = &prev {
                assert_eq!(&s == ps, &o == po, "case {case} eq previous");
            }
            // A copy with one value's zero sign flipped (equal under `==`
            // when the value is ±0.0) and a copy one point short.
            if n > 0 {
                let mut flipped = o.points.clone();
                let i = rng.gen_range(0..n);
                flipped[i].1 = f64::from_bits(flipped[i].1.to_bits() ^ (1 << 63));
                assert_eq!(s == pack(&flipped), o.points == flipped, "case {case} eq flipped");
                assert_eq!(
                    s == pack(&o.points[..n - 1]),
                    o.points[..] == o.points[..n - 1],
                    "case {case} eq short"
                );
            }
            prev = Some((s, o));
        }
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }
}
