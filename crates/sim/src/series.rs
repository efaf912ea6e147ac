//! Time-series recorder used by experiment reports (BPT trajectories, batch-size
//! trajectories, global throughput…). Points are `(SimTime, f64)` in insertion
//! order; insertion order is expected to be time-ordered for windowed queries.

use crate::time::SimTime;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    pub points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Mean of all values (None if empty).
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Mean of values with timestamps in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.points {
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
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
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
        if buckets == 0 || self.points.is_empty() {
            return;
        }
        if self.points.len() <= buckets {
            out.extend_from_slice(&self.points);
            return;
        }
        let chunk = self.points.len().div_ceil(buckets);
        out.reserve(self.points.len().div_ceil(chunk));
        out.extend(self.points.chunks(chunk).map(|c| {
            let t = c[c.len() / 2].0;
            let v = c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64;
            (t, v)
        }));
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

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }
}
