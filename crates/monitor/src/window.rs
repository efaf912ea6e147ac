//! Per-node sliding window over `(time, BPT, batch)` observations. One deque
//! spans the *longest* configured window; shorter trailing means are computed on
//! demand, so `L_trans` and `L_per` share storage.

use antdt_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BptSample {
    pub t: SimTime,
    pub bpt_secs: f64,
    pub batch: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct BptWindow {
    span: SimDuration,
    samples: VecDeque<BptSample>,
}

impl BptWindow {
    pub fn new(span: SimDuration) -> Self {
        BptWindow { span, samples: VecDeque::new() }
    }

    pub fn span(&self) -> SimDuration {
        self.span
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Record one observation at time `t` (non-decreasing), evicting samples
    /// older than the retention span.
    pub fn push(&mut self, t: SimTime, bpt_secs: f64, batch: u64) {
        debug_assert!(
            self.samples.back().is_none_or(|s| s.t <= t),
            "observations must arrive in time order"
        );
        self.samples.push_back(BptSample { t, bpt_secs, batch });
        let cutoff = t - self.span;
        while let Some(front) = self.samples.front() {
            if front.t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Drop everything (used when a node restarts: its old identity's BPTs must
    /// not poison the fresh node's statistics).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Mean BPT over the trailing `span` ending at `now` — `T̄ᵢ` in the paper.
    pub fn mean_bpt(&self, now: SimTime, span: SimDuration) -> Option<f64> {
        let from = now - span;
        let mut sum = 0.0;
        let mut n = 0u32;
        for s in self.samples.iter().rev() {
            if s.t > now {
                continue;
            }
            if s.t < from {
                break;
            }
            sum += s.bpt_secs;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Mean throughput `vᵢ = mean(Bᵢ / Tᵢ)` over the trailing window (§VI-A3).
    pub fn mean_throughput(&self, now: SimTime, span: SimDuration) -> Option<f64> {
        let from = now - span;
        let mut sum = 0.0;
        let mut n = 0u32;
        for s in self.samples.iter().rev() {
            if s.t > now {
                continue;
            }
            if s.t < from {
                break;
            }
            if s.bpt_secs > 0.0 {
                sum += s.batch as f64 / s.bpt_secs;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Most recent batch size, if any.
    pub fn last_batch(&self) -> Option<u64> {
        self.samples.back().map(|s| s.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn mean_bpt_over_trailing_span() {
        let mut w = BptWindow::new(SimDuration::from_secs(100));
        w.push(t(10.0), 2.0, 100);
        w.push(t(20.0), 4.0, 100);
        w.push(t(30.0), 6.0, 100);
        assert_eq!(w.mean_bpt(t(30.0), SimDuration::from_secs(100)), Some(4.0));
        // Short trailing window picks only the last two samples.
        assert_eq!(w.mean_bpt(t(30.0), SimDuration::from_secs(15)), Some(5.0));
        assert_eq!(w.mean_bpt(t(200.0), SimDuration::from_secs(10)), None);
    }

    #[test]
    fn eviction_respects_retention_span() {
        let mut w = BptWindow::new(SimDuration::from_secs(50));
        for i in 0..20 {
            w.push(t(i as f64 * 10.0), 1.0, 10);
        }
        // Retention: samples within [190-50, 190] => t in {140..190}: 6 samples.
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn throughput_is_batch_over_bpt() {
        let mut w = BptWindow::new(SimDuration::from_secs(100));
        w.push(t(1.0), 2.0, 200); // 100 samples/s
        w.push(t(2.0), 4.0, 200); // 50 samples/s
        let v = w.mean_throughput(t(2.0), SimDuration::from_secs(100)).unwrap();
        assert!((v - 75.0).abs() < 1e-9);
        assert_eq!(w.last_batch(), Some(200));
    }

    #[test]
    fn zero_bpt_samples_are_skipped_in_throughput() {
        let mut w = BptWindow::new(SimDuration::from_secs(10));
        w.push(t(1.0), 0.0, 100);
        assert_eq!(w.mean_throughput(t(1.0), SimDuration::from_secs(10)), None);
    }

    #[test]
    fn empty_window_answers_none() {
        let w = BptWindow::new(SimDuration::from_minutes(5));
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.mean_bpt(t(100.0), SimDuration::from_minutes(5)), None);
        assert_eq!(w.mean_throughput(t(100.0), SimDuration::from_minutes(5)), None);
        assert_eq!(w.last_batch(), None);
    }

    #[test]
    fn single_sample_window() {
        let mut w = BptWindow::new(SimDuration::from_minutes(10));
        w.push(t(30.0), 2.5, 500);
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean_bpt(t(30.0), SimDuration::from_minutes(5)), Some(2.5));
        let v = w.mean_throughput(t(30.0), SimDuration::from_minutes(5)).unwrap();
        assert!((v - 200.0).abs() < 1e-9);
        assert_eq!(w.last_batch(), Some(500));
        // A query window that ends before the sample sees nothing.
        assert_eq!(w.mean_bpt(t(20.0), SimDuration::from_minutes(5)), None);
    }

    #[test]
    fn sample_exactly_at_the_eviction_boundary_is_retained() {
        // Retention eviction drops samples with `t < now - span` strictly: a
        // sample exactly `span` old (the L_per boundary) must survive.
        let span = SimDuration::from_minutes(10);
        let mut w = BptWindow::new(span);
        w.push(t(0.0), 1.0, 100);
        w.push(t(600.0), 3.0, 100); // t(0) is exactly at the cutoff: retained
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean_bpt(t(600.0), span), Some(2.0));
        // One microsecond past the boundary: evicted.
        w.push(t(600.0) + SimDuration::from_micros(1), 5.0, 100);
        assert_eq!(w.len(), 2);
        assert_eq!(w.samples.front().unwrap().t, t(600.0));
    }

    #[test]
    fn query_window_boundary_is_inclusive() {
        // `mean_bpt` keeps samples with `t >= now - span` (the L_trans boundary
        // sample participates) and ignores samples after `now`.
        let mut w = BptWindow::new(SimDuration::from_minutes(10));
        w.push(t(100.0), 2.0, 100);
        w.push(t(400.0), 4.0, 100);
        // L_trans = 5 min ending at 400: from = 100, boundary sample included.
        assert_eq!(w.mean_bpt(t(400.0), SimDuration::from_minutes(5)), Some(3.0));
        // Querying as of t=250 ignores the later sample.
        assert_eq!(w.mean_bpt(t(250.0), SimDuration::from_minutes(5)), Some(2.0));
    }

    #[test]
    fn clear_resets_state() {
        let mut w = BptWindow::new(SimDuration::from_secs(10));
        w.push(t(1.0), 1.0, 1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean_bpt(t(1.0), SimDuration::from_secs(10)), None);
    }
}
