//! Gradient accumulation (paper §VI-B, citing Deep Gradient Compression): the
//! per-device batch is split into `C` sequential micro-batches whose gradients
//! are summed locally before one synchronization. With mean-normalized
//! micro-batch gradients, averaging the `C` accumulated gradients reproduces the
//! gradient of the full batch (up to float association) — that is the invariant
//! AntDT-DD relies on when it trades batch size against accumulation count.

#[derive(Debug, Clone, PartialEq)]
pub struct GradAccumulator {
    buf: Vec<f32>,
    micro_batches: u32,
    samples: u64,
}

impl GradAccumulator {
    pub fn new(n_params: usize) -> Self {
        GradAccumulator { buf: vec![0.0; n_params], micro_batches: 0, samples: 0 }
    }

    pub fn n_params(&self) -> usize {
        self.buf.len()
    }

    pub fn micro_batches(&self) -> u32 {
        self.micro_batches
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// A zeroed scratch gradient to pass to `Model::grad_batch`.
    pub fn scratch(&self) -> Vec<f32> {
        vec![0.0; self.buf.len()]
    }

    /// Add one micro-batch's *mean* gradient, weighted by its sample count so
    /// that unevenly sized micro-batches still average correctly.
    pub fn add(&mut self, mean_grad: &[f32], batch_samples: u64) {
        debug_assert_eq!(mean_grad.len(), self.buf.len());
        let w = batch_samples as f32;
        for (b, g) in self.buf.iter_mut().zip(mean_grad) {
            *b += g * w;
        }
        self.micro_batches += 1;
        self.samples += batch_samples;
    }

    /// Drain into the sample-weighted mean gradient over everything added since
    /// the last take. Resets the accumulator.
    pub fn take_mean(&mut self) -> Vec<f32> {
        let n = self.samples.max(1) as f32;
        let out: Vec<f32> = self.buf.iter().map(|b| b / n).collect();
        self.buf.iter_mut().for_each(|b| *b = 0.0);
        self.micro_batches = 0;
        self.samples = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::model::{LogisticRegression, Model};

    #[test]
    fn accumulated_mean_equals_full_batch_gradient() {
        let mut d = Dataset::new(4);
        for i in 0..32u32 {
            d.push(&[(i % 4, 1.0 + (i % 3) as f32)], (i % 2) as f32);
        }
        let mut m = LogisticRegression::new(4);
        m.params_mut().copy_from_slice(&[0.3, -0.1, 0.2, 0.05, 0.0]);

        let idx: Vec<u64> = (0..32).collect();
        let mut full = vec![0.0f32; m.n_params()];
        m.grad_batch(&d, &idx, &mut full);

        // Accumulate in 4 uneven micro-batches: 10 + 10 + 10 + 2.
        let mut acc = GradAccumulator::new(m.n_params());
        for chunk in [&idx[0..10], &idx[10..20], &idx[20..30], &idx[30..32]] {
            let mut g = acc.scratch();
            m.grad_batch(&d, chunk, &mut g);
            acc.add(&g, chunk.len() as u64);
        }
        assert_eq!(acc.micro_batches(), 4);
        let mean = acc.take_mean();
        for (a, b) in mean.iter().zip(&full) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        // Accumulator reset.
        assert_eq!(acc.micro_batches(), 0);
        assert_eq!(acc.samples(), 0);
        assert!(acc.take_mean().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn take_mean_on_empty_is_zero() {
        let mut acc = GradAccumulator::new(3);
        assert_eq!(acc.take_mean(), vec![0.0, 0.0, 0.0]);
    }
}
