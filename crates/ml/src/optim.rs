//! The optimizer. The parameter server and the ring both apply one
//! whole-vector SGD step per aggregated (or, under ASP, per pushed) gradient.

/// Plain SGD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// `params -= lr · grad`.
    pub fn step(&self, params: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(params.len(), grad.len());
        for (p, g) in params.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_full_step() {
        let mut p = vec![1.0f32, 2.0, 3.0];
        let g = vec![0.5f32, -0.5, 1.0];
        Sgd::new(0.1).step(&mut p, &g);
        assert_eq!(p, vec![0.95, 2.05, 2.9]);
    }
}
