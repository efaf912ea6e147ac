//! Models over sparse inputs: logistic regression and a second-order
//! factorization machine (the stand-in for XDeepFM on CTR data — same family of
//! explicit feature-interaction models, trained with log loss).
//!
//! Parameters live in one flat `Vec<f32>`, the layout a parameter server
//! range-partitions without knowing the model structure.

use crate::data::{Dataset, Row};
use crate::lanes::F32x4;

#[inline]
fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// One example's log likelihood for predicted probability `p`, clamped away
/// from 0 and 1 (its log loss is the negation).
#[inline]
fn log_likelihood(p: f32, label: f32) -> f64 {
    let pc = p.clamp(1e-7, 1.0 - 1e-7) as f64;
    if label > 0.5 {
        pc.ln()
    } else {
        (1.0 - pc).ln()
    }
}

/// A differentiable binary classifier with a flat parameter vector.
pub trait Model {
    /// Total number of parameters.
    fn n_params(&self) -> usize;
    fn params(&self) -> &[f32];
    fn params_mut(&mut self) -> &mut [f32];

    /// Predicted probability of the positive class.
    fn predict(&self, x: Row<'_>) -> f32;

    /// Accumulate the *mean* log-loss gradient of `idx` (indices into `data`)
    /// into `grad` (same layout as `params`; caller zeroes). Computes no loss:
    /// that is [`Self::loss_batch`].
    fn grad_batch(&self, data: &Dataset, idx: &[u64], grad: &mut [f32]);

    /// Mean log loss over `idx` without touching gradients.
    fn loss_batch(&self, data: &Dataset, idx: &[u64]) -> f64 {
        let mut total = 0.0f64;
        for &i in idx {
            let ex = data.get(i);
            total -= log_likelihood(self.predict(ex), ex.label);
        }
        if idx.is_empty() {
            0.0
        } else {
            total / idx.len() as f64
        }
    }

    /// Scores for a whole dataset (for AUC evaluation).
    fn scores(&self, data: &Dataset) -> Vec<f32> {
        data.iter().map(|e| self.predict(e)).collect()
    }
}

/// Plain logistic regression: params = `[w₀ … w_{n-1}, b]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    pub n_features: u32,
    params: Vec<f32>,
}

impl LogisticRegression {
    pub fn new(n_features: u32) -> Self {
        LogisticRegression { n_features, params: vec![0.0; n_features as usize + 1] }
    }

    #[inline]
    fn raw(&self, x: Row<'_>) -> f32 {
        let b = self.params[self.n_features as usize];
        let mut z = b;
        for &(i, v) in x.feats {
            z += self.params[i as usize] * v;
        }
        z
    }
}

impl Model for LogisticRegression {
    fn n_params(&self) -> usize {
        self.params.len()
    }
    fn params(&self) -> &[f32] {
        &self.params
    }
    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn predict(&self, x: Row<'_>) -> f32 {
        sigmoid(self.raw(x))
    }

    fn grad_batch(&self, data: &Dataset, idx: &[u64], grad: &mut [f32]) {
        debug_assert_eq!(grad.len(), self.params.len());
        if idx.is_empty() {
            return;
        }
        let scale = 1.0 / idx.len() as f32;
        let bias_at = self.n_features as usize;
        for &i in idx {
            let ex = data.get(i);
            let p = sigmoid(self.raw(ex));
            let err = (p - ex.label) * scale;
            for &(j, v) in ex.feats {
                grad[j as usize] += err * v;
            }
            grad[bias_at] += err;
        }
    }
}

/// Rows whose forward passes the factorization machine runs in lockstep.
const BLOCK: usize = 4;

/// Per-factor sums of a block of rows: `sums[f][r]` is row `r`'s `s_f`.
type BlockSums = [[f32; BLOCK]];

/// `a.map(f)` over a block, always inlined: in the forward's hot loop an
/// outlined `array::map` call costs more than the work it does.
#[inline(always)]
fn each<T: Copy, U>(a: [T; BLOCK], f: impl Fn(T) -> U) -> [U; BLOCK] {
    [f(a[0]), f(a[1]), f(a[2]), f(a[3])]
}

/// Second-order factorization machine:
/// `score = w₀ + Σᵢ wᵢxᵢ + ½ Σ_f [(Σᵢ v_{if} xᵢ)² − Σᵢ v_{if}² xᵢ²]`.
///
/// Params layout: `[w (n), v (n×k) row-major, w₀]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizationMachine {
    pub n_features: u32,
    pub k: usize,
    params: Vec<f32>,
}

impl FactorizationMachine {
    /// `init_scale` seeds the latent factors with small deterministic values
    /// (a fixed pseudo-random pattern so runs are reproducible without an RNG
    /// dependency here; pass 0.0 for an all-zeros FM ≡ logistic regression).
    pub fn new(n_features: u32, k: usize, init_scale: f32) -> Self {
        let n = n_features as usize;
        let mut params = vec![0.0f32; n + n * k + 1];
        if init_scale != 0.0 {
            // Deterministic low-discrepancy init for the latent block.
            let mut state: u64 = 0x243F_6A88_85A3_08D3;
            for p in params[n..n + n * k].iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((state >> 11) as f64 / (1u64 << 53) as f64) as f32;
                *p = (u - 0.5) * 2.0 * init_scale;
            }
        }
        FactorizationMachine { n_features, k, params }
    }

    /// The parameter vector split into `(w, v, w₀)`.
    #[inline]
    fn split(&self) -> (&[f32], &[f32], f32) {
        let n = self.n_features as usize;
        let (w, rest) = self.params.split_at(n);
        let (v, w0) = rest.split_at(n * self.k);
        (w, v, w0[0])
    }

    /// Raw scores of up to [`BLOCK`] rows (unused slots are empty rows),
    /// leaving each row's factor sums `s_f = Σᵢ v_{if} xᵢ` in `sums`.
    ///
    /// The rows advance through their features together, row `r` in lane
    /// `r` of one [`F32x4`]: per feature position, each row's latent
    /// factors load four at a time and transpose into factor-major lanes
    /// (the `k % 4` factors after the last full four are set lane by lane).
    /// Every accumulator still sees its own row's terms in feature order,
    /// one IEEE `mul` then `add` each, so each score is bit-identical to a
    /// row-at-a-time pass. What is left of the longer rows runs scalar.
    fn forward(&self, rows: &[&[(u32, f32)]; BLOCK], sums: &mut BlockSums) -> [f32; BLOCK] {
        let k = self.k;
        let (w, v, w0) = self.split();
        let sums = &mut sums[..k];
        sums.fill([0.0; BLOCK]);
        let mut z = F32x4::splat(w0);
        let mut sq = F32x4::splat(0.0);
        let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        let heads = each(*rows, |r| &r[..common]);
        let tail = k - k % 4;
        for t in 0..common {
            let pairs = each(heads, |r| r[t]);
            let x = F32x4::new(each(pairs, |(_, xv)| xv));
            z = z + F32x4::new(each(pairs, |(i, _)| w[i as usize])) * x;
            let [v0, v1, v2, v3] = each(pairs, |(i, _)| &v[i as usize * k..][..k]);
            let mut quads = sums.chunks_exact_mut(4);
            for ((((s4, a), b), c), d) in (&mut quads)
                .zip(v0.chunks_exact(4))
                .zip(v1.chunks_exact(4))
                .zip(v2.chunks_exact(4))
                .zip(v3.chunks_exact(4))
            {
                let vt = F32x4::transpose(each([a, b, c, d], F32x4::load));
                for (s, vf) in s4.iter_mut().zip(vt) {
                    (F32x4::load(s) + vf * x).store(s);
                    sq = sq + vf * vf * x * x;
                }
            }
            for (f, s) in (tail..).zip(quads.into_remainder()) {
                let vf = F32x4::new([v0[f], v1[f], v2[f], v3[f]]);
                (F32x4::load(s) + vf * x).store(s);
                sq = sq + vf * vf * x * x;
            }
        }
        let (mut z, mut sq) = (z.to_array(), sq.to_array());
        // Ragged tails: what is left of the longer rows, one row at a time.
        for (r, row) in rows.iter().enumerate() {
            for &(i, xv) in &row[common..] {
                let i = i as usize;
                z[r] += w[i] * xv;
                for (s, &vif) in sums.iter_mut().zip(&v[i * k..i * k + k]) {
                    s[r] += vif * xv;
                    sq[r] += vif * vif * xv * xv;
                }
            }
        }
        std::array::from_fn(|r| {
            let s2: f32 = sums.iter().map(|s| s[r] * s[r]).sum();
            z[r] + 0.5 * (s2 - sq[r])
        })
    }

    /// Run [`Self::forward`] over `rows` a block at a time, calling
    /// `each(row, raw score, sums, slot)` for every row in order; the row's
    /// factor sums are `sums[f][slot]`. One scratch buffer per call.
    fn forward_rows<'a>(
        &self,
        rows: impl Iterator<Item = Row<'a>>,
        mut each: impl FnMut(Row<'a>, f32, &BlockSums, usize),
    ) {
        let mut rows = rows.fuse();
        let mut sums = vec![[0.0f32; BLOCK]; self.k];
        loop {
            let block: [Option<Row<'a>>; BLOCK] = std::array::from_fn(|_| rows.next());
            if block[0].is_none() {
                return;
            }
            let feats = block.map(|r| r.map_or(&[][..], |r| r.feats));
            let scores = self.forward(&feats, &mut sums);
            for (slot, row) in block.into_iter().enumerate() {
                if let Some(row) = row {
                    each(row, scores[slot], &sums, slot);
                }
            }
        }
    }
}

impl Model for FactorizationMachine {
    fn n_params(&self) -> usize {
        self.params.len()
    }
    fn params(&self) -> &[f32] {
        &self.params
    }
    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn predict(&self, x: Row<'_>) -> f32 {
        let mut p = 0.0;
        self.forward_rows(std::iter::once(x), |_, z, _, _| p = sigmoid(z));
        p
    }

    fn scores(&self, data: &Dataset) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        self.forward_rows(data.iter(), |_, z, _, _| out.push(sigmoid(z)));
        out
    }

    /// Forward passes run four rows in lockstep; backward passes then
    /// accumulate into `grad` strictly in `idx` order, so the gradient is
    /// bit-identical to a row-at-a-time loop.
    fn grad_batch(&self, data: &Dataset, idx: &[u64], grad: &mut [f32]) {
        debug_assert_eq!(grad.len(), self.params.len());
        if idx.is_empty() {
            return;
        }
        let (n, k) = (self.n_features as usize, self.k);
        let scale = 1.0 / idx.len() as f32;
        let (_, v, _) = self.split();
        let (g_w, rest) = grad.split_at_mut(n);
        let (g_v, g_w0) = rest.split_at_mut(n * k);
        let g_w0 = &mut g_w0[0];
        self.forward_rows(idx.iter().map(|&i| data.get(i)), |ex, z, sums, slot| {
            let p = sigmoid(z);
            let err = (p - ex.label) * scale;
            *g_w0 += err;
            for &(j, xv) in ex.feats {
                let j = j as usize;
                g_w[j] += err * xv;
                let (g_vj, vj) = (&mut g_v[j * k..j * k + k], &v[j * k..j * k + k]);
                for ((g, &vif), s) in g_vj.iter_mut().zip(vj).zip(sums) {
                    // d score / d v_{jf} = x_j * (s_f - v_{jf} x_j)
                    *g += err * xv * (s[slot] - vif * xv);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    fn toy_dataset() -> Dataset {
        // Linearly separable: feature 0 on => positive, feature 1 on => negative.
        let mut d = Dataset::new(2);
        for _ in 0..50 {
            d.push(&[(0, 1.0)], 1.0);
            d.push(&[(1, 1.0)], 0.0);
        }
        d
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lr_learns_separable_data() {
        let d = toy_dataset();
        let mut m = LogisticRegression::new(2);
        let idx: Vec<u64> = (0..d.len() as u64).collect();
        let mut grad = vec![0.0f32; m.n_params()];
        let first_loss = m.loss_batch(&d, &idx);
        for _ in 0..200 {
            grad.iter_mut().for_each(|g| *g = 0.0);
            m.grad_batch(&d, &idx, &mut grad);
            for (p, g) in m.params_mut().iter_mut().zip(&grad) {
                *p -= 1.0 * g;
            }
        }
        let final_loss = m.loss_batch(&d, &idx);
        assert!(final_loss < first_loss * 0.2, "{first_loss} -> {final_loss}");
        assert!(m.predict(d.get(0)) > 0.9);
        assert!(m.predict(d.get(1)) < 0.1);
    }

    #[test]
    fn lr_gradient_matches_finite_difference() {
        let mut d = Dataset::new(3);
        d.push(&[(0, 0.5), (2, -1.5)], 1.0);
        d.push(&[(1, 2.0)], 0.0);
        let mut m = LogisticRegression::new(3);
        m.params_mut().copy_from_slice(&[0.1, -0.2, 0.3, 0.05]);
        check_grad(&mut m, &d);
    }

    #[test]
    fn fm_gradient_matches_finite_difference() {
        let mut d = Dataset::new(3);
        d.push(&[(0, 1.0), (1, 1.0)], 1.0);
        d.push(&[(1, 1.0), (2, 1.0)], 0.0);
        d.push(&[(0, 0.5), (2, 2.0)], 1.0);
        let mut m = FactorizationMachine::new(3, 2, 0.1);
        check_grad(&mut m, &d);
    }

    fn check_grad<M: Model>(m: &mut M, d: &Dataset) {
        let idx: Vec<u64> = (0..d.len() as u64).collect();
        let mut grad = vec![0.0f32; m.n_params()];
        m.grad_batch(d, &idx, &mut grad);
        let eps = 1e-3f32;
        #[allow(clippy::needless_range_loop)]
        for p in 0..m.n_params() {
            let orig = m.params()[p];
            m.params_mut()[p] = orig + eps;
            let lp = m.loss_batch(d, &idx);
            m.params_mut()[p] = orig - eps;
            let lm = m.loss_batch(d, &idx);
            m.params_mut()[p] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - grad[p]).abs() < 2e-2 * (1.0 + fd.abs()),
                "param {p}: fd {fd} vs analytic {}",
                grad[p]
            );
        }
    }

    #[test]
    fn fm_captures_interactions_lr_cannot() {
        // XOR-like data: individual features carry no signal, the pair does.
        let mut d = Dataset::new(4);
        for _ in 0..50 {
            // (A=0, B=2) => positive; (A=1, B=3) => positive
            d.push(&[(0, 1.0), (2, 1.0)], 1.0);
            d.push(&[(1, 1.0), (3, 1.0)], 1.0);
            // cross pairs => negative
            d.push(&[(0, 1.0), (3, 1.0)], 0.0);
            d.push(&[(1, 1.0), (2, 1.0)], 0.0);
        }
        let idx: Vec<u64> = (0..d.len() as u64).collect();
        let mut fm = FactorizationMachine::new(4, 4, 0.1);
        let mut grad = vec![0.0f32; fm.n_params()];
        for _ in 0..800 {
            grad.iter_mut().for_each(|g| *g = 0.0);
            fm.grad_batch(&d, &idx, &mut grad);
            for (p, g) in fm.params_mut().iter_mut().zip(&grad) {
                *p -= 0.5 * g;
            }
        }
        let loss = fm.loss_batch(&d, &idx);
        assert!(loss < 0.3, "FM should fit XOR-like data, loss {loss}");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let d = toy_dataset();
        let m = LogisticRegression::new(2);
        let mut grad = vec![0.0f32; m.n_params()];
        m.grad_batch(&d, &[], &mut grad);
        assert!(grad.iter().all(|&g| g.to_bits() == 0));
        assert_eq!(m.loss_batch(&d, &[]), 0.0);
    }

    #[test]
    fn fm_zero_init_equals_logistic_regression() {
        let d = toy_dataset();
        let idx: Vec<u64> = (0..4).collect();
        let fm = FactorizationMachine::new(2, 3, 0.0);
        let lr = LogisticRegression::new(2);
        for i in &idx {
            let a = fm.predict(d.get(*i));
            let b = lr.predict(d.get(*i));
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// The row-at-a-time FM pass the blocked kernel replaced, kept as the
    /// oracle it must match bit for bit.
    mod rowwise {
        use super::*;

        fn raw_with_sums(m: &FactorizationMachine, x: Row<'_>, sums: &mut [f32]) -> f32 {
            let (n, k, p) = (m.n_features as usize, m.k, m.params());
            let mut z = p[p.len() - 1];
            for &(i, v) in x.feats {
                z += p[i as usize] * v;
            }
            for s in sums.iter_mut() {
                *s = 0.0;
            }
            let mut sq = 0.0f32;
            for &(i, xv) in x.feats {
                for (f, s) in sums.iter_mut().enumerate() {
                    let vif = p[n + i as usize * k + f];
                    *s += vif * xv;
                    sq += vif * vif * xv * xv;
                }
            }
            let s2: f32 = sums.iter().map(|s| s * s).sum();
            z + 0.5 * (s2 - sq)
        }

        pub fn predict(m: &FactorizationMachine, x: Row<'_>) -> f32 {
            sigmoid(raw_with_sums(m, x, &mut vec![0.0; m.k]))
        }

        pub fn grad_batch(
            m: &FactorizationMachine,
            d: &Dataset,
            idx: &[u64],
            g: &mut [f32],
        ) -> f64 {
            if idx.is_empty() {
                return 0.0;
            }
            let (n, k, p) = (m.n_features as usize, m.k, m.params());
            let scale = 1.0 / idx.len() as f32;
            let bias_at = p.len() - 1;
            let mut sums = vec![0.0f32; k];
            let mut loss = 0.0f64;
            for &i in idx {
                let ex = d.get(i);
                let pr = sigmoid(raw_with_sums(m, ex, &mut sums));
                let err = (pr - ex.label) * scale;
                g[bias_at] += err;
                for &(j, xv) in ex.feats {
                    g[j as usize] += err * xv;
                    for f in 0..k {
                        let vif = p[n + j as usize * k + f];
                        g[n + j as usize * k + f] += err * xv * (sums[f] - vif * xv);
                    }
                }
                let pc = (pr.clamp(1e-7, 1.0 - 1e-7)) as f64;
                loss -= if ex.label > 0.5 { pc.ln() } else { (1.0 - pc).ln() };
            }
            loss / idx.len() as f64
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A seeded FM with every parameter (w, v, w₀) random, and a dataset whose
    /// rows have 0–12 pairs over few features (so indices repeat within a
    /// row) with non-unit values.
    fn random_fm(rng: &mut StdRng, k: usize) -> (FactorizationMachine, Dataset) {
        let n_features = rng.gen_range(1..24u32);
        let mut fm = FactorizationMachine::new(n_features, k, 0.0);
        for p in fm.params_mut() {
            *p = rng.gen_range(-1.0f32..1.0);
        }
        let mut d = Dataset::new(n_features);
        let mut feats = Vec::new();
        for _ in 0..rng.gen_range(1..20usize) {
            feats.clear();
            for _ in 0..rng.gen_range(0..13usize) {
                let x = if rng.gen_bool(0.3) { 1.0 } else { rng.gen_range(-3.0f32..3.0) };
                feats.push((rng.gen_range(0..n_features), x));
            }
            if feats.len() >= 2 && rng.gen_bool(0.5) {
                feats[1].0 = feats[0].0;
            }
            d.push(&feats, if rng.gen_bool(0.4) { 1.0 } else { 0.0 });
        }
        (fm, d)
    }

    /// 64 seeds × k ∈ {0, 1, 2, 3, 4, 5, 8, 9} (every factor tail mod 4)
    /// × batch sizes 0–13.
    #[test]
    fn blocked_fm_matches_rowwise_oracle_bit_for_bit() {
        for seed in 0..64 {
            for k in [0, 1, 2, 3, 4, 5, 8, 9] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (fm, d) = random_fm(&mut rng, k);
                for batch in 0..14 {
                    let idx: Vec<u64> =
                        (0..batch).map(|_| rng.gen_range(0..d.len() as u64)).collect();
                    let mut fast = vec![0.0f32; fm.n_params()];
                    let mut slow = fast.clone();
                    fm.grad_batch(&d, &idx, &mut fast);
                    let ls = rowwise::grad_batch(&fm, &d, &idx, &mut slow);
                    let case = format!("seed {seed} k {k} batch {batch}");
                    assert_eq!(bits(&fast), bits(&slow), "{case}: gradient");
                    let lf = fm.loss_batch(&d, &idx);
                    assert_eq!(lf.to_bits(), ls.to_bits(), "{case}: loss {lf} vs {ls}");
                }
                let oracle: Vec<f32> = d.iter().map(|x| rowwise::predict(&fm, x)).collect();
                assert_eq!(bits(&fm.scores(&d)), bits(&oracle), "seed {seed} k {k}: scores");
                let one = fm.predict(d.get(d.len() as u64 - 1));
                assert_eq!(one.to_bits(), oracle[d.len() - 1].to_bits(), "seed {seed} k {k}");
            }
        }
    }
}
