//! The model over sparse inputs: a second-order factorization machine (the
//! stand-in for XDeepFM on CTR data — an explicit feature-interaction model,
//! trained with log loss).
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

/// Mean log loss of `predict` over `idx` (indices into `data`), each
/// probability clamped away from 0 and 1.
fn mean_log_loss(data: &Dataset, idx: &[u64], predict: impl Fn(Row<'_>) -> f32) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for &i in idx {
        let ex = data.get(i);
        let pc = predict(ex).clamp(1e-7, 1.0 - 1e-7) as f64;
        total -= if ex.label > 0.5 { pc.ln() } else { (1.0 - pc).ln() };
    }
    total / idx.len() as f64
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

/// Second-order factorization machine on one-hot rows (`xᵢ ∈ {0, 1}`, active
/// set `A`): `score = w₀ + Σ_{i∈A} wᵢ + ½ Σ_f [(Σ_{i∈A} v_{if})² − Σ_{i∈A} v_{if}²]`.
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
    /// leaving each row's factor sums `s_f = Σ_{i∈A} v_{if}` in `sums`.
    ///
    /// The rows advance through their features together, row `r` in lane
    /// `r` of one [`F32x4`]: per feature position, each row's latent
    /// factors load four at a time and transpose into factor-major lanes
    /// (the `k % 4` factors after the last full four are set lane by lane).
    /// Every accumulator still sees its own row's terms in feature order,
    /// the same IEEE operations each, so each score is bit-identical to a
    /// row-at-a-time pass. What is left of the longer rows runs scalar.
    fn forward(&self, rows: &[&[u32]; BLOCK], sums: &mut BlockSums) -> [f32; BLOCK] {
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
            let feats = each(heads, |r| r[t] as usize);
            z = z + F32x4::new(each(feats, |i| w[i]));
            let [v0, v1, v2, v3] = each(feats, |i| &v[i * k..][..k]);
            let mut quads = sums.chunks_exact_mut(4);
            for ((((s4, a), b), c), d) in (&mut quads)
                .zip(v0.chunks_exact(4))
                .zip(v1.chunks_exact(4))
                .zip(v2.chunks_exact(4))
                .zip(v3.chunks_exact(4))
            {
                let vt = F32x4::transpose(each([a, b, c, d], F32x4::load));
                for (s, vf) in s4.iter_mut().zip(vt) {
                    (F32x4::load(s) + vf).store(s);
                    sq = sq + vf * vf;
                }
            }
            for (f, s) in (tail..).zip(quads.into_remainder()) {
                let vf = F32x4::new([v0[f], v1[f], v2[f], v3[f]]);
                (F32x4::load(s) + vf).store(s);
                sq = sq + vf * vf;
            }
        }
        let (mut z, mut sq) = (z.to_array(), sq.to_array());
        // Ragged tails: what is left of the longer rows, one row at a time.
        for (r, row) in rows.iter().enumerate() {
            for &i in &row[common..] {
                let i = i as usize;
                z[r] += w[i];
                for (s, &vif) in sums.iter_mut().zip(&v[i * k..i * k + k]) {
                    s[r] += vif;
                    sq[r] += vif * vif;
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

    /// Total number of parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    pub fn params(&self) -> &[f32] {
        &self.params
    }

    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Predicted probability of the positive class.
    pub fn predict(&self, x: Row<'_>) -> f32 {
        let mut p = 0.0;
        self.forward_rows(std::iter::once(x), |_, z, _, _| p = sigmoid(z));
        p
    }

    /// Scores for a whole dataset (for AUC evaluation).
    pub fn scores(&self, data: &Dataset) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        self.forward_rows(data.iter(), |_, z, _, _| out.push(sigmoid(z)));
        out
    }

    /// Mean log loss over `idx` without touching gradients.
    pub fn loss_batch(&self, data: &Dataset, idx: &[u64]) -> f64 {
        mean_log_loss(data, idx, |x| self.predict(x))
    }

    /// Accumulate the *mean* log-loss gradient of `idx` (indices into `data`)
    /// into `grad` (same layout as `params`; caller zeroes). Computes no loss:
    /// that is [`Self::loss_batch`].
    ///
    /// Forward passes run four rows in lockstep; backward passes then
    /// accumulate into `grad` strictly in `idx` order, so the gradient is
    /// bit-identical to a row-at-a-time loop.
    pub fn grad_batch(&self, data: &Dataset, idx: &[u64], grad: &mut [f32]) {
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
            for &j in ex.feats {
                let j = j as usize;
                g_w[j] += err;
                let (g_vj, vj) = (&mut g_v[j * k..j * k + k], &v[j * k..j * k + k]);
                for ((g, &vif), s) in g_vj.iter_mut().zip(vj).zip(sums) {
                    // d score / d v_{jf} = x_j (s_f - v_{jf} x_j) = s_f - v_{jf}
                    *g += err * (s[slot] - vif);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    /// Plain logistic regression, params = `[w₀ … w_{n-1}, b]`: the model an
    /// FM with all-zero factors reduces to, and the baseline that cannot
    /// learn feature interactions.
    #[derive(Clone)]
    struct LogisticRegression {
        n_features: u32,
        params: Vec<f32>,
    }

    impl LogisticRegression {
        fn new(n_features: u32) -> Self {
            LogisticRegression { n_features, params: vec![0.0; n_features as usize + 1] }
        }

        fn predict(&self, x: Row<'_>) -> f32 {
            let mut z = self.params[self.n_features as usize];
            for &i in x.feats {
                z += self.params[i as usize];
            }
            sigmoid(z)
        }

        fn loss_batch(&self, data: &Dataset, idx: &[u64]) -> f64 {
            mean_log_loss(data, idx, |x| self.predict(x))
        }

        fn grad_batch(&self, data: &Dataset, idx: &[u64], grad: &mut [f32]) {
            if idx.is_empty() {
                return;
            }
            let scale = 1.0 / idx.len() as f32;
            let bias_at = self.n_features as usize;
            for &i in idx {
                let ex = data.get(i);
                let err = (self.predict(ex) - ex.label) * scale;
                for &j in ex.feats {
                    grad[j as usize] += err;
                }
                grad[bias_at] += err;
            }
        }

        /// `steps` full-batch gradient-descent steps at rate `rate`.
        fn descend(&mut self, d: &Dataset, steps: usize, rate: f32) {
            let idx = all_rows(d);
            let mut grad = vec![0.0f32; self.params.len()];
            for _ in 0..steps {
                grad.fill(0.0);
                self.grad_batch(d, &idx, &mut grad);
                for (p, g) in self.params.iter_mut().zip(&grad) {
                    *p -= rate * g;
                }
            }
        }
    }

    fn all_rows(d: &Dataset) -> Vec<u64> {
        (0..d.len() as u64).collect()
    }

    fn toy_dataset() -> Dataset {
        // Linearly separable: feature 0 on => positive, feature 1 on => negative.
        let mut d = Dataset::new(2);
        for _ in 0..50 {
            d.push(&[0], 1.0);
            d.push(&[1], 0.0);
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
        let idx = all_rows(&d);
        let mut m = LogisticRegression::new(2);
        let first_loss = m.loss_batch(&d, &idx);
        m.descend(&d, 200, 1.0);
        let final_loss = m.loss_batch(&d, &idx);
        assert!(final_loss < first_loss * 0.2, "{first_loss} -> {final_loss}");
        assert!(m.predict(d.get(0)) > 0.9);
        assert!(m.predict(d.get(1)) < 0.1);
    }

    #[test]
    fn lr_gradient_matches_finite_difference() {
        let mut d = Dataset::new(3);
        d.push(&[0, 2], 1.0);
        d.push(&[1, 1], 0.0);
        d.push(&[], 1.0);
        let mut m = LogisticRegression::new(3);
        m.params.copy_from_slice(&[0.1, -0.2, 0.3, 0.05]);
        let idx = all_rows(&d);
        let mut grad = vec![0.0f32; m.params.len()];
        m.grad_batch(&d, &idx, &mut grad);
        check_grad(&m.params, &grad, |params| {
            LogisticRegression { params: params.to_vec(), ..m.clone() }.loss_batch(&d, &idx)
        });
    }

    #[test]
    fn fm_gradient_matches_finite_difference() {
        let mut d = Dataset::new(3);
        d.push(&[0, 1], 1.0);
        d.push(&[1, 2], 0.0);
        d.push(&[0, 2, 2], 1.0);
        d.push(&[], 0.0);
        let m = FactorizationMachine::new(3, 2, 0.1);
        let idx = all_rows(&d);
        let mut grad = vec![0.0f32; m.n_params()];
        m.grad_batch(&d, &idx, &mut grad);
        check_grad(m.params(), &grad, |params| {
            FactorizationMachine { params: params.to_vec(), ..m.clone() }.loss_batch(&d, &idx)
        });
    }

    /// Check the analytic gradient `grad` at `params` against central finite
    /// differences of `loss`.
    fn check_grad(params: &[f32], grad: &[f32], loss: impl Fn(&[f32]) -> f64) {
        let eps = 1e-3f32;
        let mut at = params.to_vec();
        for p in 0..at.len() {
            let orig = at[p];
            at[p] = orig + eps;
            let lp = loss(&at);
            at[p] = orig - eps;
            let lm = loss(&at);
            at[p] = orig;
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
            d.push(&[0, 2], 1.0);
            d.push(&[1, 3], 1.0);
            // cross pairs => negative
            d.push(&[0, 3], 0.0);
            d.push(&[1, 2], 0.0);
        }
        let idx = all_rows(&d);
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
        let mut lr = LogisticRegression::new(4);
        lr.descend(&d, 800, 0.5);
        let lr_loss = lr.loss_batch(&d, &idx);
        assert!(lr_loss > 0.6, "LR cannot beat chance on XOR-like data, loss {lr_loss}");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let d = toy_dataset();
        let m = FactorizationMachine::new(2, 3, 0.1);
        let mut grad = vec![0.0f32; m.n_params()];
        m.grad_batch(&d, &[], &mut grad);
        assert!(grad.iter().all(|&g| g.to_bits() == 0));
        assert_eq!(m.loss_batch(&d, &[]), 0.0);
    }

    #[test]
    fn fm_zero_init_equals_logistic_regression() {
        let d = toy_dataset();
        // Equal linear weights and bias; the FM's factors stay zero.
        let mut fm = FactorizationMachine::new(2, 3, 0.0);
        let mut lr = LogisticRegression::new(2);
        lr.params.copy_from_slice(&[0.7, -1.3, 0.2]);
        let n = fm.n_params();
        fm.params_mut()[..2].copy_from_slice(&[0.7, -1.3]);
        fm.params_mut()[n - 1] = 0.2;
        for i in 0..4 {
            let a = fm.predict(d.get(i));
            let b = lr.predict(d.get(i));
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// The row-at-a-time FM pass the blocked kernel replaced, kept as the
    /// oracle it must match bit for bit. It keeps the valued form, every
    /// term multiplied by its `xᵢ`, and is fed each index as an `(i, 1.0)`
    /// pair, so the match also pins that the one-hot passes, which skip
    /// those multiplications, change no bit.
    mod rowwise {
        use super::*;

        /// A row's indices as `(index, 1.0)` pairs.
        fn valued(x: Row<'_>) -> Vec<(u32, f32)> {
            x.feats.iter().map(|&i| (i, 1.0)).collect()
        }

        fn raw_with_sums(m: &FactorizationMachine, x: &[(u32, f32)], sums: &mut [f32]) -> f32 {
            let (n, k, p) = (m.n_features as usize, m.k, m.params());
            let mut z = p[p.len() - 1];
            for &(i, v) in x {
                z += p[i as usize] * v;
            }
            for s in sums.iter_mut() {
                *s = 0.0;
            }
            let mut sq = 0.0f32;
            for &(i, xv) in x {
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
            sigmoid(raw_with_sums(m, &valued(x), &mut vec![0.0; m.k]))
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
                let (ex, x) = (d.get(i), valued(d.get(i)));
                let pr = sigmoid(raw_with_sums(m, &x, &mut sums));
                let err = (pr - ex.label) * scale;
                g[bias_at] += err;
                for &(j, xv) in &x {
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

    /// A seeded FM with every parameter (w, v, w₀) random, and a one-hot
    /// dataset of ragged rows with 0–12 indices (empty rows included) over
    /// few features, so indices repeat within a row; half the rows of two or
    /// more repeat their first index.
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
                feats.push(rng.gen_range(0..n_features));
            }
            if feats.len() >= 2 && rng.gen_bool(0.5) {
                feats[1] = feats[0];
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
