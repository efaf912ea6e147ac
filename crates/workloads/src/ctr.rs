//! Synthetic Criteo-like CTR dataset.
//!
//! Rows have `n_fields` categorical fields, each one-hot into its own vocabulary
//! slice, labelled by a hidden ground truth that mixes per-feature weights with
//! pairwise field interactions — so a factorization machine genuinely has
//! something to learn and reaches an AUC in the paper's ballpark (0.794 for
//! XDeepFM on real Criteo), while logistic regression plateaus lower. Labels are
//! imbalanced like click data.

use antdt_ml::Dataset;
use antdt_sim::rng::StdRng;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrConfig {
    pub n_samples: u64,
    pub n_fields: usize,
    /// Vocabulary size per field; `n_features = n_fields × field_dim`.
    pub field_dim: u32,
    /// Latent dimension of the hidden ground-truth interactions.
    pub k_true: usize,
    /// Shifts the intercept to control the positive rate (≈ click rate).
    pub bias: f32,
    /// Label noise: probability a label is flipped.
    pub noise: f64,
    pub seed: u64,
}

impl Default for CtrConfig {
    fn default() -> Self {
        CtrConfig {
            n_samples: 50_000,
            n_fields: 8,
            field_dim: 64,
            k_true: 4,
            bias: -1.2,
            noise: 0.02,
            seed: 7,
        }
    }
}

impl CtrConfig {
    /// Panics, naming the fields, if `n_fields × field_dim` overflows `u32`.
    pub fn n_features(&self) -> u32 {
        u32::try_from(self.n_fields)
            .ok()
            .and_then(|n| n.checked_mul(self.field_dim))
            .expect("CtrConfig: n_fields × field_dim overflows u32")
    }

    pub fn with_samples(mut self, n: u64) -> Self {
        self.n_samples = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Panics with a message naming the offending field on a config
    /// [`generate`] cannot honour, before any work is done.
    fn validate(&self) {
        assert!(self.n_fields > 0, "CtrConfig: n_fields must be at least 1");
        assert!(self.field_dim > 0, "CtrConfig: field_dim must be at least 1");
        self.n_features(); // panics on a `u32` overflow
        assert!(
            (0.0..=1.0).contains(&self.noise),
            "CtrConfig: noise {} is outside [0, 1]",
            self.noise
        );
        assert!(
            self.n_samples
                .checked_mul(self.n_fields as u64)
                .is_some_and(|nnz| nnz <= u32::MAX as u64),
            "CtrConfig: n_samples × n_fields exceeds u32::MAX indices"
        );
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// The category a uniform draw `u ∈ [0, 1)` picks from a vocabulary of `dim`:
/// skewed (Zipf-ish) towards low indices. Always `< dim`: `u·u ≤ u < 1`, and
/// a product `x·dim` with `x < 1` rounds below `dim`, so the floor is at most
/// `dim − 1`.
#[inline]
fn category(u: f64, dim: f64) -> u32 {
    ((u * u) * dim) as u32
}

/// Rows generated together: each block draws its random numbers first, then
/// scores its rows in independent lanes, so the per-row add chains overlap.
const LANES: usize = 4;

/// Generate the dataset. Deterministic in `cfg.seed`. Panics, naming the
/// field, when `n_fields` or `field_dim` is 0, `n_fields × field_dim`
/// overflows `u32`, `noise` is outside [0, 1], or the dataset would hold
/// more than `u32::MAX` feature indices.
///
/// Rows are made four at a time. Every row's draws are taken in stream order
/// (its `n_fields` categories, then its label draw, then its noise draw), and
/// every row's score is summed in its own lane in the order one row at a time
/// would sum it, so the dataset is bit-identical to generating the rows one
/// after another.
pub fn generate(cfg: &CtrConfig) -> Dataset {
    cfg.validate();
    let n_feat = cfg.n_features() as usize;
    let (nf, k) = (cfg.n_fields, cfg.k_true);
    let dim = cfg.field_dim as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Hidden ground truth: per feature, a linear weight and `k` latent
    // factors, stored side by side as one row of `truth` (so a lane reads
    // one slice per field). All weights are drawn first, then all factors.
    let mut truth = vec![0.0f32; n_feat * (k + 1)];
    for row in truth.chunks_exact_mut(k + 1) {
        row[0] = rng.gen_range(-1.6f32..1.6);
    }
    for row in truth.chunks_exact_mut(k + 1) {
        row[1..].iter_mut().for_each(|x| *x = rng.gen_range(-1.0f32..1.0));
    }

    let rows = cfg.n_samples as usize;
    let mut data = Dataset::with_capacity(cfg.n_features(), rows, rows * nf);
    // Lane `l`'s feature indices are `feats[l * nf..(l + 1) * nf]`; one
    // active category per field, at field-local offsets. In a last, partial
    // block the unused lanes score stale rows that are never pushed.
    let mut feats = vec![0u32; LANES * nf];
    let mut sums = vec![[0.0f32; LANES]; k];
    let mut done = 0;
    while done < rows {
        let m = LANES.min(rows - done);
        let mut label_u = [0.0f32; LANES];
        let mut noise_u = [0.0f64; LANES];
        for l in 0..m {
            for (f, feat) in feats[l * nf..(l + 1) * nf].iter_mut().enumerate() {
                let u: f64 = rng.gen_range(0.0..1.0);
                *feat = f as u32 * cfg.field_dim + category(u, dim);
            }
            label_u[l] = rng.gen_range(0.0f32..1.0);
            noise_u[l] = rng.gen_range(0.0f64..1.0);
        }

        // Ground-truth score: linear + FM-style pairwise interactions.
        let mut z = [cfg.bias; LANES];
        let mut sq = [0.0f32; LANES];
        sums.iter_mut().for_each(|s| *s = [0.0; LANES]);
        for f in 0..nf {
            let idx: [usize; LANES] = std::array::from_fn(|l| feats[l * nf + f] as usize);
            // Each lane's row, sliced once: the loops below then index
            // slices of known length.
            let lane_truth: [&[f32]; LANES] =
                std::array::from_fn(|l| &truth[idx[l] * (k + 1)..][..k + 1]);
            for l in 0..LANES {
                z[l] += lane_truth[l][0];
            }
            let vs: [&[f32]; LANES] = std::array::from_fn(|l| &lane_truth[l][1..]);
            for (j, s) in sums[..k].iter_mut().enumerate() {
                let vif: [f32; LANES] = std::array::from_fn(|l| vs[l][j]);
                for l in 0..LANES {
                    s[l] += vif[l];
                    sq[l] += vif[l] * vif[l];
                }
            }
        }

        // Σⱼ sⱼ² per lane. Starting from +0.0 rather than `Iterator::sum`'s
        // −0.0 changes no bits: the first term is never −0.0, and with
        // `k_true == 0` only the sign of a zero score can differ, which the
        // sigmoid maps to the same 0.5.
        let mut s2 = [0.0f32; LANES];
        for s in &sums {
            for l in 0..LANES {
                s2[l] += s[l] * s[l];
            }
        }
        for l in 0..m {
            let p = sigmoid(z[l] + 0.5 * (s2[l] - sq[l]));
            let mut label = if label_u[l] < p { 1.0 } else { 0.0 };
            if noise_u[l] < cfg.noise {
                label = 1.0 - label;
            }
            data.push(&feats[l * nf..(l + 1) * nf], label);
        }
        done += m;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_ml::{auc, FactorizationMachine, Sgd};

    /// The row-at-a-time generator the lockstep one must reproduce bit for
    /// bit, kept as written before blocking (category modulo included).
    fn generate_rowwise(cfg: &CtrConfig) -> Dataset {
        let n_feat = cfg.n_features() as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let w: Vec<f32> = (0..n_feat).map(|_| rng.gen_range(-1.6f32..1.6)).collect();
        let v: Vec<f32> = (0..n_feat * cfg.k_true).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let rows = cfg.n_samples as usize;
        let mut data = Dataset::with_capacity(cfg.n_features(), rows, rows * cfg.n_fields);
        let mut sums = vec![0.0f32; cfg.k_true];
        let mut feats = Vec::with_capacity(cfg.n_fields);
        for _ in 0..cfg.n_samples {
            feats.clear();
            for f in 0..cfg.n_fields {
                let u: f64 = rng.gen_range(0.0..1.0);
                let cat = ((u * u) * cfg.field_dim as f64) as u32 % cfg.field_dim;
                feats.push(f as u32 * cfg.field_dim + cat);
            }
            let mut z = cfg.bias;
            sums.iter_mut().for_each(|s| *s = 0.0);
            let mut sq = 0.0f32;
            for &i in &feats {
                z += w[i as usize];
                for (f, s) in sums.iter_mut().enumerate() {
                    let vif = v[i as usize * cfg.k_true + f];
                    *s += vif;
                    sq += vif * vif;
                }
            }
            let s2: f32 = sums.iter().map(|s| s * s).sum();
            z += 0.5 * (s2 - sq);

            let p = sigmoid(z);
            let mut label = if rng.gen_range(0.0f32..1.0) < p { 1.0 } else { 0.0 };
            if rng.gen_range(0.0f64..1.0) < cfg.noise {
                label = 1.0 - label;
            }
            data.push(&feats, label);
        }
        data
    }

    #[test]
    fn lockstep_generate_matches_rowwise_oracle() {
        // (field_dim, n_fields, k_true, noise): every listed value of each
        // dimension appears, and the noisy shapes flip labels often.
        let shapes = [
            (1, 1, 0, 0.02),
            (3, 3, 1, 0.5),
            (64, 8, 4, 0.02),
            (1000, 8, 5, 0.02),
            (64, 1, 5, 0.3),
            (1000, 3, 0, 0.0),
            (3, 8, 4, 1.0),
        ];
        for seed in 0..32u64 {
            for &(field_dim, n_fields, k_true, noise) in &shapes {
                for n_samples in [0, 1, 2, 3, 4, 5, 7, 4097] {
                    let cfg = CtrConfig {
                        n_samples,
                        n_fields,
                        field_dim,
                        k_true,
                        noise,
                        seed,
                        ..CtrConfig::default()
                    };
                    let (got, want) = (generate(&cfg), generate_rowwise(&cfg));
                    assert_eq!(got, want, "{cfg:?}");
                    assert!(
                        got.labels().map(f32::to_bits).eq(want.labels().map(f32::to_bits)),
                        "{cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn category_of_the_largest_draw_is_the_last_index() {
        let largest = 1.0 - f64::EPSILON / 2.0; // 1 − 2⁻⁵³, the largest f64 below 1
        for dim in
            [1, 2, 3, 7, 64, 100, 1000, 1 << 20, (1 << 20) + 1, 1 << 31, u32::MAX - 1, u32::MAX]
        {
            assert_eq!(category(largest, dim as f64), dim - 1, "dim {dim}");
            assert_eq!(category(0.0, dim as f64), 0, "dim {dim}");
        }
    }

    #[test]
    #[should_panic(expected = "CtrConfig: field_dim must be at least 1")]
    fn zero_field_dim_is_rejected() {
        generate(&CtrConfig { field_dim: 0, ..CtrConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CtrConfig: n_fields must be at least 1")]
    fn zero_fields_are_rejected() {
        generate(&CtrConfig { n_fields: 0, ..CtrConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CtrConfig: n_fields × field_dim overflows u32")]
    fn feature_count_overflow_is_rejected() {
        generate(&CtrConfig { n_fields: 2, field_dim: 1 << 31, ..CtrConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CtrConfig: noise NaN is outside [0, 1]")]
    fn nan_noise_is_rejected() {
        generate(&CtrConfig { noise: f64::NAN, ..CtrConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CtrConfig: noise 1.5 is outside [0, 1]")]
    fn noise_above_one_is_rejected() {
        generate(&CtrConfig { noise: 1.5, ..CtrConfig::default() });
    }

    #[test]
    #[should_panic(expected = "CtrConfig: n_samples × n_fields exceeds u32::MAX indices")]
    fn more_indices_than_u32_is_rejected() {
        // 8 × (2³² / 8) = 2³² indices, one past the limit; rejected before any
        // allocation or draw.
        generate(&CtrConfig::default().with_samples(1 << 29));
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let cfg = CtrConfig::default().with_samples(2_000);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
        assert_eq!(a.n_features, 8 * 64);
        // One active feature per field, field-local indices.
        for ex in a.iter() {
            assert_eq!(ex.feats.len(), 8);
            for (f, &idx) in ex.feats.iter().enumerate() {
                assert!(idx >= f as u32 * 64 && idx < (f as u32 + 1) * 64);
            }
        }
    }

    #[test]
    fn labels_are_imbalanced_like_ctr_data() {
        let d = generate(&CtrConfig::default().with_samples(20_000));
        let rate = d.labels().filter(|&l| l > 0.5).count() as f64 / d.len() as f64;
        assert!((0.05..0.45).contains(&rate), "positive rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CtrConfig::default().with_samples(500).with_seed(1));
        let b = generate(&CtrConfig::default().with_samples(500).with_seed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn fm_learns_auc_in_paper_ballpark() {
        let d = generate(&CtrConfig::default().with_samples(24_000));
        let (train, test) = d.split_holdout(0.2);
        let mut fm = FactorizationMachine::new(train.n_features, 8, 0.05);
        let opt = Sgd::new(0.5);
        let mut grad = vec![0.0f32; fm.n_params()];
        let idx: Vec<u64> = (0..train.len() as u64).collect();
        for epoch in 0..15 {
            for chunk in idx.chunks(512) {
                grad.iter_mut().for_each(|g| *g = 0.0);
                fm.grad_batch(&train, chunk, &mut grad);
                opt.step(fm.params_mut(), &grad);
            }
            let _ = epoch;
        }
        let scores = fm.scores(&test);
        let labels: Vec<f32> = test.labels().collect();
        let a = auc(&scores, &labels).expect("both classes present");
        // Real Criteo/XDeepFM reaches 0.794; our synthetic stand-in should land
        // in a comparable band — well above random.
        assert!(a > 0.72, "AUC {a}");
    }
}
