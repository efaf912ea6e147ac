//! Evaluation metrics. The paper reports AUC (area under the ROC curve) for the
//! statistical-integrity experiment; we implement the exact rank-statistic form
//! with proper tie handling and verify it against the O(n²) pair-counting
//! definition in tests.

/// Exact AUC via the Mann–Whitney U statistic with average ranks for ties.
/// Returns `None` when either class is absent.
pub fn auc(scores: &[f32], labels: &[f32]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l > 0.5).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut ranked: Vec<(f32, bool)> =
        scores.iter().zip(labels).map(|(&s, &l)| (s, l > 0.5)).collect();
    ranked.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN score"));

    // Sum of positive ranks, averaging ranks within tie groups. Every
    // positive of a tie group adds the same average rank, so the order
    // inside a group does not change the sum.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < ranked.len() {
        let mut j = i;
        while j + 1 < ranked.len() && ranked[j + 1].0 == ranked[i].0 {
            j += 1;
        }
        // 1-based ranks i+1 ..= j+1 share the average rank.
        let avg_rank = (i + 1 + j + 1) as f64 / 2.0;
        for &(_, positive) in &ranked[i..=j] {
            if positive {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    Some(u / (n_pos as f64 * n_neg as f64))
}

/// Mean binary log loss with probability clamping.
pub fn log_loss(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    if scores.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (&p, &y) in scores.iter().zip(labels) {
        let p = (p as f64).clamp(1e-7, 1.0 - 1e-7);
        total -= if y > 0.5 { p.ln() } else { (1.0 - p).ln() };
    }
    total / scores.len() as f64
}

/// Classification accuracy at threshold 0.5.
pub fn accuracy(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    if scores.is_empty() {
        return 0.0;
    }
    let hits = scores.iter().zip(labels).filter(|&(&p, &y)| (p >= 0.5) == (y > 0.5)).count();
    hits as f64 / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    /// O(n²) reference: P(score⁺ > score⁻) + ½ P(tie).
    fn auc_naive(scores: &[f32], labels: &[f32]) -> Option<f64> {
        let pos: Vec<f32> =
            scores.iter().zip(labels).filter(|&(_, &l)| l > 0.5).map(|(&s, _)| s).collect();
        let neg: Vec<f32> =
            scores.iter().zip(labels).filter(|&(_, &l)| l <= 0.5).map(|(&s, _)| s).collect();
        if pos.is_empty() || neg.is_empty() {
            return None;
        }
        let mut wins = 0.0f64;
        for &p in &pos {
            for &n in &neg {
                if p > n {
                    wins += 1.0;
                } else if p == n {
                    wins += 0.5;
                }
            }
        }
        Some(wins / (pos.len() * neg.len()) as f64)
    }

    /// The index-permutation form `auc` replaced: same ranks, same
    /// score-order additions.
    fn auc_by_index(scores: &[f32], labels: &[f32]) -> Option<f64> {
        let n_pos = labels.iter().filter(|&&l| l > 0.5).count();
        let n_neg = labels.len() - n_pos;
        if n_pos == 0 || n_neg == 0 {
            return None;
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("NaN score"));
        let mut rank_sum_pos = 0.0f64;
        let mut i = 0usize;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
                j += 1;
            }
            let avg_rank = (i + 1 + j + 1) as f64 / 2.0;
            for &k in &order[i..=j] {
                if labels[k] > 0.5 {
                    rank_sum_pos += avg_rank;
                }
            }
            i = j + 1;
        }
        let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
        Some(u / (n_pos as f64 * n_neg as f64))
    }

    /// 256 seeded cases, coarse grids (many ties) and fine ones.
    #[test]
    fn auc_matches_index_form_bit_for_bit() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..400);
            let grid = if seed % 2 == 0 { 8 } else { 1 << 20 };
            let (scores, labels) = random_ranking(&mut rng, n, grid);
            let (a, b) = (auc(&scores, &labels), auc_by_index(&scores, &labels));
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "seed {seed}: {a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN score")]
    fn nan_score_panics() {
        let _ = auc(&[0.2, f32::NAN, 0.7], &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn perfect_and_inverted_rankings() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&scores, &labels), Some(1.0));
        let inv = [0.0f32, 0.0, 1.0, 1.0];
        let inv_scores = [0.9f32, 0.8, 0.2, 0.1];
        assert_eq!(auc(&inv_scores, &inv), Some(0.0));
    }

    #[test]
    fn random_scores_give_half() {
        // All scores identical => AUC must be exactly 0.5 via tie handling.
        let scores = vec![0.5f32; 100];
        let labels: Vec<f32> = (0..100).map(|i| (i % 2) as f32).collect();
        assert_eq!(auc(&scores, &labels), Some(0.5));
    }

    #[test]
    fn single_class_is_none() {
        assert_eq!(auc(&[0.4, 0.6], &[1.0, 1.0]), None);
        assert_eq!(auc(&[0.4, 0.6], &[0.0, 0.0]), None);
    }

    #[test]
    fn matches_naive_on_ties_and_mixtures() {
        let scores = [0.3f32, 0.3, 0.7, 0.7, 0.5, 0.1, 0.9, 0.5];
        let labels = [0.0f32, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let fast = auc(&scores, &labels).unwrap();
        let slow = auc_naive(&scores, &labels).unwrap();
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }

    #[test]
    fn log_loss_and_accuracy_basics() {
        let perfect = log_loss(&[1e-9, 1.0 - 1e-9], &[0.0, 1.0]);
        assert!(perfect < 1e-5);
        let awful = log_loss(&[1.0, 0.0], &[0.0, 1.0]);
        assert!(awful > 10.0);
        assert_eq!(accuracy(&[0.9, 0.1, 0.6], &[1.0, 0.0, 0.0]), 2.0 / 3.0);
        assert_eq!(log_loss(&[], &[]), 0.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    /// `n` random `(grid score, label)` pairs, scores `0..=grid` over `grid`.
    fn random_ranking(rng: &mut StdRng, n: usize, grid: u32) -> (Vec<f32>, Vec<f32>) {
        (0..n)
            .map(|_| {
                let s = rng.gen_range(0..=grid) as f32 / grid as f32;
                (s, if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
            })
            .unzip()
    }

    /// 256 seeded cases.
    #[test]
    fn fast_auc_matches_naive() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..120);
            let (scores, labels) = random_ranking(&mut rng, n, 10);
            match (auc(&scores, &labels), auc_naive(&scores, &labels)) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}"),
                (a, b) => assert_eq!(a, b, "seed {seed}"),
            }
        }
    }

    /// Scores on a 1/16 grid so the affine transform is exact in f32 and
    /// preserves the tie structure (arbitrary floats can collapse under
    /// rounding, which would legitimately change the AUC). 256 seeded cases.
    #[test]
    fn auc_is_invariant_to_monotone_transform() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(4..60);
            let (scores, labels) = random_ranking(&mut rng, n, 16);
            let transformed: Vec<f32> = scores.iter().map(|&s| s * 3.0 + 1.0).collect();
            assert_eq!(auc(&scores, &labels), auc(&transformed, &labels), "seed {seed}");
        }
    }
}
