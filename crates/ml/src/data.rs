//! Sparse classification data. Criteo-style CTR rows are one-hot categorical
//! fields plus a few dense features — represented here as `(feature_index,
//! value)` pairs with a binary label.
//!
//! A [`Dataset`] is stored flat (CSR): every row's pairs sit back to back in
//! one array, and a second array holds each row's end offset and label. A
//! row is a borrowed [`Row`] view, so a dataset of `n` rows is two
//! allocations, not `n + 1`.

use std::fmt;

/// One labelled example with sparse features, borrowed from a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// `(feature index, value)` pairs; indices are `< n_features`.
    pub feats: &'a [(u32, f32)],
    /// Binary label in {0.0, 1.0}.
    pub label: f32,
}

/// An in-memory dataset in CSR layout.
#[derive(Clone, Default, PartialEq)]
pub struct Dataset {
    /// Every row's `(feature index, value)` pairs, rows back to back.
    feats: Vec<(u32, f32)>,
    /// Per row: the end offset of its pairs in `feats`, and its label.
    index: Vec<(u32, f32)>,
    pub n_features: u32,
}

/// A fixed-size rendering: rows, pairs, `n_features` and a digest of every
/// bit. It tells apart any two datasets whose bits differ (configs that
/// carry a dataset are identified by hashing their `Debug`), without
/// printing millions of pairs.
impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("rows", &self.len())
            .field("nnz", &self.feats.len())
            .field("n_features", &self.n_features)
            .field("digest", &format_args!("{:#034x}", self.digest()))
            .finish()
    }
}

impl Dataset {
    pub fn new(n_features: u32) -> Self {
        Dataset { feats: Vec::new(), index: Vec::new(), n_features }
    }

    /// An empty dataset with room for `rows` rows of `nnz` pairs in total.
    pub fn with_capacity(n_features: u32, rows: usize, nnz: usize) -> Self {
        Dataset { feats: Vec::with_capacity(nnz), index: Vec::with_capacity(rows), n_features }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Append one row. Panics if the dataset would exceed `u32::MAX` pairs.
    pub fn push(&mut self, feats: &[(u32, f32)], label: f32) {
        debug_assert!(feats.iter().all(|&(i, _)| i < self.n_features));
        self.feats.extend_from_slice(feats);
        let end = u32::try_from(self.feats.len()).expect("dataset exceeds u32::MAX pairs");
        self.index.push((end, label));
    }

    #[inline]
    pub fn get(&self, i: u64) -> Row<'_> {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.index[i - 1].0 as usize };
        let (end, label) = self.index[i];
        Row { feats: &self.feats[start..end as usize], label }
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        (0..self.len() as u64).map(|i| self.get(i))
    }

    /// Every row's label, in order.
    pub fn labels(&self) -> impl Iterator<Item = f32> + '_ {
        self.index.iter().map(|&(_, label)| label)
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.labels().filter(|&l| l > 0.5).count() as f64 / self.len() as f64
    }

    /// 128-bit FNV-1a over the raw little-endian bits of both CSR arrays (the
    /// pairs, then each row's end offset and label), so `0.0` and `-0.0`
    /// differ, and so does a moved row boundary.
    fn digest(&self) -> u128 {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
        let mut h: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
        for &(a, b) in self.feats.iter().chain(&self.index) {
            for byte in a.to_le_bytes().into_iter().chain(b.to_bits().to_le_bytes()) {
                h ^= byte as u128;
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }

    /// Split off the last `frac` of examples as a held-out set.
    pub fn split_holdout(mut self, frac: f64) -> (Dataset, Dataset) {
        let n = self.len();
        let cut = (((n as f64) * (1.0 - frac)).round() as usize).min(n);
        let at = if cut == 0 { 0 } else { self.index[cut - 1].0 };
        let feats = self.feats.split_off(at as usize);
        let index = self.index.split_off(cut).into_iter().map(|(end, l)| (end - at, l)).collect();
        let held = Dataset { feats, index, n_features: self.n_features };
        (self, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_rate_counts_labels() {
        let mut d = Dataset::new(4);
        for label in [1.0, 0.0, 0.0, 1.0] {
            d.push(&[(0, 1.0)], label);
        }
        assert!((d.positive_rate() - 0.5).abs() < 1e-12);
        assert_eq!(Dataset::new(1).positive_rate(), 0.0);
    }

    #[test]
    fn rows_round_trip_including_empty_ones() {
        let rows: [&[(u32, f32)]; 4] = [&[(1, 0.5), (3, 2.0)], &[], &[(0, 1.0)], &[]];
        let mut d = Dataset::new(4);
        for (i, feats) in rows.iter().enumerate() {
            d.push(feats, i as f32);
        }
        assert_eq!(d.len(), 4);
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row, Row { feats: rows[i], label: i as f32 });
        }
    }

    #[test]
    fn split_holdout_partitions() {
        let mut d = Dataset::new(4);
        for i in 0..10u32 {
            let feats: Vec<(u32, f32)> = (0..i % 3).map(|j| (j, i as f32)).collect();
            d.push(&feats, (i % 2) as f32);
        }
        let rows: Vec<(Vec<(u32, f32)>, f32)> =
            d.iter().map(|r| (r.feats.to_vec(), r.label)).collect();
        let (train, test) = d.split_holdout(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.n_features, 4);
        assert_eq!(test.n_features, 4);
        for (row, (feats, label)) in train.iter().chain(test.iter()).zip(&rows) {
            assert_eq!(row, Row { feats, label: *label });
        }
        let (all, none) = test.split_holdout(0.0);
        assert_eq!((all.len(), none.len()), (3, 0));
        let (none, all) = all.split_holdout(1.0);
        assert_eq!((none.len(), all.len()), (0, 3));
        assert_eq!(all.get(0).feats, rows[7].0);
    }
}
