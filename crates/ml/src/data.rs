//! One-hot classification data: a Criteo-style CTR row is the indices of
//! its active categorical features (each of value 1) and a binary label.
//!
//! A [`Dataset`] is stored flat (CSR): every row's indices sit back to back
//! in one array, and a second array holds each row's end offset and label. A
//! row is a borrowed [`Row`] view, so a dataset of `n` rows is two
//! allocations, not `n + 1`.

use std::fmt;

/// One labelled example, borrowed from a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// Active feature indices, each `< n_features`; one listed twice counts twice.
    pub feats: &'a [u32],
    /// Binary label in {0.0, 1.0}.
    pub label: f32,
}

/// An in-memory dataset in CSR layout.
#[derive(Clone, Default, PartialEq)]
pub struct Dataset {
    /// Every row's feature indices, rows back to back.
    feats: Vec<u32>,
    /// Per row: the end offset of its indices in `feats`, and its label.
    index: Vec<(u32, f32)>,
    pub n_features: u32,
}

/// A fixed-size rendering: rows, indices, `n_features` and a digest of every
/// bit. It tells apart any two datasets whose bits differ (configs that
/// carry a dataset are identified by hashing their `Debug`), without
/// printing millions of indices.
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

    /// An empty dataset with room for `rows` rows of `nnz` indices in total.
    pub fn with_capacity(n_features: u32, rows: usize, nnz: usize) -> Self {
        Dataset { feats: Vec::with_capacity(nnz), index: Vec::with_capacity(rows), n_features }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Append one row. Panics on an index ≥ `n_features` or past `u32::MAX` indices.
    pub fn push(&mut self, feats: &[u32], label: f32) {
        assert!(feats.iter().all(|&i| i < self.n_features), "Dataset::push: index ≥ n_features");
        self.feats.extend_from_slice(feats);
        let end = u32::try_from(self.feats.len()).expect("dataset exceeds u32::MAX indices");
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

    /// 128-bit FNV-1a over the little-endian bytes of the indices, then of each
    /// row's end offset and label bits (so a moved row boundary differs).
    fn digest(&self) -> u128 {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
        let mut h: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
        let index = self.index.iter().flat_map(|&(end, label)| [end, label.to_bits()]);
        for byte in self.feats.iter().copied().chain(index).flat_map(u32::to_le_bytes) {
            h ^= byte as u128;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Split off the last `frac` of examples as a held-out set; neither half keeps spare capacity.
    pub fn split_holdout(mut self, frac: f64) -> (Dataset, Dataset) {
        let n = self.len();
        let cut = (((n as f64) * (1.0 - frac)).round() as usize).min(n);
        let at = if cut == 0 { 0 } else { self.index[cut - 1].0 };
        let feats = self.feats.split_off(at as usize);
        let index = self.index.split_off(cut).into_iter().map(|(end, l)| (end - at, l)).collect();
        let held = Dataset { feats, index, n_features: self.n_features };
        self.feats.shrink_to_fit();
        self.index.shrink_to_fit();
        (self, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_including_empty_ones() {
        let rows: [&[u32]; 5] = [&[1, 3], &[], &[0], &[2, 2, 0], &[]];
        let mut d = Dataset::new(4);
        for (i, feats) in rows.iter().enumerate() {
            d.push(feats, i as f32);
        }
        assert_eq!(d.len(), 5);
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row, Row { feats: rows[i], label: i as f32 });
        }
    }

    #[test]
    #[should_panic(expected = "Dataset::push: index ≥ n_features")]
    fn out_of_range_index_is_rejected() {
        Dataset::new(4).push(&[3, 4], 1.0);
    }

    #[test]
    fn split_holdout_partitions() {
        let mut d = Dataset::with_capacity(4, 10, 40);
        for i in 0..10u32 {
            let feats: Vec<u32> = (0..i % 3).map(|j| (i + j) % 4).collect();
            d.push(&feats, (i % 2) as f32);
        }
        let rows: Vec<(Vec<u32>, f32)> = d.iter().map(|r| (r.feats.to_vec(), r.label)).collect();
        let (train, test) = d.split_holdout(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.n_features, 4);
        assert_eq!(test.n_features, 4);
        for half in [&train, &test] {
            assert_eq!(half.feats.capacity(), half.feats.len());
            assert_eq!(half.index.capacity(), half.index.len());
        }
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
