//! Integer accumulators for bundling (HDC addition ⨁).
//!
//! Bundling many bipolar hypervectors is done by summing their components in
//! a wide integer accumulator and bipolarizing at the end (Eq. 1 of the
//! paper). Keeping the accumulator around — rather than only the bipolarized
//! snapshot — is what makes *retraining* possible: new examples can be added
//! (or subtracted) and the reference vector re-derived.

use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::packed::PackedHypervector;
use rand::rngs::StdRng;
use rand::Rng;

/// A bundling accumulator: the componentwise integer sum of hypervectors.
///
/// ```
/// use hdc::{Accumulator, Hypervector};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let a = Hypervector::random(1_000, &mut rng);
/// let b = Hypervector::random(1_000, &mut rng);
///
/// let mut acc = Accumulator::zeros(1_000);
/// acc.add(&a)?;
/// acc.add(&b)?;
/// let bundle = acc.bipolarize(&mut rng);
/// // Bundling preserves similarity to each operand (~50% per the paper).
/// assert!(hdc::cosine(&a, &bundle) > 0.3);
/// assert!(hdc::cosine(&b, &bundle) > 0.3);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accumulator {
    sums: Vec<i32>,
    count: usize,
}

impl Accumulator {
    /// Creates an all-zero accumulator of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dimension must be non-zero");
        Self { sums: vec![0; dim], count: 0 }
    }

    /// Reconstructs an accumulator from raw sums and a bundle count.
    ///
    /// Used by model persistence.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `sums` is empty.
    pub fn from_raw(sums: Vec<i32>, count: usize) -> Result<Self, HdcError> {
        if sums.is_empty() {
            return Err(HdcError::ZeroDimension);
        }
        Ok(Self { sums, count })
    }

    /// The dimension of the accumulator.
    pub fn dim(&self) -> usize {
        self.sums.len()
    }

    /// Number of hypervectors bundled so far (additions minus subtractions).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Borrows the raw componentwise sums.
    pub fn sums(&self) -> &[i32] {
        &self.sums
    }

    /// Adds a hypervector into the bundle.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn add(&mut self, hv: &Hypervector) -> Result<(), HdcError> {
        self.check_dim(hv)?;
        for (s, &c) in self.sums.iter_mut().zip(hv.as_slice()) {
            *s += i32::from(c);
        }
        self.count += 1;
        Ok(())
    }

    /// Removes a hypervector from the bundle (used by adaptive retraining,
    /// which subtracts a query from the wrongly predicted class).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn subtract(&mut self, hv: &Hypervector) -> Result<(), HdcError> {
        self.check_dim(hv)?;
        for (s, &c) in self.sums.iter_mut().zip(hv.as_slice()) {
            *s -= i32::from(c);
        }
        self.count = self.count.saturating_sub(1);
        Ok(())
    }

    /// Merges another accumulator into this one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn merge(&mut self, other: &Accumulator) -> Result<(), HdcError> {
        if self.dim() != other.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), actual: other.dim() });
        }
        for (s, &o) in self.sums.iter_mut().zip(&other.sums) {
            *s += o;
        }
        self.count += other.count;
        Ok(())
    }

    /// Bipolarizes the accumulator per Eq. 1 of the paper: positive sums map
    /// to `+1`, negative to `-1`, and exact zeros are broken uniformly at
    /// random with `rng`.
    pub fn bipolarize(&self, rng: &mut StdRng) -> Hypervector {
        let components = self
            .sums
            .iter()
            .map(|&s| match s.cmp(&0) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => {
                    if rng.gen::<bool>() {
                        1
                    } else {
                        -1
                    }
                }
            })
            .collect();
        Hypervector::from_components_unchecked(components)
    }

    /// Deterministic bipolarization: zeros map to `+1`.
    ///
    /// Useful when exact reproducibility across calls matters more than the
    /// unbiased tie-break of [`bipolarize`](Self::bipolarize). With odd
    /// bundle counts ties cannot occur and the two methods agree.
    pub fn bipolarize_deterministic(&self) -> Hypervector {
        let components = self.sums.iter().map(|&s| if s >= 0 { 1 } else { -1 }).collect();
        Hypervector::from_components_unchecked(components)
    }

    /// Bipolarizes straight to the bit-packed form (`s >= 0 → 1`), skipping
    /// the `i8` intermediate — the cheapest way to feed an accumulator into
    /// the word-packed similarity kernels.
    pub fn bipolarize_packed(&self) -> PackedHypervector {
        let dim = self.dim();
        let mut words = vec![0u64; crate::kernel::words_for(dim)];
        for (word, chunk) in words.iter_mut().zip(self.sums.chunks(64)) {
            let mut w = 0u64;
            for (k, &s) in chunk.iter().enumerate() {
                w |= u64::from(s >= 0) << k;
            }
            *word = w;
        }
        PackedHypervector::from_words_unchecked(words, dim)
    }

    /// Resets the accumulator to all zeros.
    pub fn clear(&mut self) {
        self.sums.iter_mut().for_each(|s| *s = 0);
        self.count = 0;
    }

    fn check_dim(&self, hv: &Hypervector) -> Result<(), HdcError> {
        if self.dim() != hv.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), actual: hv.dim() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn zeros_has_zero_count() {
        let acc = Accumulator::zeros(64);
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.dim(), 64);
        assert!(acc.sums().iter().all(|&s| s == 0));
    }

    #[test]
    fn add_then_subtract_restores_zero() {
        let mut r = rng();
        let hv = Hypervector::random(128, &mut r);
        let mut acc = Accumulator::zeros(128);
        acc.add(&hv).unwrap();
        acc.subtract(&hv).unwrap();
        assert!(acc.sums().iter().all(|&s| s == 0));
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn single_add_bipolarizes_to_same_vector() {
        let mut r = rng();
        let hv = Hypervector::random(512, &mut r);
        let mut acc = Accumulator::zeros(512);
        acc.add(&hv).unwrap();
        assert_eq!(acc.bipolarize(&mut r), hv);
        assert_eq!(acc.bipolarize_deterministic(), hv);
    }

    #[test]
    fn bundle_preserves_operand_similarity() {
        // Paper §III-A: addition preserves ~50% of each operand.
        let mut r = rng();
        let a = Hypervector::random(10_000, &mut r);
        let b = Hypervector::random(10_000, &mut r);
        let c = Hypervector::random(10_000, &mut r);
        let mut acc = Accumulator::zeros(10_000);
        for hv in [&a, &b, &c] {
            acc.add(hv).unwrap();
        }
        let bundle = acc.bipolarize(&mut r);
        for hv in [&a, &b, &c] {
            let sim = cosine(hv, &bundle);
            assert!(sim > 0.35, "operand similarity {sim} too low");
        }
        // But orthogonal to an unrelated vector.
        let d = Hypervector::random(10_000, &mut r);
        assert!(cosine(&d, &bundle).abs() < 0.05);
    }

    #[test]
    fn merge_matches_sequential_adds() {
        let mut r = rng();
        let a = Hypervector::random(100, &mut r);
        let b = Hypervector::random(100, &mut r);
        let mut left = Accumulator::zeros(100);
        left.add(&a).unwrap();
        let mut right = Accumulator::zeros(100);
        right.add(&b).unwrap();
        left.merge(&right).unwrap();

        let mut both = Accumulator::zeros(100);
        both.add(&a).unwrap();
        both.add(&b).unwrap();
        assert_eq!(left, both);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut r = rng();
        let hv = Hypervector::random(100, &mut r);
        let mut acc = Accumulator::zeros(50);
        assert!(acc.add(&hv).is_err());
        assert!(acc.subtract(&hv).is_err());
        assert!(acc.merge(&Accumulator::zeros(100)).is_err());
    }

    #[test]
    fn deterministic_bipolarize_zero_maps_to_one() {
        let acc = Accumulator::zeros(8);
        let hv = acc.bipolarize_deterministic();
        assert!(hv.as_slice().iter().all(|&c| c == 1));
    }

    #[test]
    fn bipolarize_packed_matches_deterministic() {
        let mut r = rng();
        for dim in [63, 64, 65, 500] {
            let mut acc = Accumulator::zeros(dim);
            for _ in 0..4 {
                // Even count so zero sums (ties) occur with high probability.
                acc.add(&Hypervector::random(dim, &mut r)).unwrap();
            }
            let packed = acc.bipolarize_packed();
            assert_eq!(packed, *acc.bipolarize_deterministic().packed(), "dim = {dim}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut r = rng();
        let mut acc = Accumulator::zeros(32);
        acc.add(&Hypervector::random(32, &mut r)).unwrap();
        acc.clear();
        assert_eq!(acc.count(), 0);
        assert!(acc.sums().iter().all(|&s| s == 0));
    }

    #[test]
    fn from_raw_rejects_empty() {
        assert!(Accumulator::from_raw(vec![], 0).is_err());
        assert!(Accumulator::from_raw(vec![1, -2], 1).is_ok());
    }
}
