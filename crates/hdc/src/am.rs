//! The associative memory (AM): one reference hypervector per class.
//!
//! Training (§III-B) bundles every training image's hypervector into its
//! class counter; finalize bipolarizes the counters into the packed
//! reference hypervectors used for similarity search. Keeping the counters
//! alongside the snapshot enables online learning and the retraining
//! defense of §V-D (adding correctly labeled adversarial examples and
//! re-bipolarizing).
//!
//! Each class keeps a bit-sliced [`BitCounter`]: `n` bundled vectors and a
//! per-component set-bit count `c`, so the implied bundling sum is
//! `s = 2c − n`. Subtracting a vector adds its complement (`s` drops by the
//! vector's component, `n` grows by one), so the counters only ever grow
//! and [`rescale_counters`](AssociativeMemory::rescale_counters) keeps them
//! bounded. The `i32` [`crate::Accumulator`] and `bipolarize_sums` are the
//! scalar oracle this state is pinned against.

use crate::batch;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::{self, BitCounter};
use crate::packed::PackedHypervector;

/// Index of the maximal similarity; ties resolve to the **last** maximal
/// class, matching `Iterator::max_by`, so every classification path agrees.
pub(crate) fn argmax(sims: &[f64]) -> usize {
    debug_assert!(!sims.is_empty());
    let mut best = 0usize;
    for (i, &s) in sims.iter().enumerate() {
        if s >= sims[best] {
            best = i;
        }
    }
    best
}

/// Per-class bundle counters plus their bipolarized, packed snapshot.
///
/// The counters are *retained* after [`finalize`](Self::finalize) — they
/// are what makes the memory trainable online: every
/// [`add`](Self::add)/[`subtract`](Self::subtract) marks only its class
/// dirty, and the next finalize re-bipolarizes exactly those classes
/// (word-parallel threshold, bit-identical to re-deriving every class),
/// so a single-example update costs one class, not the whole model.
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    counters: Vec<BitCounter>,
    references: Vec<PackedHypervector>,
    /// Classes mutated since the last finalize. Only these are
    /// re-bipolarized when a full snapshot already exists.
    dirty: Vec<bool>,
    dim: usize,
    finalized: bool,
}

impl AssociativeMemory {
    /// Creates an empty AM for `num_classes` classes of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` or `dim` is zero.
    pub fn new(num_classes: usize, dim: usize) -> Self {
        assert!(num_classes > 0, "associative memory needs at least one class");
        assert!(dim > 0, "hypervector dimension must be non-zero");
        Self {
            counters: (0..num_classes).map(|_| BitCounter::new(dim)).collect(),
            references: Vec::new(),
            dirty: vec![true; num_classes],
            dim,
            finalized: false,
        }
    }

    /// Reconstructs an AM from per-class counters (persistence path). The
    /// snapshot is re-derived by [`finalize`](Self::finalize).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] for an empty vector and
    /// [`HdcError::DimensionMismatch`] for inconsistent dimensions.
    pub fn from_counters(counters: Vec<BitCounter>) -> Result<Self, HdcError> {
        let dim = counters.first().ok_or(HdcError::EmptyModel)?.dim();
        if let Some(bad) = counters.iter().find(|c| c.dim() != dim) {
            return Err(HdcError::DimensionMismatch { expected: dim, actual: bad.dim() });
        }
        let dirty = vec![true; counters.len()];
        let mut am = Self { counters, references: Vec::new(), dirty, dim, finalized: false };
        am.finalize();
        Ok(am)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counters.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether [`finalize`](Self::finalize) has been called since the last
    /// mutation.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// The counter of `class`, after checking the class and `hv`'s
    /// dimension; marks the class dirty.
    fn counter_mut(
        &mut self,
        class: usize,
        hv: &PackedHypervector,
    ) -> Result<&mut BitCounter, HdcError> {
        let num_classes = self.num_classes();
        if class >= num_classes {
            return Err(HdcError::UnknownClass { class, num_classes });
        }
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: hv.dim() });
        }
        self.dirty[class] = true;
        self.finalized = false;
        Ok(&mut self.counters[class])
    }

    /// Bundles `hv` into the counter of `class`.
    ///
    /// Invalidates the finalized snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] or [`HdcError::DimensionMismatch`].
    pub fn add(&mut self, class: usize, hv: &PackedHypervector) -> Result<(), HdcError> {
        self.counter_mut(class, hv)?.add(hv.words());
        Ok(())
    }

    /// Removes `hv` from the bundle of `class` (adaptive retraining
    /// subtracts the query from a wrongly predicted class) by adding its
    /// complement: every implied sum `2c − n` drops by `hv`'s bipolar
    /// component and the count grows by one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] or [`HdcError::DimensionMismatch`].
    pub fn subtract(&mut self, class: usize, hv: &PackedHypervector) -> Result<(), HdcError> {
        let complement = kernel::negate_words(hv.words(), hv.dim());
        self.counter_mut(class, hv)?.add(&complement);
        Ok(())
    }

    /// Bipolarizes the counters into the packed reference snapshot (Eq. 1,
    /// deterministic parity tie-break) via the word-parallel
    /// [`BitCounter::bipolarize_packed`], bit-identical to
    /// `bipolarize_sums` over the implied sums.
    ///
    /// Incremental: once a full snapshot exists, only classes mutated
    /// since the last finalize are re-bipolarized. Per-class
    /// bipolarization is a pure function of that class's counter, so the
    /// result is bit-identical to re-deriving every class — this is what
    /// makes [`HdcClassifier::partial_fit`](crate::HdcClassifier::partial_fit)
    /// orders of magnitude cheaper than a full retrain.
    pub fn finalize(&mut self) {
        let dim = self.dim;
        let full = self.references.len() != self.counters.len();
        if full {
            self.references.clear();
        }
        for (class, counter) in self.counters.iter_mut().enumerate() {
            if full || self.dirty[class] {
                let reference =
                    PackedHypervector::from_words_unchecked(counter.bipolarize_packed(), dim);
                if full {
                    self.references.push(reference);
                } else {
                    self.references[class] = reference;
                }
            }
        }
        self.dirty.fill(false);
        self.finalized = true;
    }

    /// Classes mutated since the last [`finalize`](Self::finalize), in
    /// class order — the set the next finalize will re-bipolarize.
    pub fn dirty_classes(&self) -> Vec<usize> {
        self.dirty.iter().enumerate().filter(|&(_, &d)| d).map(|(c, _)| c).collect()
    }

    /// The bipolarized, packed reference hypervector for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before [`finalize`](Self::finalize)
    /// and [`HdcError::UnknownClass`] for an out-of-range class.
    pub fn reference(&self, class: usize) -> Result<&PackedHypervector, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        self.references
            .get(class)
            .ok_or(HdcError::UnknownClass { class, num_classes: self.num_classes() })
    }

    /// The bundle counter for `class` — mutated by training, retained
    /// after finalize (this is the state [`crate::io`] persists so a
    /// reloaded model keeps learning).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for an out-of-range class.
    pub fn counter(&self, class: usize) -> Result<&BitCounter, HdcError> {
        self.counters
            .get(class)
            .ok_or(HdcError::UnknownClass { class, num_classes: self.num_classes() })
    }

    /// Cosine similarity of `query` against every class reference, in class
    /// order (§III-C).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before finalization or
    /// [`HdcError::DimensionMismatch`] for a query of the wrong dimension.
    pub fn similarities(&self, query: &Hypervector) -> Result<Vec<f64>, HdcError> {
        let mut sims = Vec::new();
        self.similarities_packed_into(query.packed(), &mut sims)?;
        Ok(sims)
    }

    /// Cosine similarity of a packed query against every class reference,
    /// into a caller-provided buffer (cleared first) — the one AM scan
    /// routine every predict, evaluate and fitness path runs.
    ///
    /// # Errors
    ///
    /// Same as [`similarities`](Self::similarities).
    pub fn similarities_packed_into(
        &self,
        query: &PackedHypervector,
        out: &mut Vec<f64>,
    ) -> Result<(), HdcError> {
        // Clear before validating so a reused buffer never carries a
        // previous query's similarities across an error.
        out.clear();
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: query.dim() });
        }
        // Fused AM scan: one `hamming_many` pass over every packed
        // reference (the AVX2 tier shares each query load across four
        // class vectors), then `cos = (D − 2h) / D` — the same integers
        // per-reference `cosine` computes, so the result is bit-identical.
        let refs: Vec<&[u64]> = self.references.iter().map(PackedHypervector::words).collect();
        let distances = kernel::hamming_many(query.words(), &refs);
        let dim = self.dim;
        out.extend(distances.iter().map(|&h| (dim as i64 - 2 * h as i64) as f64 / dim as f64));
        Ok(())
    }

    /// The class whose reference is most similar to `query`, with the full
    /// similarity vector.
    ///
    /// # Errors
    ///
    /// Same as [`similarities`](Self::similarities).
    pub fn classify(&self, query: &Hypervector) -> Result<(usize, Vec<f64>), HdcError> {
        let sims = self.similarities(query)?;
        Ok((argmax(&sims), sims))
    }

    /// Classifies a batch of queries, fanning out across worker threads for
    /// large batches; per-query results are identical to
    /// [`classify`](Self::classify) and returned in input order.
    ///
    /// # Errors
    ///
    /// Same as [`classify`](Self::classify).
    pub fn classify_batch(
        &self,
        queries: &[Hypervector],
    ) -> Result<Vec<(usize, Vec<f64>)>, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        batch::map_indexed(queries, |query| self.classify(query))
    }

    /// Sign-preserving counter halving: every class whose bundle size has
    /// reached `limit` is rewritten so the persisted `u32` per-component
    /// set-bit counts can never saturate (`crate::io` rejects counts above
    /// `u32::MAX` as corrupt), while the references — and hence every
    /// prediction and every feedback gate — stay **bit-identical**.
    /// Returns whether any class was rescaled (the memory is re-finalized
    /// if so, to identical references).
    ///
    /// For a class with bundle size `n` and per-component set-bit counts
    /// `cᵢ` (implied sum `sᵢ = 2cᵢ − n`), the rewrite is
    ///
    /// ```text
    /// q    = ⌈n/4⌉            tᵢ = sign(sᵢ)·⌈|sᵢ|/4⌉
    /// n'   = 2q               cᵢ' = q + tᵢ
    /// ```
    ///
    /// so `sᵢ' = 2cᵢ' − n' = 2tᵢ`: the sign of every implied sum — and
    /// whether it is exactly zero — is preserved, and `0 ≤ cᵢ' ≤ n'`
    /// always holds. Bipolarization is a pure function of `sign(s)` plus
    /// the parity tie rule for `s = 0`, and `n'` is even so the tie path
    /// stays reachable exactly for the components that were tied before.
    /// Therefore [`finalize`](Self::finalize) produces the same reference
    /// from the rescaled counters.
    pub fn rescale_counters(&mut self, limit: u64) -> bool {
        let mut rescaled = false;
        for (class, counter) in self.counters.iter_mut().enumerate() {
            let n = counter.count() as u64;
            if n == 0 || n < limit {
                continue;
            }
            let quarter = n.div_ceil(4);
            let halved: Vec<u64> = counter
                .set_counts()
                .iter()
                .map(|&c| {
                    let s = 2 * c as i64 - n as i64;
                    let t = (s.unsigned_abs().div_ceil(4) as i64) * s.signum();
                    (quarter as i64 + t) as u64
                })
                .collect();
            *counter = BitCounter::from_set_counts(self.dim, &halved, 2 * quarter as usize);
            self.dirty[class] = true;
            rescaled = true;
        }
        if rescaled {
            self.finalize();
        }
        rescaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::Accumulator;
    use crate::encoder::bipolarize_sums;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn random(dim: usize, r: &mut StdRng) -> PackedHypervector {
        PackedHypervector::random(dim, r)
    }

    #[test]
    fn classify_recovers_trained_class() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(3, 5_000);
        let protos: Vec<Hypervector> = (0..3).map(|_| Hypervector::random(5_000, &mut r)).collect();
        for (c, p) in protos.iter().enumerate() {
            // Bundle a few noisy variants of each prototype.
            for _ in 0..5 {
                am.add(c, p.with_noise(250, &mut r).packed()).unwrap();
            }
        }
        am.finalize();
        for (c, p) in protos.iter().enumerate() {
            let (pred, sims) = am.classify(p).unwrap();
            assert_eq!(pred, c);
            assert_eq!(sims.len(), 3);
            assert!(sims[c] > 0.5);
        }
    }

    #[test]
    fn classify_batch_matches_classify_loop() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(4, 2_000);
        for c in 0..4 {
            am.add(c, &random(2_000, &mut r)).unwrap();
        }
        am.finalize();
        // Enough queries to cross the parallel threshold.
        let queries: Vec<Hypervector> =
            (0..150).map(|_| Hypervector::random(2_000, &mut r)).collect();
        let batched = am.classify_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, result) in queries.iter().zip(&batched) {
            assert_eq!(*result, am.classify(q).unwrap());
        }
    }

    #[test]
    fn classify_batch_unfinalized_errors() {
        let am = AssociativeMemory::new(2, 100);
        assert!(matches!(am.classify_batch(&[]), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn unfinalized_am_errors() {
        let mut r = rng();
        let am = AssociativeMemory::new(2, 100);
        let q = Hypervector::random(100, &mut r);
        assert!(matches!(am.similarities(&q), Err(HdcError::EmptyModel)));
        assert!(matches!(am.reference(0), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn mutation_invalidates_snapshot() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = random(100, &mut r);
        am.add(0, &hv).unwrap();
        am.finalize();
        assert!(am.is_finalized());
        am.add(1, &hv).unwrap();
        assert!(!am.is_finalized());
    }

    #[test]
    fn unknown_class_rejected() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = random(100, &mut r);
        assert!(matches!(am.add(2, &hv), Err(HdcError::UnknownClass { class: 2, num_classes: 2 })));
        assert!(am.subtract(5, &hv).is_err());
        assert!(am.counter(2).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 100);
        let hv = Hypervector::random(50, &mut r);
        assert!(am.add(0, hv.packed()).is_err());
        assert!(am.subtract(0, hv.packed()).is_err());
        am.add(0, &random(100, &mut r)).unwrap();
        am.finalize();
        assert!(am.similarities(&hv).is_err());
    }

    #[test]
    fn add_then_subtract_is_neutral() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 1_000);
        let base = random(1_000, &mut r);
        am.add(0, &base).unwrap();
        am.finalize();
        let before = am.reference(0).unwrap().clone();

        let extra = random(1_000, &mut r);
        am.add(0, &extra).unwrap();
        am.subtract(0, &extra).unwrap();
        am.finalize();
        assert_eq!(*am.reference(0).unwrap(), before);
    }

    #[test]
    fn counters_match_the_accumulator_oracle() {
        // Adds and complement-add subtracts keep the implied sums 2c − n
        // equal to the scalar accumulator's, and the references equal
        // `bipolarize_sums` of those sums, parity ties included.
        let mut r = rng();
        for dim in [63usize, 64, 65, 127, 1_000] {
            let mut am = AssociativeMemory::new(1, dim);
            let mut oracle = Accumulator::zeros(dim);
            for step in 0..9 {
                let hv = Hypervector::random(dim, &mut r);
                if step % 3 == 2 {
                    am.subtract(0, hv.packed()).unwrap();
                    oracle.subtract(&hv).unwrap();
                } else {
                    am.add(0, hv.packed()).unwrap();
                    oracle.add(&hv).unwrap();
                }
            }
            am.finalize();
            assert_eq!(am.counter(0).unwrap().clone().sums(), oracle.sums(), "dim {dim}");
            assert_eq!(am.reference(0).unwrap(), bipolarize_sums(oracle.sums()).packed());
        }
    }

    #[test]
    fn from_counters_round_trip() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(2, 256);
        am.add(0, &random(256, &mut r)).unwrap();
        am.add(1, &random(256, &mut r)).unwrap();
        am.finalize();

        let counters = vec![am.counter(0).unwrap().clone(), am.counter(1).unwrap().clone()];
        let rebuilt = AssociativeMemory::from_counters(counters).unwrap();
        assert_eq!(rebuilt.reference(0).unwrap(), am.reference(0).unwrap());
        assert_eq!(rebuilt.reference(1).unwrap(), am.reference(1).unwrap());
    }

    #[test]
    fn from_counters_validates() {
        assert!(AssociativeMemory::from_counters(vec![]).is_err());
        let counters = vec![BitCounter::new(10), BitCounter::new(20)];
        assert!(AssociativeMemory::from_counters(counters).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        let _ = AssociativeMemory::new(0, 10);
    }

    #[test]
    fn dirty_classes_track_mutations() {
        let mut r = rng();
        let mut am = AssociativeMemory::new(3, 100);
        assert_eq!(am.dirty_classes(), vec![0, 1, 2], "fresh memory is all-dirty");
        for c in 0..3 {
            am.add(c, &random(100, &mut r)).unwrap();
        }
        am.finalize();
        assert!(am.dirty_classes().is_empty());
        am.add(1, &random(100, &mut r)).unwrap();
        am.subtract(2, &random(100, &mut r)).unwrap();
        assert_eq!(am.dirty_classes(), vec![1, 2]);
        am.finalize();
        assert!(am.dirty_classes().is_empty());
    }

    #[test]
    fn incremental_finalize_matches_full_rederive() {
        // Updating one class and re-finalizing must be bit-identical to
        // re-bipolarizing every class from the same counters.
        let mut r = rng();
        for dim in [63usize, 64, 65, 127, 1_000] {
            let mut am = AssociativeMemory::new(4, dim);
            for c in 0..4 {
                // Even counts so zero sums (parity ties) occur.
                for _ in 0..2 {
                    am.add(c, &random(dim, &mut r)).unwrap();
                }
            }
            am.finalize();
            am.add(2, &random(dim, &mut r)).unwrap();
            am.finalize(); // incremental: only class 2 re-bipolarized

            let counters: Vec<BitCounter> =
                (0..4).map(|c| am.counter(c).unwrap().clone()).collect();
            let full = AssociativeMemory::from_counters(counters).unwrap();
            for c in 0..4 {
                assert_eq!(
                    am.reference(c).unwrap(),
                    full.reference(c).unwrap(),
                    "dim {dim} class {c}: incremental finalize diverged"
                );
            }
        }
    }
}
