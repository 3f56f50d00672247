//! Binarized HDC classifier on bit-packed hypervectors.
//!
//! The paper's related work cites hardware-oriented dense *binary* HDC
//! (Schmuck et al., JETC 2019: "rematerialization of hypervectors,
//! binarized bundling, and combinational associative memory"). This module
//! implements that variant end to end: class vectors are bit-packed, the
//! similarity check is Hamming distance via XOR + popcount, and training
//! keeps per-component counters so binarized bundling stays exact.
//!
//! The binary classifier is also the second implementation used by
//! `hdtest`'s cross-model differential mode: inputs on which the dense
//! bipolar model and this binarized model disagree expose
//! quantization-sensitivity, the same class of bug the paper's
//! self-differential oracle exposes for a single model.

use crate::classifier::{Feedback, Prediction};
use crate::encoder::Encoder;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::{hamming_many, negate_words, BitCounter};
use crate::packed::PackedHypervector;
use std::sync::Arc;

/// The outcome of classifying one input with the binarized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryPrediction {
    /// Predicted class (minimum Hamming distance).
    pub class: usize,
    /// Hamming distance to the predicted class reference.
    pub distance: usize,
    /// Hamming distance to every class reference, in class order.
    pub distances: Vec<usize>,
}

impl BinaryPrediction {
    /// Converts to the dense classifier's [`Prediction`] via the bipolar
    /// identity `cos = 1 − 2·h/D`. Because the binarized classifier breaks
    /// Hamming ties exactly like the dense argmax-cosine rule, the
    /// converted prediction is what an equivalent dense model would report
    /// — this is the unified surface the [`crate::model::Model`] trait and
    /// the serving layer present for both kinds.
    pub fn to_prediction(&self, dim: usize) -> Prediction {
        let d = dim as f64;
        let similarities: Vec<f64> =
            self.distances.iter().map(|&h| 1.0 - 2.0 * (h as f64) / d).collect();
        crate::classifier::prediction_from_similarities(self.class, similarities)
    }
}

/// A binarized HDC classifier: packed class references, Hamming search.
///
/// Shares any [`Encoder`]; the encoder's bipolar output is packed to bits
/// (`+1 → 1`, `-1 → 0`) before the associative-memory lookup, which is
/// exactly how binarized hardware consumes a bipolar encoding pipeline.
///
/// ```
/// use hdc::binary::BinaryClassifier;
/// use hdc::prelude::*;
///
/// let encoder = PixelEncoder::new(PixelEncoderConfig {
///     dim: 1_000, width: 3, height: 3, levels: 4,
///     value_encoding: ValueEncoding::Random, seed: 2,
/// })?;
/// let mut model = BinaryClassifier::new(encoder, 2);
/// model.train_one(&[0u8; 9][..], 0)?;
/// model.train_one(&[255u8; 9][..], 1)?;
/// model.finalize();
/// assert_eq!(model.predict(&[255u8; 9][..])?.class, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
/// Like the dense classifier, the encoder lives behind an [`Arc`]: clones
/// share the item memories and copy only the per-class counters and packed
/// references, which keeps the serving layer's clone-train-publish cycle
/// cheap.
#[derive(Debug)]
pub struct BinaryClassifier<E> {
    encoder: Arc<E>,
    /// Per-class bit-sliced set-bit counters ([`BitCounter`]): training
    /// adds packed encodings word-parallel, finalize thresholds them
    /// word-parallel. The scalar per-component counting rule this
    /// replaced survives as the reference oracle in this module's tests.
    counters: Vec<BitCounter>,
    references: Vec<PackedHypervector>,
    /// Classes whose counters changed since the last finalize; only these
    /// are re-thresholded when a full reference snapshot already exists.
    dirty: Vec<bool>,
    dim: usize,
    finalized: bool,
}

/// Manual impl: cloning must not require `E: Clone` — the encoder is
/// shared, not copied.
impl<E> Clone for BinaryClassifier<E> {
    fn clone(&self) -> Self {
        Self {
            encoder: Arc::clone(&self.encoder),
            counters: self.counters.clone(),
            references: self.references.clone(),
            dirty: self.dirty.clone(),
            dim: self.dim,
            finalized: self.finalized,
        }
    }
}

impl<E: Encoder> BinaryClassifier<E> {
    /// Creates an untrained binarized classifier.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(encoder: E, num_classes: usize) -> Self {
        Self::with_shared_encoder(Arc::new(encoder), num_classes)
    }

    /// Creates an untrained classifier on an already-shared encoder, so a
    /// dense and a binarized model under differential test can share one
    /// set of item memories.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn with_shared_encoder(encoder: Arc<E>, num_classes: usize) -> Self {
        assert!(num_classes > 0, "binary classifier needs at least one class");
        let dim = encoder.dim();
        Self {
            encoder,
            counters: (0..num_classes).map(|_| BitCounter::new(dim)).collect(),
            references: Vec::new(),
            dirty: vec![true; num_classes],
            dim,
            finalized: false,
        }
    }

    /// Reconstructs a classifier from per-class counters (persistence
    /// path); the reference snapshot is re-derived immediately, so the
    /// returned model both serves and keeps learning.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] for an empty counter vector and
    /// [`HdcError::DimensionMismatch`] when a counter does not match the
    /// encoder's dimension.
    pub fn from_counters(encoder: E, counters: Vec<BitCounter>) -> Result<Self, HdcError> {
        if counters.is_empty() {
            return Err(HdcError::EmptyModel);
        }
        let dim = encoder.dim();
        if let Some(bad) = counters.iter().find(|c| c.dim() != dim) {
            return Err(HdcError::DimensionMismatch { expected: dim, actual: bad.dim() });
        }
        let dirty = vec![true; counters.len()];
        let mut model = Self {
            encoder: Arc::new(encoder),
            counters,
            references: Vec::new(),
            dirty,
            dim,
            finalized: false,
        };
        model.finalize();
        Ok(model)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counters.len()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The encoder.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// The shared encoder handle (`Arc::ptr_eq` holds across clones; see
    /// [`HdcClassifier::encoder_arc`](crate::HdcClassifier::encoder_arc)).
    pub fn encoder_arc(&self) -> &Arc<E> {
        &self.encoder
    }

    /// Whether [`finalize`](Self::finalize) has run since the last update.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Encodes an input and packs it to bits.
    ///
    /// # Errors
    ///
    /// Propagates encoder shape errors.
    pub fn encode_packed(&self, input: &E::Input) -> Result<PackedHypervector, HdcError> {
        let hv: Hypervector = self.encoder.encode(input)?;
        Ok(PackedHypervector::from(&hv))
    }

    /// Binarized bundling (one-shot training): per-component set-bit
    /// counters accumulate; the reference is their majority at finalize.
    /// The add is word-parallel through the class's [`BitCounter`] (the
    /// same CSA-tree bundler the dense encoders use).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for a bad label or propagates
    /// encoder errors.
    pub fn train_one(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        let num_classes = self.num_classes();
        if label >= num_classes {
            return Err(HdcError::UnknownClass { class: label, num_classes });
        }
        let packed = self.encode_packed(input)?;
        self.counters[label].add(packed.words());
        self.dirty[label] = true;
        self.finalized = false;
        Ok(())
    }

    /// Online learning: bundles one labeled example and re-finalizes
    /// **only that class's** reference (counters are retained after
    /// finalize and [`finalize`](Self::finalize) re-thresholds dirty
    /// classes only) — bit-identical to retraining from scratch on the
    /// concatenated dataset. The model stays serving between updates.
    ///
    /// # Errors
    ///
    /// Same as [`train_one`](Self::train_one).
    pub fn partial_fit(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        self.train_one(input, label)?;
        self.finalize();
        Ok(())
    }

    /// Online learning over a batch, re-finalizing dirty classes once.
    /// Returns the number of examples applied. Atomic: every example is
    /// encoded and validated before any counter is touched.
    ///
    /// # Errors
    ///
    /// Returns the error for the lowest bad example; the model is
    /// unchanged on error.
    pub fn partial_fit_batch<'a, It>(&mut self, examples: It) -> Result<usize, HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let num_classes = self.num_classes();
        let mut encoded: Vec<(PackedHypervector, usize)> = Vec::new();
        for (input, label) in examples {
            if label >= num_classes {
                return Err(HdcError::UnknownClass { class: label, num_classes });
            }
            encoded.push((self.encode_packed(input)?, label));
        }
        for (packed, label) in &encoded {
            self.counters[*label].add(packed.words());
            self.dirty[*label] = true;
        }
        self.finalized = false;
        self.finalize();
        Ok(encoded.len())
    }

    /// Online feedback on a prior prediction: predicts `input`, and if the
    /// prediction disagrees with the caller-supplied true `label`, applies
    /// the adaptive (perceptron-style) update and re-finalizes the two
    /// dirty classes — the binarized counterpart of
    /// [`HdcClassifier::feedback`](crate::HdcClassifier::feedback).
    ///
    /// On the set-bit-counter representation (`n` bundled vectors, `cᵢ`
    /// set bits, implied dense sum `sᵢ = 2cᵢ − n`) *subtracting* the query
    /// from the wrong class is implemented by **adding its complement**:
    /// `cᵢ += 1 − bitᵢ, n += 1` gives `sᵢ' = sᵢ − qᵢ`, exactly the dense
    /// rule, and the counters only ever grow so no underflow is possible.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before finalization,
    /// [`HdcError::UnknownClass`] for a bad label, or encoder errors.
    pub fn feedback(&mut self, input: &E::Input, label: usize) -> Result<Feedback, HdcError> {
        if label >= self.num_classes() {
            return Err(HdcError::UnknownClass { class: label, num_classes: self.num_classes() });
        }
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        let packed = self.encode_packed(input)?;
        let prediction = self.classify_packed(&packed).to_prediction(self.dim);
        if prediction.class == label {
            return Ok(Feedback { updated: false, prediction });
        }
        self.counters[label].add(packed.words());
        let complement = negate_words(packed.words(), self.dim);
        self.counters[prediction.class].add(&complement);
        self.dirty[label] = true;
        self.dirty[prediction.class] = true;
        self.finalized = false;
        self.finalize();
        Ok(Feedback { updated: true, prediction })
    }

    /// Trains on a batch and finalizes.
    ///
    /// # Errors
    ///
    /// Fails fast on the first bad label or malformed input.
    pub fn train_batch<'a, It>(&mut self, examples: It) -> Result<(), HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        for (input, label) in examples {
            self.train_one(input, label)?;
        }
        self.finalize();
        Ok(())
    }

    /// Majority-binarizes every class counter into its packed reference
    /// via the word-parallel [`BitCounter`] threshold finalizer
    /// (`c > ⌊n/2⌋` per component, no integer sums materialized). Ties
    /// (possible with even counts) resolve by component parity, the same
    /// deterministic rule the dense pipeline uses.
    ///
    /// Incremental: once a full snapshot exists, only classes trained
    /// since the last finalize are re-thresholded (per-class majority is a
    /// pure function of that class's counter, so this is bit-identical to
    /// re-deriving every class).
    pub fn finalize(&mut self) {
        let dim = self.dim;
        if self.references.len() == self.counters.len() {
            for (class, counter) in self.counters.iter_mut().enumerate() {
                if self.dirty[class] {
                    self.references[class] =
                        PackedHypervector::from_words_unchecked(counter.bipolarize_packed(), dim);
                }
            }
        } else {
            self.references = self
                .counters
                .iter_mut()
                .map(|counter| {
                    PackedHypervector::from_words_unchecked(counter.bipolarize_packed(), dim)
                })
                .collect();
        }
        self.dirty.fill(false);
        self.finalized = true;
    }

    /// Sign-preserving counter halving: every class whose bundle size has
    /// reached `limit` is rewritten so the persisted `u32` per-component
    /// set-bit counts can never saturate (`crate::io` rejects counts above
    /// `u32::MAX` as corrupt), while the binarized references — and hence
    /// every prediction and every feedback gate — stay **bit-identical**.
    /// Returns whether any class was rescaled (the model is re-finalized
    /// if so, to identical references).
    ///
    /// For a class with bundle size `n` and per-component set-bit counts
    /// `cᵢ` (implied dense sum `sᵢ = 2cᵢ − n`), the rewrite is
    ///
    /// ```text
    /// q    = ⌈n/4⌉            tᵢ = sign(sᵢ)·⌈|sᵢ|/4⌉
    /// n'   = 2q               cᵢ' = q + tᵢ
    /// ```
    ///
    /// so `sᵢ' = 2cᵢ' − n' = 2tᵢ`: the sign of every implied sum — and
    /// whether it is exactly zero — is preserved, and `0 ≤ cᵢ' ≤ n'`
    /// always holds. The majority threshold (`c > ⌊n/2⌋`) is a pure
    /// function of `sign(s)` plus the parity tie rule for `s = 0`; `n'`
    /// is always even so the tie path stays reachable exactly for the
    /// components that were tied before. Therefore
    /// [`finalize`](Self::finalize) produces the same packed reference
    /// from the rescaled counters, which is pinned by a test below.
    ///
    /// The serving layer runs this check deterministically at every
    /// publish *and* on WAL replay, so a recovered process makes the
    /// same rescale decisions at the same versions as one that never
    /// crashed.
    pub fn rescale_counters(&mut self, limit: u64) -> bool {
        let mut rescaled = false;
        for (class, counter) in self.counters.iter_mut().enumerate() {
            let n = counter.count() as u64;
            if n == 0 || n < limit {
                continue;
            }
            let quarter = n.div_ceil(4);
            let counts = counter.set_counts();
            let halved: Vec<u64> = counts
                .iter()
                .map(|&c| {
                    let s = 2 * c as i64 - n as i64;
                    let t = if s >= 0 {
                        (s as u64).div_ceil(4) as i64
                    } else {
                        -((s.unsigned_abs()).div_ceil(4) as i64)
                    };
                    (quarter as i64 + t) as u64
                })
                .collect();
            *counter = BitCounter::from_set_counts(self.dim, &halved, 2 * quarter as usize);
            self.dirty[class] = true;
            self.finalized = false;
            rescaled = true;
        }
        if rescaled {
            self.finalize();
        }
        rescaled
    }

    /// The raw set-bit counter for `class` — mutated by training, retained
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

    /// The packed reference for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before finalization or
    /// [`HdcError::UnknownClass`] for a bad class.
    pub fn reference(&self, class: usize) -> Result<&PackedHypervector, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        self.references
            .get(class)
            .ok_or(HdcError::UnknownClass { class, num_classes: self.num_classes() })
    }

    /// Classifies by minimum Hamming distance (the combinational
    /// associative-memory lookup of binary HDC hardware).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] before finalization or propagates
    /// encoder errors.
    pub fn predict(&self, input: &E::Input) -> Result<BinaryPrediction, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        let query = self.encode_packed(input)?;
        Ok(self.classify_packed(&query))
    }

    /// Classifies an already packed query.
    ///
    /// # Errors
    ///
    /// [`HdcError::EmptyModel`] before finalization.
    pub(crate) fn predict_packed(
        &self,
        query: &PackedHypervector,
    ) -> Result<BinaryPrediction, HdcError> {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        Ok(self.classify_packed(query))
    }

    /// The Hamming scan over the reference snapshot. Callers must have
    /// checked `finalized`.
    fn classify_packed(&self, query: &PackedHypervector) -> BinaryPrediction {
        // Fused AM scan: one `hamming_many` pass over the snapshot instead
        // of per-reference distances (the AVX2 tier shares each query load
        // across four class vectors); identical integers either way.
        let refs: Vec<&[u64]> = self.references.iter().map(|r| r.words()).collect();
        let distances = hamming_many(query.words(), &refs);
        // On exact ties the *last* minimal class wins, matching the dense
        // classifier's argmax-cosine tie-breaking so the two
        // implementations are interchangeable (cos = 1 − 2·h/D).
        let mut class = 0usize;
        for (i, &d) in distances.iter().enumerate() {
            if d <= distances[class] {
                class = i;
            }
        }
        BinaryPrediction { class, distance: distances[class], distances }
    }

    /// Classifies a batch of inputs, fanning out across worker threads for
    /// large batches; per-input results are identical to
    /// [`predict`](Self::predict) and returned in input order.
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict); on invalid inputs the error for the
    /// lowest input index is returned.
    pub fn predict_batch(&self, inputs: &[&E::Input]) -> Result<Vec<BinaryPrediction>, HdcError>
    where
        E::Input: Sync,
    {
        if !self.finalized {
            return Err(HdcError::EmptyModel);
        }
        crate::batch::map_indexed(inputs, |input| self.predict(input))
    }

    /// Fraction of `(input, label)` pairs predicted correctly.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; [`HdcError::EmptyModel`] for an empty
    /// iterator.
    pub fn accuracy<'a, It>(&self, examples: It) -> Result<f64, HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (input, label) in examples {
            if self.predict(input)?.class == label {
                correct += 1;
            }
            total += 1;
        }
        if total == 0 {
            return Err(HdcError::EmptyModel);
        }
        Ok(correct as f64 / total as f64)
    }

    /// The normalized-Hamming equivalent of the fuzzer's fitness signal:
    /// distance of the query to the reference class, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] / [`HdcError::UnknownClass`] or
    /// propagates encoder errors.
    pub fn fitness(&self, input: &E::Input, reference_class: usize) -> Result<f64, HdcError> {
        let query = self.encode_packed(input)?;
        let reference = self.reference(reference_class)?;
        Ok(reference.normalized_hamming(&query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{PixelEncoder, PixelEncoderConfig};
    use crate::memory::ValueEncoding;
    use crate::HdcClassifier;

    fn encoder() -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim: 2_000,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 44,
        })
        .expect("valid config")
    }

    const INK: u8 = 224;

    fn patterns() -> [[u8; 16]; 3] {
        let i = INK;
        [
            [i, i, i, i, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, i, i, i, i],
            [i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0],
        ]
    }

    #[test]
    fn trains_and_predicts() {
        let mut model = BinaryClassifier::new(encoder(), 3);
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        for (label, p) in pats.iter().enumerate() {
            let pred = model.predict(&p[..]).unwrap();
            assert_eq!(pred.class, label);
            assert_eq!(pred.distance, pred.distances[label]);
            assert_eq!(pred.distances.len(), 3);
        }
    }

    #[test]
    fn predict_batch_matches_predict_loop() {
        let mut model = BinaryClassifier::new(encoder(), 3);
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let inputs: Vec<&[u8]> = pats.iter().cycle().take(100).map(|p| &p[..]).collect();
        let batched = model.predict_batch(&inputs).unwrap();
        for (input, prediction) in inputs.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict(input).unwrap());
        }
    }

    #[test]
    fn predict_before_finalize_errors() {
        let mut model = BinaryClassifier::new(encoder(), 2);
        model.train_one(&patterns()[0][..], 0).unwrap();
        assert!(matches!(model.predict(&patterns()[0][..]), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn bad_label_rejected() {
        let mut model = BinaryClassifier::new(encoder(), 2);
        assert!(matches!(
            model.train_one(&patterns()[0][..], 7),
            Err(HdcError::UnknownClass { class: 7, num_classes: 2 })
        ));
    }

    #[test]
    fn agrees_with_dense_model_on_single_example_classes() {
        // With one training example per class both models store the same
        // information (majority of one = identity), so they must agree.
        let mut binary = BinaryClassifier::new(encoder(), 3);
        let mut dense = HdcClassifier::new(encoder(), 3);
        let pats = patterns();
        for (l, p) in pats.iter().enumerate() {
            binary.train_one(&p[..], l).unwrap();
            dense.train_one(&p[..], l).unwrap();
        }
        binary.finalize();
        dense.finalize();
        // Probe with noisy variants of the patterns.
        for (l, p) in pats.iter().enumerate() {
            let mut probe = *p;
            probe[5] = 100;
            let b = binary.predict(&probe[..]).unwrap().class;
            let d = dense.predict(&probe[..]).unwrap().class;
            assert_eq!(b, d, "models disagree on a near-prototype probe of class {l}");
        }
    }

    #[test]
    fn accuracy_on_training_set() {
        let mut model = BinaryClassifier::new(encoder(), 3);
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let acc = model.accuracy(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fitness_lower_for_own_class() {
        let mut model = BinaryClassifier::new(encoder(), 3);
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let own = model.fitness(&pats[0][..], 0).unwrap();
        let other = model.fitness(&pats[0][..], 1).unwrap();
        assert!(own < other, "own {own} vs other {other}");
        assert!((0.0..=1.0).contains(&own));
    }

    #[test]
    fn majority_bundling_tolerates_outliers() {
        let mut model = BinaryClassifier::new(encoder(), 2);
        let pats = patterns();
        // Class 0: three copies of pattern 0 and one outlier (pattern 1);
        // majority keeps the class usable.
        for _ in 0..3 {
            model.train_one(&pats[0][..], 0).unwrap();
        }
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 1).unwrap();
        model.finalize();
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 0);
    }

    #[test]
    fn accuracy_empty_errors() {
        let mut model = BinaryClassifier::new(encoder(), 2);
        model.train_one(&patterns()[0][..], 0).unwrap();
        model.finalize();
        assert!(model.accuracy(std::iter::empty::<(&[u8], usize)>()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        let _ = BinaryClassifier::new(encoder(), 0);
    }

    /// The pre-`BitCounter` training path: scalar per-component set-bit
    /// counters and the scalar majority rule (`2c > n → 1`, `2c < n → 0`,
    /// tie → even component index). Kept as the reference oracle the
    /// word-parallel finalize is pinned against.
    fn reference_finalize<E: Encoder<Input = [u8]>>(
        encoder: &E,
        examples: &[(&[u8], usize)],
        num_classes: usize,
    ) -> Vec<PackedHypervector> {
        let dim = encoder.dim();
        let mut counters = vec![vec![0u32; dim]; num_classes];
        let mut counts = vec![0u32; num_classes];
        for (input, label) in examples {
            let packed = PackedHypervector::from(&encoder.encode(input).unwrap());
            for (i, c) in counters[*label].iter_mut().enumerate() {
                if packed.bit(i) {
                    *c += 1;
                }
            }
            counts[*label] += 1;
        }
        counters
            .iter()
            .zip(&counts)
            .map(|(counter, &count)| {
                let mut reference = PackedHypervector::zeros(dim);
                for (i, &ones) in counter.iter().enumerate() {
                    let bit = match (2 * u64::from(ones)).cmp(&u64::from(count)) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => i % 2 == 0,
                    };
                    if bit {
                        reference.set_bit(i, true);
                    }
                }
                reference
            })
            .collect()
    }

    #[test]
    fn packed_finalize_matches_scalar_reference_oracle() {
        // Even and odd per-class example counts (ties only occur for
        // even counts) across tail dims that exercise word masking.
        for dim in [63usize, 64, 65, 127, 2_000] {
            let enc = PixelEncoder::new(PixelEncoderConfig {
                dim,
                width: 4,
                height: 4,
                levels: 8,
                value_encoding: ValueEncoding::Random,
                seed: 91,
            })
            .unwrap();
            let pats = patterns();
            // Class 0: 4 examples (even, ties possible); class 1: 3 (odd);
            // class 2: 1 (identity).
            let examples: Vec<(&[u8], usize)> = vec![
                (&pats[0][..], 0),
                (&pats[1][..], 0),
                (&pats[0][..], 0),
                (&pats[2][..], 0),
                (&pats[1][..], 1),
                (&pats[2][..], 1),
                (&pats[1][..], 1),
                (&pats[2][..], 2),
            ];
            let expected = reference_finalize(&enc, &examples, 3);

            let mut model = BinaryClassifier::new(enc, 3);
            for (input, label) in &examples {
                model.train_one(input, *label).unwrap();
            }
            model.finalize();
            for (class, want) in expected.iter().enumerate() {
                assert_eq!(
                    model.reference(class).unwrap(),
                    want,
                    "dim {dim} class {class}: packed finalize diverged from scalar oracle"
                );
            }
        }
    }

    #[test]
    fn rescale_halves_counters_but_predictions_are_bit_identical() {
        // The overflow guard: rescaling must preserve every packed
        // reference bit-for-bit (sign and tie structure of the implied
        // sums survive the halving), across even and odd bundle sizes
        // and tail dims that exercise word masking.
        for dim in [63usize, 64, 65, 127, 2_000] {
            let enc = PixelEncoder::new(PixelEncoderConfig {
                dim,
                width: 4,
                height: 4,
                levels: 8,
                value_encoding: ValueEncoding::Random,
                seed: 91,
            })
            .unwrap();
            let pats = patterns();
            let mut model = BinaryClassifier::new(enc, 3);
            // Class 0: 4 examples (even count — ties possible); class 1:
            // 3 (odd); class 2: 1 (also below any sane limit, untouched).
            for (input, label) in [
                (&pats[0], 0),
                (&pats[1], 0),
                (&pats[0], 0),
                (&pats[2], 0),
                (&pats[1], 1),
                (&pats[2], 1),
                (&pats[1], 1),
                (&pats[2], 2),
            ] {
                model.train_one(&input[..], label).unwrap();
            }
            model.finalize();
            let control = model.clone();
            let before: Vec<_> = (0..3).map(|c| model.reference(c).unwrap().clone()).collect();
            let counts_before: Vec<_> = (0..3).map(|c| model.counter(c).unwrap().count()).collect();

            assert!(model.rescale_counters(2), "classes 0 and 1 are at/over the limit");
            assert!(model.is_finalized(), "rescale must leave the model serving");
            for (class, reference) in before.iter().enumerate() {
                assert_eq!(
                    model.reference(class).unwrap(),
                    reference,
                    "dim {dim} class {class}: rescale changed the reference"
                );
            }
            // Bundle sizes actually shrank (n → 2⌈n/4⌉) where triggered.
            assert_eq!(model.counter(0).unwrap().count(), 2 * counts_before[0].div_ceil(4));
            assert_eq!(model.counter(1).unwrap().count(), 2 * counts_before[1].div_ceil(4));
            assert_eq!(model.counter(2).unwrap().count(), counts_before[2], "below limit");
            // No class at/over the (new, smaller) counts: idempotent now.
            assert!(!model.rescale_counters(1 << 31));

            // Predictions and the feedback mispredict-gate are
            // bit-identical to the unrescaled control, mislabeled probes
            // included. (Feedback runs on clones: once an update fires,
            // future training legitimately weighs new examples more
            // against the halved bundle — the guarantee is that the
            // *decision surface at rescale time* is unchanged.)
            for p in &pats {
                assert_eq!(
                    model.predict(&p[..]).unwrap(),
                    control.predict(&p[..]).unwrap(),
                    "dim {dim}: rescale changed a prediction"
                );
                let mut probe = model.clone();
                let mut probe_control = control.clone();
                let fb = probe.feedback(&p[..], 0).unwrap();
                let fb_control = probe_control.feedback(&p[..], 0).unwrap();
                assert_eq!(fb.updated, fb_control.updated, "dim {dim}: feedback gate diverged");
                assert_eq!(fb.prediction.class, fb_control.prediction.class, "dim {dim}");
            }
        }
    }

    #[test]
    fn train_after_finalize_continues_accumulating() {
        let mut model = BinaryClassifier::new(encoder(), 2);
        let pats = patterns();
        model.train_one(&pats[0][..], 0).unwrap();
        model.train_one(&pats[1][..], 1).unwrap();
        model.finalize();
        let before = model.reference(0).unwrap().clone();
        // More training invalidates the snapshot, then refreshes it.
        model.train_one(&pats[2][..], 0).unwrap();
        model.train_one(&pats[2][..], 0).unwrap();
        assert!(!model.is_finalized());
        model.finalize();
        let after = model.reference(0).unwrap();
        assert_ne!(&before, after, "majority over 3 examples must differ from 1");
    }
}
