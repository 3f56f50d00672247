//! The end-to-end HDC classifier: encoder + associative memory.
//!
//! Implements the paper's three phases (§III): encoding, one-shot training
//! into the associative memory, and similarity-check testing. Also provides
//! the two retraining modes used by the §V-D defense case study.
//!
//! A query stays packed from encode to scan: the encoder bundles it into a
//! [`BitCounter`], the counter bipolarizes straight to packed words, and
//! [`AssociativeMemory::similarities_packed_into`] scans those words.
//! Training adds the same packed words to the class counters.

use crate::am::{argmax, AssociativeMemory};
use crate::batch;
use crate::encoder::{bundle_query, Encoder};
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::BitCounter;
use crate::packed::PackedHypervector;
use std::sync::Arc;

/// The outcome of classifying one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted class (argmax of cosine similarity).
    pub class: usize,
    /// Cosine similarity of the query to the predicted class reference.
    pub similarity: f64,
    /// Margin between the best and second-best similarity (0 for a
    /// single-class model). Small margins flag near-boundary inputs —
    /// exactly the "vulnerable cases" §V-B highlights.
    pub margin: f64,
    /// Cosine similarity against every class reference, in class order.
    pub similarities: Vec<f64>,
}

/// The outcome of one online [`HdcClassifier::feedback`] round.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Whether an adaptive update was applied (the model mispredicted).
    pub updated: bool,
    /// What the model predicted *before* any update.
    pub prediction: Prediction,
}

/// Builds a [`Prediction`] from a similarity vector and its argmax.
fn prediction_from_similarities(class: usize, similarities: Vec<f64>) -> Prediction {
    let best = similarities[class];
    let second = similarities
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != class)
        .map(|(_, &s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    let margin = if second.is_finite() { best - second } else { 0.0 };
    Prediction { class, similarity: best, margin, similarities }
}

/// An HDC classifier generic over its [`Encoder`].
///
/// The raw input type is the encoder's [`Encoder::Input`] (e.g. `[u8]`
/// pixel arrays for the paper's image model, `[f64]` for records/signals).
///
/// ```
/// use hdc::prelude::*;
///
/// let encoder = PixelEncoder::new(PixelEncoderConfig {
///     dim: 1_000, width: 3, height: 3, levels: 4,
///     value_encoding: ValueEncoding::Random, seed: 2,
/// })?;
/// let mut model = HdcClassifier::new(encoder, 2);
/// model.train_one(&[0u8; 9][..], 0)?;
/// model.train_one(&[255u8; 9][..], 1)?;
/// model.finalize();
/// assert_eq!(model.predict(&[255u8; 9][..])?.class, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
///
/// ## Encoder sharing
///
/// The encoder lives behind an [`Arc`]: item memories are immutable after
/// construction, so every clone of a classifier shares them. `clone()`
/// therefore copies only the per-class counters and packed references —
/// which is what makes the serving layer's clone-train-publish cycle cheap
/// (the online-training publish path never duplicates the encoder; see the
/// `serve_train` bench row).
#[derive(Debug)]
pub struct HdcClassifier<E> {
    encoder: Arc<E>,
    am: AssociativeMemory,
}

/// Manual impl: cloning must not require `E: Clone` — the encoder is
/// shared, not copied (the Arc-encoder publish-path invariant, asserted by
/// `Arc::ptr_eq` in the serve-layer tests).
impl<E> Clone for HdcClassifier<E> {
    fn clone(&self) -> Self {
        Self { encoder: Arc::clone(&self.encoder), am: self.am.clone() }
    }
}

impl<E> HdcClassifier<E> {
    /// The associative memory (class counters and packed references).
    pub fn associative_memory(&self) -> &AssociativeMemory {
        &self.am
    }

    /// The encoder.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// The shared encoder handle. Clones of this classifier point at the
    /// same allocation (`Arc::ptr_eq` holds across clones), which is the
    /// invariant the serving layer's publish path relies on.
    pub fn encoder_arc(&self) -> &Arc<E> {
        &self.encoder
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.am.num_classes()
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.am.dim()
    }

    /// Bipolarizes the associative memory; must be called after training or
    /// retraining and before prediction.
    pub fn finalize(&mut self) {
        self.am.finalize();
    }

    /// Whether the model is ready for prediction.
    pub fn is_finalized(&self) -> bool {
        self.am.is_finalized()
    }

    /// The bundle counter of `class` (see
    /// [`AssociativeMemory::counter`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for an out-of-range class.
    pub fn counter(&self, class: usize) -> Result<&BitCounter, HdcError> {
        self.am.counter(class)
    }

    /// Halves every class counter whose bundle size reached `limit`,
    /// leaving every reference — and so every prediction and feedback
    /// gate — bit-identical (see
    /// [`AssociativeMemory::rescale_counters`]). Returns whether any class
    /// was rescaled.
    ///
    /// The serving layer runs this check deterministically at every
    /// publish *and* on WAL replay, so a recovered process makes the
    /// same rescale decisions at the same versions as one that never
    /// crashed.
    pub fn rescale_counters(&mut self, limit: u64) -> bool {
        self.am.rescale_counters(limit)
    }
}

impl<E: Encoder> HdcClassifier<E> {
    /// Creates an untrained classifier with `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(encoder: E, num_classes: usize) -> Self {
        Self::with_shared_encoder(Arc::new(encoder), num_classes)
    }

    /// Creates an untrained classifier on an already-shared encoder, so
    /// several models (e.g. two classifiers under differential test) can
    /// share one set of item memories.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn with_shared_encoder(encoder: Arc<E>, num_classes: usize) -> Self {
        let dim = encoder.dim();
        Self { encoder, am: AssociativeMemory::new(num_classes, dim) }
    }

    /// Reconstructs a classifier from per-class counters (persistence
    /// path); the references are re-derived immediately, so the returned
    /// model both serves and keeps learning.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] for an empty counter vector and
    /// [`HdcError::DimensionMismatch`] when a counter does not match the
    /// encoder's dimension.
    pub fn from_counters(encoder: E, counters: Vec<BitCounter>) -> Result<Self, HdcError> {
        let dim = encoder.dim();
        if let Some(bad) = counters.iter().find(|c| c.dim() != dim) {
            return Err(HdcError::DimensionMismatch { expected: dim, actual: bad.dim() });
        }
        Ok(Self { encoder: Arc::new(encoder), am: AssociativeMemory::from_counters(counters)? })
    }

    /// Encodes `input` into its query hypervector.
    ///
    /// # Errors
    ///
    /// Propagates encoder shape errors.
    pub fn encode(&self, input: &E::Input) -> Result<Hypervector, HdcError> {
        self.encoder.encode(input)
    }

    /// Encodes `input` to its packed query, bundling into the counter in
    /// `slot` (reused across calls) when the encoder has a counter form, so
    /// no `Vec<i8>` is built.
    pub(crate) fn query(
        &self,
        input: &E::Input,
        slot: &mut Option<BitCounter>,
    ) -> Result<PackedHypervector, HdcError> {
        match bundle_query(&*self.encoder, input, None, slot)? {
            Some(query) => Ok(query),
            None => Ok(self.encoder.encode(input)?.packed().clone()),
        }
    }

    /// Classifies a packed query.
    pub(crate) fn predict_packed(&self, query: &PackedHypervector) -> Result<Prediction, HdcError> {
        let mut sims = Vec::with_capacity(self.num_classes());
        self.am.similarities_packed_into(query, &mut sims)?;
        Ok(prediction_from_similarities(argmax(&sims), sims))
    }

    /// `(predicted class, 1 − cosine to the reference class)` of a packed
    /// query, scanning into the reusable `sims` buffer.
    pub(crate) fn score(
        &self,
        query: &PackedHypervector,
        reference: usize,
        sims: &mut Vec<f64>,
    ) -> Result<(usize, f64), HdcError> {
        self.am.similarities_packed_into(query, sims)?;
        let similarity = *sims
            .get(reference)
            .ok_or(HdcError::UnknownClass { class: reference, num_classes: self.num_classes() })?;
        Ok((argmax(sims), 1.0 - similarity))
    }

    /// One-shot training: bundles the encoded input into its class (§III-B).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for a bad label or propagates
    /// encoder errors.
    pub fn train_one(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        let query = self.query(input, &mut None)?;
        self.am.add(label, &query)
    }

    /// Trains on a batch of `(input, label)` pairs and finalizes.
    ///
    /// # Errors
    ///
    /// Fails fast on the first bad label or malformed input.
    pub fn train_batch<'a, It>(&mut self, examples: It) -> Result<(), HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let mut slot = None;
        for (input, label) in examples {
            let query = self.query(input, &mut slot)?;
            self.am.add(label, &query)?;
        }
        self.finalize();
        Ok(())
    }

    /// Classifies `input` by maximum cosine similarity (§III-C).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] if the model was never finalized, or
    /// propagates encoder errors.
    pub fn predict(&self, input: &E::Input) -> Result<Prediction, HdcError> {
        self.predict_packed(&self.query(input, &mut None)?)
    }

    /// Classifies an already-encoded query hypervector.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict), minus encoder errors.
    pub fn predict_encoded(&self, query: &Hypervector) -> Result<Prediction, HdcError> {
        self.predict_packed(query.packed())
    }

    /// Classifies a batch of inputs, fanning out across worker threads for
    /// large batches. Per-input results are identical to
    /// [`predict`](Self::predict) and returned in input order; each worker
    /// reuses one bundle counter across its chunk.
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict); on invalid inputs the error for the
    /// lowest input index is returned.
    pub fn predict_batch(&self, inputs: &[&E::Input]) -> Result<Vec<Prediction>, HdcError>
    where
        E::Input: Sync,
    {
        if !self.is_finalized() {
            return Err(HdcError::EmptyModel);
        }
        self.encoder.warm_up();
        batch::map_chunks(inputs, |chunk| {
            let mut slot = None;
            chunk.iter().map(|input| self.predict_packed(&self.query(input, &mut slot)?)).collect()
        })
    }

    /// Classifies a batch of already-encoded queries; the encoded
    /// counterpart of [`predict_batch`](Self::predict_batch).
    ///
    /// # Errors
    ///
    /// Same as [`predict_encoded`](Self::predict_encoded); on invalid
    /// queries the error for the lowest input index is returned.
    pub fn predict_encoded_batch(
        &self,
        queries: &[Hypervector],
    ) -> Result<Vec<Prediction>, HdcError> {
        Ok(self
            .am
            .classify_batch(queries)?
            .into_iter()
            .map(|(class, sims)| prediction_from_similarities(class, sims))
            .collect())
    }

    /// One shared pass per input yielding `(predicted class, 1 − cosine to
    /// the reference class)` — the exact pair the fuzzing loop consumes for
    /// every candidate (§IV). Runs inline (fuzzer batches are small) and
    /// reuses one bundle counter and one similarity buffer across the
    /// whole batch.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for a bad `reference`,
    /// [`HdcError::EmptyModel`] before finalization, or encoder errors.
    pub fn evaluate_batch(
        &self,
        inputs: &[&E::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        if reference >= self.num_classes() {
            return Err(HdcError::UnknownClass {
                class: reference,
                num_classes: self.num_classes(),
            });
        }
        let mut slot = None;
        let mut sims = Vec::with_capacity(self.num_classes());
        inputs
            .iter()
            .map(|input| self.score(&self.query(input, &mut slot)?, reference, &mut sims))
            .collect()
    }

    /// The fuzzer's greybox fitness signal (§IV):
    /// `1 − cosine(AM[reference], encode(input))`.
    ///
    /// Higher fitness = the input has drifted further from its reference
    /// class, i.e. is closer to flipping the prediction.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`], or
    /// propagates encoder errors.
    pub fn fitness(&self, input: &E::Input, reference_class: usize) -> Result<f64, HdcError> {
        let query = self.query(input, &mut None)?;
        Ok(self.score(&query, reference_class, &mut Vec::new())?.1)
    }

    /// Online learning: bundles one labeled example into its class and
    /// re-finalizes **only that class** (the counters are retained after
    /// finalize, and [`AssociativeMemory::finalize`] re-bipolarizes dirty
    /// classes only). The resulting model is bit-identical to one
    /// retrained from scratch on the concatenated dataset, at the cost of
    /// one encode plus one class bipolarization — orders of magnitude
    /// cheaper than a full retrain (see the `train_partial_fit` bench row).
    ///
    /// The model stays finalized, so it can keep serving predictions
    /// between updates.
    ///
    /// # Errors
    ///
    /// Same as [`train_one`](Self::train_one); on error the model is
    /// unchanged.
    pub fn partial_fit(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        self.train_one(input, label)?;
        self.finalize();
        Ok(())
    }

    /// Online learning over a batch: bundles every `(input, label)` pair,
    /// then re-finalizes the dirty classes once. Returns the number of
    /// examples applied.
    ///
    /// Atomic: every example is encoded and validated **before** any
    /// counter is touched, so a bad example leaves the model exactly as it
    /// was (important for the serving layer, where one request's malformed
    /// input must not corrupt the shared model).
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
        let mut slot = None;
        let mut encoded: Vec<(PackedHypervector, usize)> = Vec::new();
        for (input, label) in examples {
            if label >= num_classes {
                return Err(HdcError::UnknownClass { class: label, num_classes });
            }
            encoded.push((self.query(input, &mut slot)?, label));
        }
        for (query, label) in &encoded {
            self.am.add(*label, query)?;
        }
        self.finalize();
        Ok(encoded.len())
    }

    /// Online feedback on a prior prediction: predicts `input`, and if the
    /// prediction disagrees with the caller-supplied true `label`, applies
    /// the adaptive (perceptron-style) update — add the query to `label`,
    /// subtract it from the wrong class — and re-finalizes the two dirty
    /// classes. A correct prediction applies no update.
    ///
    /// This is [`retrain_adaptive`](Self::retrain_adaptive) packaged for
    /// online serving: the model stays finalized, and the caller learns
    /// both what the model predicted and whether an update was applied.
    ///
    /// # Errors
    ///
    /// Same as [`retrain_adaptive`](Self::retrain_adaptive).
    pub fn feedback(&mut self, input: &E::Input, label: usize) -> Result<Feedback, HdcError> {
        let (prediction, updated) = self.adapt(input, label)?;
        if updated {
            self.finalize();
        }
        Ok(Feedback { updated, prediction })
    }

    /// Additive retraining (§V-D defense): bundles a correctly labeled
    /// example into its class. Call [`finalize`](Self::finalize) afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`train_one`](Self::train_one).
    pub fn retrain_one(&mut self, input: &E::Input, label: usize) -> Result<(), HdcError> {
        self.train_one(input, label)
    }

    /// Adaptive (perceptron-style) retraining: if the model mispredicts,
    /// the query is added to the true class and subtracted from the wrongly
    /// predicted class. Returns whether an update was applied.
    ///
    /// This is the "retraining mechanism" the paper's §V-E discussion points
    /// to as active HDC research; it converges faster than purely additive
    /// updates when classes overlap.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] if called before finalization, or
    /// propagates label/encoder errors.
    pub fn retrain_adaptive(&mut self, input: &E::Input, label: usize) -> Result<bool, HdcError> {
        Ok(self.adapt(input, label)?.1)
    }

    /// The adaptive update shared by [`feedback`](Self::feedback) and
    /// [`retrain_adaptive`](Self::retrain_adaptive): the prior prediction
    /// and whether the update was applied. Leaves the model unfinalized
    /// after an update.
    fn adapt(&mut self, input: &E::Input, label: usize) -> Result<(Prediction, bool), HdcError> {
        if label >= self.num_classes() {
            return Err(HdcError::UnknownClass { class: label, num_classes: self.num_classes() });
        }
        let query = self.query(input, &mut None)?;
        let prediction = self.predict_packed(&query)?;
        if prediction.class == label {
            return Ok((prediction, false));
        }
        self.am.add(label, &query)?;
        self.am.subtract(prediction.class, &query)?;
        Ok((prediction, true))
    }

    /// Fraction of `(input, label)` pairs predicted correctly.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn accuracy<'a, It>(&self, examples: It) -> Result<f64, HdcError>
    where
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let mut slot = None;
        let mut correct = 0usize;
        let mut total = 0usize;
        for (input, label) in examples {
            if self.predict_packed(&self.query(input, &mut slot)?)?.class == label {
                correct += 1;
            }
            total += 1;
        }
        if total == 0 {
            return Err(HdcError::EmptyModel);
        }
        Ok(correct as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::Accumulator;
    use crate::encoder::{bipolarize_sums, PixelEncoder, PixelEncoderConfig};
    use crate::memory::ValueEncoding;

    fn tiny_model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 2_000,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 77,
        })
        .unwrap();
        HdcClassifier::new(encoder, 3)
    }

    /// Three visually distinct 4×4 patterns. Pixel values use the full
    /// 0–255 range because `quantize` buckets that range into `levels`.
    const INK: u8 = 224;

    fn patterns() -> [[u8; 16]; 3] {
        let i = INK;
        [
            [i, i, i, i, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], // top bar
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, i, i, i, i], // bottom bar
            [i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0, i, 0, 0, 0], // left bar
        ]
    }

    #[test]
    fn train_and_predict_separable_patterns() {
        let mut model = tiny_model();
        for (label, p) in patterns().iter().enumerate() {
            model.train_one(&p[..], label).unwrap();
        }
        model.finalize();
        for (label, p) in patterns().iter().enumerate() {
            let pred = model.predict(&p[..]).unwrap();
            assert_eq!(pred.class, label);
            assert!(pred.similarity > 0.5);
            assert!(pred.margin > 0.0);
            assert_eq!(pred.similarities.len(), 3);
        }
    }

    #[test]
    fn predict_before_finalize_errors() {
        let mut model = tiny_model();
        model.train_one(&patterns()[0][..], 0).unwrap();
        assert!(matches!(model.predict(&patterns()[0][..]), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn train_batch_finalizes() {
        let mut model = tiny_model();
        let pats = patterns();
        let examples = pats.iter().enumerate().map(|(l, p)| (&p[..], l));
        model.train_batch(examples).unwrap();
        assert!(model.is_finalized());
        assert_eq!(model.predict(&pats[1][..]).unwrap().class, 1);
    }

    #[test]
    fn bad_label_rejected() {
        let mut model = tiny_model();
        assert!(matches!(
            model.train_one(&patterns()[0][..], 9),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn fitness_low_for_own_class() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let own = model.fitness(&pats[0][..], 0).unwrap();
        let other = model.fitness(&pats[0][..], 1).unwrap();
        assert!(own < other, "fitness to own class {own} must be below other class {other}");
        assert!((0.0..=2.0).contains(&own));
    }

    #[test]
    fn accuracy_on_training_set_is_one() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let acc = model.accuracy(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_empty_set_errors() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        assert!(model.accuracy(std::iter::empty::<(&[u8], usize)>()).is_err());
    }

    #[test]
    fn adaptive_retrain_no_update_when_correct() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let updated = model.retrain_adaptive(&pats[0][..], 0).unwrap();
        assert!(!updated);
        assert!(model.is_finalized(), "no update must not invalidate the snapshot");
    }

    #[test]
    fn adaptive_retrain_fixes_forced_error() {
        let mut model = tiny_model();
        let pats = patterns();
        // Mislabel on purpose: train pattern 0 as class 1.
        model.train_one(&pats[0][..], 1).unwrap();
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 2).unwrap();
        model.finalize();
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 1);

        // A few adaptive rounds with correct labels repair the model.
        for _ in 0..5 {
            for (l, p) in pats.iter().enumerate() {
                model.retrain_adaptive(&p[..], l).unwrap();
                model.finalize();
            }
        }
        assert_eq!(model.predict(&pats[0][..]).unwrap().class, 0);
    }

    #[test]
    fn retrain_one_strengthens_class() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let before = model.predict(&pats[0][..]).unwrap().similarity;
        for _ in 0..3 {
            model.retrain_one(&pats[0][..], 0).unwrap();
        }
        model.finalize();
        let after = model.predict(&pats[0][..]).unwrap().similarity;
        assert!(after >= before - 0.05, "retraining on an example must not hurt it");
    }

    #[test]
    fn predict_batch_matches_predict_loop() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        // Enough inputs to cross the parallel threshold.
        let inputs: Vec<&[u8]> = pats.iter().cycle().take(200).map(|p| &p[..]).collect();
        let batched = model.predict_batch(&inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (input, prediction) in inputs.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict(input).unwrap());
        }
    }

    #[test]
    fn predict_encoded_batch_matches_encoded_loop() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let queries: Vec<_> = pats.iter().map(|p| model.encode(&p[..]).unwrap()).collect();
        let batched = model.predict_encoded_batch(&queries).unwrap();
        for (q, prediction) in queries.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict_encoded(q).unwrap());
        }
    }

    #[test]
    fn predict_batch_unfinalized_errors() {
        let model = tiny_model();
        let pats = patterns();
        let inputs: Vec<&[u8]> = vec![&pats[0][..]];
        assert!(matches!(model.predict_batch(&inputs), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn predict_batch_reports_lowest_index_error() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let bad: [u8; 3] = [1, 2, 3]; // wrong shape for the 4×4 encoder
        let mut inputs: Vec<&[u8]> = pats.iter().cycle().take(100).map(|p| &p[..]).collect();
        inputs[70] = &bad[..];
        inputs[90] = &bad[..];
        assert!(matches!(
            model.predict_batch(&inputs),
            Err(HdcError::InputShapeMismatch { expected: 16, actual: 3 })
        ));
    }

    #[test]
    fn evaluate_batch_matches_predict_and_fitness() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let inputs: Vec<&[u8]> = pats.iter().map(|p| &p[..]).collect();
        let evaluated = model.evaluate_batch(&inputs, 1).unwrap();
        for (input, &(class, fitness)) in inputs.iter().zip(&evaluated) {
            assert_eq!(class, model.predict(input).unwrap().class);
            let expected = model.fitness(input, 1).unwrap();
            assert!((fitness - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluate_batch_rejects_bad_reference() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let inputs: Vec<&[u8]> = vec![&pats[0][..]];
        assert!(matches!(
            model.evaluate_batch(&inputs, 9),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn partial_fit_matches_full_retrain() {
        let pats = patterns();
        // Online model: train two classes, then partial_fit more examples.
        let mut online = tiny_model();
        online.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        online.partial_fit(&pats[0][..], 0).unwrap();
        assert!(online.is_finalized(), "partial_fit must leave the model serving");
        online.partial_fit_batch([(&pats[1][..], 1), (&pats[2][..], 2)]).unwrap();
        assert!(online.is_finalized());

        // Oracle: retrain from scratch on the concatenated dataset.
        let mut scratch = tiny_model();
        let all: Vec<(&[u8], usize)> = pats
            .iter()
            .enumerate()
            .map(|(l, p)| (&p[..], l))
            .chain([(&pats[0][..], 0), (&pats[1][..], 1), (&pats[2][..], 2)])
            .collect();
        scratch.train_batch(all.iter().map(|&(p, l)| (p, l))).unwrap();

        for c in 0..3 {
            assert_eq!(
                online.associative_memory().reference(c).unwrap(),
                scratch.associative_memory().reference(c).unwrap(),
                "class {c}: partial_fit diverged from full retrain"
            );
        }
    }

    #[test]
    fn partial_fit_batch_is_atomic_on_error() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let before = model.counter(0).unwrap().clone();
        let bad: [u8; 3] = [1, 2, 3];
        // Good example first, bad second: neither may be applied.
        let err = model.partial_fit_batch([(&pats[0][..], 0), (&bad[..], 1)]).unwrap_err();
        assert!(matches!(err, HdcError::InputShapeMismatch { .. }));
        assert_eq!(*model.counter(0).unwrap(), before);
        assert!(model.is_finalized(), "failed batch must not definalize the model");
        // Bad label is rejected before any encode.
        assert!(matches!(
            model.partial_fit_batch([(&pats[0][..], 9)]),
            Err(HdcError::UnknownClass { class: 9, num_classes: 3 })
        ));
    }

    #[test]
    fn feedback_updates_only_on_mistake() {
        let mut model = tiny_model();
        let pats = patterns();
        // Mislabel on purpose so pattern 0 predicts class 1.
        model.train_one(&pats[0][..], 1).unwrap();
        model.train_one(&pats[1][..], 0).unwrap();
        model.train_one(&pats[2][..], 2).unwrap();
        model.finalize();

        // Correct prediction: no update, model stays finalized.
        let fb = model.feedback(&pats[2][..], 2).unwrap();
        assert!(!fb.updated);
        assert_eq!(fb.prediction.class, 2);
        assert!(model.is_finalized());

        // Wrong prediction: adaptive update applied, model repaired after
        // a few rounds, still finalized throughout.
        let mut rounds = 0;
        while model.predict(&pats[0][..]).unwrap().class != 0 {
            let fb = model.feedback(&pats[0][..], 0).unwrap();
            assert!(model.is_finalized());
            assert!(fb.updated, "a mispredicting feedback round must update");
            rounds += 1;
            assert!(rounds < 20, "feedback failed to repair the model");
        }

        assert!(matches!(
            model.feedback(&pats[0][..], 7),
            Err(HdcError::UnknownClass { class: 7, num_classes: 3 })
        ));
    }

    #[test]
    fn predict_encoded_matches_predict() {
        let mut model = tiny_model();
        let pats = patterns();
        model.train_batch(pats.iter().enumerate().map(|(l, p)| (&p[..], l))).unwrap();
        let hv = model.encode(&pats[2][..]).unwrap();
        assert_eq!(model.predict(&pats[2][..]).unwrap(), model.predict_encoded(&hv).unwrap());
    }

    #[test]
    fn feedback_matches_accumulator_sum_semantics() {
        // The complement-add subtract: after feedback updates the counters'
        // implied sums (2c − n) equal the scalar accumulator oracle's under
        // the same add/subtract history.
        let pats = patterns();
        let mut model = tiny_model();
        let mut oracle: Vec<Accumulator> = (0..3).map(|_| Accumulator::zeros(2_000)).collect();
        for (l, p) in pats.iter().enumerate() {
            model.train_one(&p[..], l).unwrap();
            oracle[l].add(&model.encode(&p[..]).unwrap()).unwrap();
        }
        model.finalize();
        // Lie about labels to force updates.
        for (p, label) in [(&pats[1], 0), (&pats[2], 0), (&pats[0], 2)] {
            let fb = model.feedback(&p[..], label).unwrap();
            assert!(fb.updated);
            let query = model.encode(&p[..]).unwrap();
            oracle[label].add(&query).unwrap();
            oracle[fb.prediction.class].subtract(&query).unwrap();
        }
        for (class, acc) in oracle.iter().enumerate() {
            let sums = model.counter(class).unwrap().clone().sums();
            assert_eq!(sums, acc.sums(), "class {class}: implied sums diverged from the oracle");
            assert_eq!(
                model.associative_memory().reference(class).unwrap(),
                bipolarize_sums(acc.sums()).packed(),
                "class {class}"
            );
        }
    }

    #[test]
    fn rescale_halves_counters_but_predictions_are_bit_identical() {
        // The overflow guard: rescaling must preserve every packed
        // reference bit-for-bit (sign and tie structure of the implied
        // sums survive the halving), across even and odd bundle sizes,
        // subtract histories, and tail dims that exercise word masking.
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
            let mut model = HdcClassifier::new(enc, 3);
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
            // A mislabeled feedback round adds to class 1 (count 3 → 4)
            // and subtracts from class 0 (count 4 → 5).
            let fb = model.feedback(&pats[0][..], 1).unwrap();
            assert!(fb.updated && fb.prediction.class == 0, "dim {dim}");
            let control = model.clone();
            let before: Vec<_> =
                (0..3).map(|c| model.associative_memory().reference(c).unwrap().clone()).collect();
            let counts_before: Vec<_> = (0..3).map(|c| model.counter(c).unwrap().count()).collect();

            assert!(model.rescale_counters(2), "classes 0 and 1 are at/over the limit");
            assert!(model.is_finalized(), "rescale must leave the model serving");
            for (class, reference) in before.iter().enumerate() {
                assert_eq!(
                    model.associative_memory().reference(class).unwrap(),
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
                assert_eq!(fb, fb_control, "dim {dim}: feedback gate diverged");
            }
        }
    }
}
