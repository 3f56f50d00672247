//! The model surface consumers bound on.
//!
//! The paper's differential-testing premise is that *any* HDC classifier
//! exposing predictions and a distance signal can be tested; this module
//! is the library-side realization of that premise. The [`Model`] trait
//! carries prediction (single and batch), the fuzzer's fitness/evaluate
//! signals, the delta-encoded candidate path, online learning
//! (`partial_fit_batch`, `feedback`) and warm-up, so campaigns, the
//! cross-model differential oracle, and the serving layer are written
//! once. [`HdcClassifier`] implements it over any [`Encoder`].
//!
//! [`AnyModel`] is the deployment form: the classifier over the paper's
//! [`PixelEncoder`], which the registry, the CLI and [`crate::io`] traffic
//! in.
//!
//! ## The Arc-encoder publish invariant
//!
//! The classifier holds its encoder behind an `Arc`, so `clone()` on a
//! model copies only counters and class vectors. The serving layer's
//! online-training publish path (clone → `partial_fit_batch` → swap)
//! therefore never duplicates an item memory: `Arc::ptr_eq` holds between
//! the model before and after any number of published training batches
//! (asserted by the serve-layer tests, visible in the `train_partial_fit`
//! and `serve_train` bench rows).

use crate::classifier::{Feedback, HdcClassifier, Prediction};
use crate::encoder::{bundle_query, Encoder, PixelEncoder, PixelEncoderConfig};
use crate::error::HdcError;
use crate::kernel::BitCounter;
use std::io::Write;

/// One candidate for [`Model::evaluate_children`]: an input, the input it
/// was derived from, and a slot for its bundle counter.
///
/// A fuzzer keeps each surviving seed's bundle counter. A child that
/// differs from its parent in a few pixels then costs a few counter adds
/// instead of a full encode (see [`Encoder::bundle_into`]).
#[derive(Debug)]
pub struct Child<'a, I: ?Sized> {
    /// The candidate to evaluate.
    pub input: &'a I,
    /// The input the candidate was derived from, with a counter holding
    /// that input's bundle, when one is known.
    pub parent: Option<(&'a I, &'a BitCounter)>,
    /// Receives the candidate's bundle counter, or `None` when the model
    /// keeps none. A counter already here is reused for its allocation.
    pub bundle: &'a mut Option<BitCounter>,
}

/// A trainable classifier behind one polymorphic surface.
///
/// Implemented by [`HdcClassifier`] over any [`Encoder`]. Consumers —
/// `hdtest` campaigns (via its blanket `TargetModel` impl), the
/// cross-model differential oracle, the serving layer's batcher — bound on
/// this trait.
///
/// Semantics every implementation upholds:
///
/// * [`partial_fit_batch`](Self::partial_fit_batch) is **atomic** (a bad
///   example leaves the model untouched) and re-finalizes only dirty
///   classes, leaving the model serving.
/// * [`feedback`](Self::feedback) applies the adaptive update only on a
///   misprediction and reports what the model predicted beforehand.
/// * [`fitness`](Self::fitness)/[`evaluate`](Self::evaluate) expose the
///   greybox guidance signal `1 − cos`, monotone in drift.
pub trait Model: Send + Sync {
    /// Raw input type consumed by the model (e.g. `[u8]` pixels).
    type Input: ?Sized;

    /// Hypervector dimension.
    fn dim(&self) -> usize;

    /// Number of classes the model distinguishes.
    fn num_classes(&self) -> usize;

    /// Whether the model is ready for prediction.
    fn is_finalized(&self) -> bool;

    /// Classifies one input.
    ///
    /// # Errors
    ///
    /// [`HdcError::EmptyModel`] before finalization, or encoder errors.
    fn predict(&self, input: &Self::Input) -> Result<Prediction, HdcError>;

    /// Classifies a batch, results in input order and identical to a
    /// [`predict`](Self::predict) loop. Batches at or above the tunable
    /// [`crate::batch::parallel_threshold`] fan out across scoped threads
    /// (contiguous chunks, reassembled in order), so the answers stay
    /// bit-identical at any parallelism.
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict); the lowest bad index wins.
    fn predict_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Prediction>, HdcError>;

    /// The greybox guidance signal: drift of `input` away from the
    /// reference class, `1 − cos`.
    ///
    /// # Errors
    ///
    /// [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`] or encoder
    /// errors.
    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdcError>;

    /// Prediction and fitness from one model pass.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict) and [`fitness`](Self::fitness).
    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdcError>;

    /// Evaluates one whole candidate batch; the default loops
    /// [`evaluate`](Self::evaluate).
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    fn evaluate_batch(
        &self,
        inputs: &[&Self::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        inputs.iter().map(|input| self.evaluate(input, reference)).collect()
    }

    /// [`predict`](Self::predict) that also leaves the input's bundle
    /// counter in `bundle`, as the parent state of later
    /// [`evaluate_children`](Self::evaluate_children) calls. The default
    /// keeps no counter (`bundle` becomes `None`) and calls `predict`.
    ///
    /// # Errors
    ///
    /// As [`predict`](Self::predict).
    fn predict_bundle(
        &self,
        input: &Self::Input,
        bundle: &mut Option<BitCounter>,
    ) -> Result<Prediction, HdcError> {
        *bundle = None;
        self.predict(input)
    }

    /// [`evaluate_batch`](Self::evaluate_batch) over derived candidates:
    /// the same `(class, fitness)` per child, in order. Models whose
    /// encoder has an incremental form encode each child from its parent's
    /// counter and leave the child's counter in its slot. The default
    /// empties every slot and calls `evaluate_batch`.
    ///
    /// # Errors
    ///
    /// As [`evaluate_batch`](Self::evaluate_batch). Slots are unspecified
    /// after an error.
    fn evaluate_children(
        &self,
        children: &mut [Child<'_, Self::Input>],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        let inputs: Vec<&Self::Input> = children
            .iter_mut()
            .map(|child| {
                *child.bundle = None;
                child.input
            })
            .collect();
        self.evaluate_batch(&inputs, reference)
    }

    /// Absorbs labeled examples online and re-finalizes dirty classes
    /// once; returns how many examples were applied. Atomic: on error the
    /// model is unchanged.
    ///
    /// # Errors
    ///
    /// The error for the lowest bad example.
    fn partial_fit_batch(&mut self, examples: &[(&Self::Input, usize)]) -> Result<usize, HdcError>;

    /// Online feedback: adaptive update iff the model mispredicts the
    /// true `label`.
    ///
    /// # Errors
    ///
    /// [`HdcError::UnknownClass`] / [`HdcError::EmptyModel`] or encoder
    /// errors.
    fn feedback(&mut self, input: &Self::Input, label: usize) -> Result<Feedback, HdcError>;

    /// One-time preparation before heavy or concurrent use (packed-mirror
    /// prewarming). Idempotent; the default does nothing.
    fn warm_up(&self) {}
}

impl<E: Encoder> Model for HdcClassifier<E>
where
    E::Input: Sync,
{
    type Input = E::Input;

    fn dim(&self) -> usize {
        HdcClassifier::dim(self)
    }

    fn num_classes(&self) -> usize {
        HdcClassifier::num_classes(self)
    }

    fn is_finalized(&self) -> bool {
        HdcClassifier::is_finalized(self)
    }

    fn predict(&self, input: &Self::Input) -> Result<Prediction, HdcError> {
        HdcClassifier::predict(self, input)
    }

    fn predict_batch(&self, inputs: &[&Self::Input]) -> Result<Vec<Prediction>, HdcError> {
        HdcClassifier::predict_batch(self, inputs)
    }

    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdcError> {
        HdcClassifier::fitness(self, input, reference)
    }

    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdcError> {
        // One encoding serves both the prediction and the fitness signal.
        let query = self.query(input, &mut None)?;
        self.score(&query, reference, &mut Vec::new())
    }

    fn evaluate_batch(
        &self,
        inputs: &[&Self::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        HdcClassifier::evaluate_batch(self, inputs, reference)
    }

    fn predict_bundle(
        &self,
        input: &Self::Input,
        bundle: &mut Option<BitCounter>,
    ) -> Result<Prediction, HdcError> {
        match bundle_query(self.encoder(), input, None, bundle)? {
            Some(query) => self.predict_packed(&query),
            None => HdcClassifier::predict(self, input),
        }
    }

    fn evaluate_children(
        &self,
        children: &mut [Child<'_, Self::Input>],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdcError> {
        let num_classes = HdcClassifier::num_classes(self);
        if reference >= num_classes {
            return Err(HdcError::UnknownClass { class: reference, num_classes });
        }
        let mut sims = Vec::with_capacity(num_classes);
        children
            .iter_mut()
            .map(|child| {
                match bundle_query(self.encoder(), child.input, child.parent, child.bundle)? {
                    Some(query) => self.score(&query, reference, &mut sims),
                    None => Model::evaluate(self, child.input, reference),
                }
            })
            .collect()
    }

    fn partial_fit_batch(&mut self, examples: &[(&Self::Input, usize)]) -> Result<usize, HdcError> {
        HdcClassifier::partial_fit_batch(
            self,
            examples.iter().map(|&(input, label)| (input, label)),
        )
    }

    fn feedback(&mut self, input: &Self::Input, label: usize) -> Result<Feedback, HdcError> {
        HdcClassifier::feedback(self, input, label)
    }

    fn warm_up(&self) {
        self.encoder().warm_up();
    }
}

/// The deployment model: the classifier over the paper's
/// [`PixelEncoder`] — the type the registry, the CLI and the
/// [`crate::io::load_any`] loader traffic in.
pub type AnyModel = HdcClassifier<PixelEncoder>;

impl HdcClassifier<PixelEncoder> {
    /// The pixel-encoder configuration (shape, levels, seed).
    pub fn config(&self) -> &PixelEncoderConfig {
        self.encoder().config()
    }

    /// Serializes the model as `HDB1` (see
    /// [`crate::io::save_pixel_classifier`]); the counterpart of
    /// [`crate::io::load_any`]. The payload is the trainable counter
    /// state, so the reloaded model keeps learning.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Io`] on write failure.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), HdcError> {
        crate::io::save_pixel_classifier(self, writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::ValueEncoding;
    use std::sync::Arc;

    fn encoder(dim: usize) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 23,
        })
        .unwrap()
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

    fn any_model() -> AnyModel {
        let mut model = HdcClassifier::new(encoder(2_000), 3);
        for (l, p) in patterns().iter().enumerate() {
            model.train_one(&p[..], l).unwrap();
        }
        model.finalize();
        model
    }

    #[test]
    fn metadata_through_the_trait() {
        let m = any_model();
        assert_eq!(Model::dim(&m), 2_000);
        assert_eq!(Model::num_classes(&m), 3);
        assert!(Model::is_finalized(&m));
        assert_eq!(m.config().width, 4);
    }

    #[test]
    fn predict_batch_matches_predict_loop() {
        let pats = patterns();
        let model = any_model();
        let inputs: Vec<&[u8]> = pats.iter().cycle().take(80).map(|p| &p[..]).collect();
        let batched = Model::predict_batch(&model, &inputs).unwrap();
        for (input, prediction) in inputs.iter().zip(&batched) {
            assert_eq!(*prediction, model.predict(input).unwrap());
        }
    }

    #[test]
    fn evaluate_matches_predict_and_fitness() {
        let pats = patterns();
        let model = any_model();
        for p in &pats {
            let (class, fitness) = Model::evaluate(&model, &p[..], 1).unwrap();
            let prediction = model.predict(&p[..]).unwrap();
            assert_eq!(class, prediction.class);
            assert_eq!(fitness, 1.0 - prediction.similarities[1]);
            assert_eq!(fitness, Model::fitness(&model, &p[..], 1).unwrap());
        }
        assert!(Model::evaluate(&model, &pats[0][..], 9).is_err());
    }

    #[test]
    fn evaluate_children_matches_evaluate_batch() {
        // Children of pattern 0 with one or two changed pixels take the
        // delta path from its counter; pattern 1 (8 of 16 pixels changed)
        // falls back to a full bundle. Scores must equal evaluate_batch's
        // to the bit, and every slot must end up holding its child's
        // bundle.
        let pats = patterns();
        let mut one = pats[0];
        one[5] = INK;
        let mut two = one;
        two[0] = 0;
        let kids = [one, two, pats[1], pats[0]];
        let inputs: Vec<&[u8]> = kids.iter().map(|k| &k[..]).collect();
        let model = any_model();
        let mut root = None;
        let prediction = model.predict_bundle(&pats[0][..], &mut root).unwrap();
        assert_eq!(prediction, model.predict(&pats[0][..]).unwrap());
        let root = root.expect("pixel models keep a counter");
        let mut slots: Vec<Option<BitCounter>> = vec![None; kids.len()];
        let mut children: Vec<Child<'_, [u8]>> = inputs
            .iter()
            .zip(&mut slots)
            .map(|(&input, bundle)| Child { input, parent: Some((&pats[0][..], &root)), bundle })
            .collect();
        let scores = model.evaluate_children(&mut children, 1).unwrap();
        assert_eq!(scores, model.evaluate_batch(&inputs, 1).unwrap());
        assert!(model.evaluate_children(&mut children, 9).is_err());
        for (input, slot) in inputs.iter().zip(&mut slots) {
            let counter = slot.as_mut().expect("each child keeps its counter");
            let encoded = model.encoder_arc().encode(input).unwrap();
            assert_eq!(counter.bipolarize_packed(), encoded.packed().words());
        }
    }

    #[test]
    fn partial_fit_and_feedback_through_the_trait() {
        let pats = patterns();
        let mut model = any_model();
        let applied =
            Model::partial_fit_batch(&mut model, &[(&pats[0][..], 0), (&pats[1][..], 1)]).unwrap();
        assert_eq!(applied, 2);
        assert!(model.is_finalized(), "partial_fit_batch must leave the model serving");

        // Bad label rejected atomically.
        assert!(Model::partial_fit_batch(&mut model, &[(&pats[0][..], 9)]).is_err());
        assert!(model.is_finalized());

        // Correct feedback: no update.
        let fb = Model::feedback(&mut model, &pats[2][..], 2).unwrap();
        assert!(!fb.updated);
        assert_eq!(fb.prediction.class, 2);
    }

    #[test]
    fn clones_share_the_encoder() {
        let model = any_model();
        let clone = model.clone();
        assert!(
            Arc::ptr_eq(model.encoder_arc(), clone.encoder_arc()),
            "clone must share the encoder allocation, not copy it"
        );
    }

    #[test]
    fn save_load_round_trips() {
        let model = any_model();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = crate::io::load_any(&buf[..]).unwrap();
        for p in &patterns() {
            assert_eq!(loaded.predict(&p[..]).unwrap(), model.predict(&p[..]).unwrap());
        }
    }
}
