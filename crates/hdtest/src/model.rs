//! The greybox interface to the model under test.
//!
//! HDTest assumes a *greybox* testing scenario (§IV): the fuzzer can query
//! predictions and one scalar piece of internal information — the HV
//! distance between a query and the reference class vector. Anything
//! exposing this interface can be fuzzed; the paper's §V-E argues this is
//! what lets HDTest extend to other HDC model structures.
//!
//! The library side of that claim is `hdc`'s [`Model`] trait:
//! [`hdc::HdcClassifier`] over any encoder (the serving layer's
//! [`hdc::AnyModel`] included) implements it, and the **blanket impl**
//! below lifts every implementation into [`TargetModel`] at once.
//! Campaigns, the per-input fuzzer, minimization and the cross-model
//! differential oracle therefore run over any model — current or future —
//! without per-type glue.

use crate::error::HdtestError;
use hdc::kernel::BitCounter;
use hdc::{Child, Model};

/// A classifier under test, exposing exactly the greybox signals HDTest
/// needs: predictions and the distance-based fitness.
///
/// Every `hdc` [`Model`] is a `TargetModel` via the blanket impl; implement
/// this trait directly only for targets outside the `hdc` stack (e.g. a
/// remote model behind an RPC boundary, or test doubles).
pub trait TargetModel: Sync {
    /// Raw input type consumed by the model (e.g. `[u8]` pixels).
    type Input: ?Sized;

    /// Number of classes the model distinguishes.
    fn num_classes(&self) -> usize;

    /// The model's predicted class for `input`.
    ///
    /// # Errors
    ///
    /// Returns [`HdtestError::Model`] when the model rejects the input.
    fn predict(&self, input: &Self::Input) -> Result<usize, HdtestError>;

    /// The fuzzer's guidance signal:
    /// `1 − cosine(AM[reference], encode(input))` (§IV), monotone in drift.
    ///
    /// # Errors
    ///
    /// Returns [`HdtestError::Model`] when the model rejects the input or
    /// `reference` is out of range.
    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdtestError>;

    /// Prediction and fitness from one pass. The default delegates to
    /// [`predict`](Self::predict) + [`fitness`](Self::fitness); models that
    /// can share the encoding (every `hdc` [`Model`]) override this to
    /// halve the fuzzer's per-candidate cost.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict) and [`fitness`](Self::fitness).
    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdtestError> {
        Ok((self.predict(input)?, self.fitness(input, reference)?))
    }

    /// Evaluates one whole candidate batch (Alg. 1 evaluates `batch_size`
    /// candidates per fuzzing round). The default loops
    /// [`evaluate`](Self::evaluate); `hdc` models override it with
    /// the word-packed batch kernel, which shares the packed class
    /// references and one similarity scratch buffer across the batch.
    ///
    /// Results are in input order, one `(label, fitness)` pair per input.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    fn evaluate_batch(
        &self,
        inputs: &[&Self::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        inputs.iter().map(|input| self.evaluate(input, reference)).collect()
    }

    /// The reference pass: [`predict`](Self::predict) that also leaves
    /// the input's bundle counter in `bundle`, so the fuzzer can encode
    /// its children incrementally. The default keeps no counter (`bundle`
    /// becomes `None`) and calls `predict`.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict).
    fn predict_bundle(
        &self,
        input: &Self::Input,
        bundle: &mut Option<BitCounter>,
    ) -> Result<usize, HdtestError> {
        *bundle = None;
        self.predict(input)
    }

    /// [`evaluate_batch`](Self::evaluate_batch) over candidates that
    /// carry their parent: the same `(label, fitness)` per child, in
    /// order, with each child's bundle counter left in its slot where the
    /// model keeps one ([`Model::evaluate_children`]). The default empties
    /// every slot and calls `evaluate_batch`, so a target that implements
    /// only the other methods still sees every candidate.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_batch`](Self::evaluate_batch).
    fn evaluate_children(
        &self,
        children: &mut [Child<'_, Self::Input>],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        let inputs: Vec<&Self::Input> = children
            .iter_mut()
            .map(|child| {
                *child.bundle = None;
                child.input
            })
            .collect();
        self.evaluate_batch(&inputs, reference)
    }

    /// One-time preparation before a fuzzing campaign fans out to worker
    /// threads (e.g. forcing item-memory packed mirrors so workers never
    /// race to build them). The default does nothing.
    fn warm_up(&self) {}
}

/// The blanket lift: any classifier behind `hdc`'s [`Model`] surface is a
/// fuzzing target. Each method forwards to the model's own packed
/// implementation, so a target keeps its one-pass `evaluate`, its batch
/// similarity scan and its delta-encoded children.
impl<M: Model> TargetModel for M {
    type Input = M::Input;

    fn num_classes(&self) -> usize {
        Model::num_classes(self)
    }

    fn predict(&self, input: &Self::Input) -> Result<usize, HdtestError> {
        Ok(Model::predict(self, input)?.class)
    }

    fn fitness(&self, input: &Self::Input, reference: usize) -> Result<f64, HdtestError> {
        Ok(Model::fitness(self, input, reference)?)
    }

    fn evaluate(&self, input: &Self::Input, reference: usize) -> Result<(usize, f64), HdtestError> {
        Ok(Model::evaluate(self, input, reference)?)
    }

    fn evaluate_batch(
        &self,
        inputs: &[&Self::Input],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        Ok(Model::evaluate_batch(self, inputs, reference)?)
    }

    fn predict_bundle(
        &self,
        input: &Self::Input,
        bundle: &mut Option<BitCounter>,
    ) -> Result<usize, HdtestError> {
        Ok(Model::predict_bundle(self, input, bundle)?.class)
    }

    fn evaluate_children(
        &self,
        children: &mut [Child<'_, Self::Input>],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        Ok(Model::evaluate_children(self, children, reference)?)
    }

    fn warm_up(&self) {
        Model::warm_up(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::prelude::*;

    fn encoder() -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim: 1_000,
            width: 3,
            height: 3,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 4,
        })
        .unwrap()
    }

    fn model() -> HdcClassifier<PixelEncoder> {
        let mut m = HdcClassifier::new(encoder(), 2);
        m.train_one(&[0u8; 9][..], 0).unwrap();
        m.train_one(&[250u8; 9][..], 1).unwrap();
        m.finalize();
        m
    }

    #[test]
    fn classifier_implements_target_model() {
        let m = model();
        let t: &dyn TargetModel<Input = [u8]> = &m;
        assert_eq!(t.num_classes(), 2);
        assert_eq!(t.predict(&[0u8; 9]).unwrap(), 0);
        assert_eq!(t.predict(&[250u8; 9]).unwrap(), 1);
    }

    #[test]
    fn fitness_increases_away_from_reference() {
        let m = model();
        let own = TargetModel::fitness(&m, &[0u8; 9][..], 0).unwrap();
        let far = TargetModel::fitness(&m, &[250u8; 9][..], 0).unwrap();
        assert!(far > own);
    }

    #[test]
    fn every_model_is_a_target() {
        // The blanket impl: a live classifier and a reloaded `AnyModel`
        // fuzz through one bound without per-type glue.
        fn probe<M: TargetModel<Input = [u8]>>(target: &M) {
            assert_eq!(target.num_classes(), 2);
            assert_eq!(target.predict(&[0u8; 9]).unwrap(), 0);
            let (class, fitness) = target.evaluate(&[0u8; 9], 0).unwrap();
            assert_eq!(class, 0);
            assert_eq!(fitness, target.fitness(&[0u8; 9], 0).unwrap());
        }

        probe(&model());
        let mut saved = Vec::new();
        model().save(&mut saved).unwrap();
        let reloaded: AnyModel = hdc::io::load_any(&saved[..]).unwrap();
        probe(&reloaded);
    }

    #[test]
    fn untrained_model_propagates_error() {
        let m = HdcClassifier::new(encoder(), 2);
        assert!(TargetModel::predict(&m, &[0u8; 9]).is_err());
    }
}
