//! Cross-model differential fuzzing.
//!
//! The paper's oracle is *self*-differential: one model's prediction on
//! the original input vs its prediction on the mutant. This module
//! generalizes to the classic two-implementation differential oracle
//! (McKeeman 1998, the paper's reference \[13\]): two HDC models of
//! different configurations — e.g. two dimensions or two encoder seeds of
//! the same architecture — are driven with the same mutated inputs, and
//! any *disagreement between the models* is a discrepancy worth a bug
//! report, even when neither prediction flips relative to the original.

use crate::constraint::Constraint;
use crate::error::HdtestError;
use crate::model::TargetModel;
use crate::mutation::Mutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the cross-model loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossModelConfig {
    /// Maximum fuzzing iterations per input.
    pub max_iterations: usize,
    /// Candidates per iteration.
    pub batch_size: usize,
    /// Surviving seeds per round.
    pub top_n: usize,
}

impl Default for CrossModelConfig {
    fn default() -> Self {
        Self { max_iterations: 30, batch_size: 9, top_n: 3 }
    }
}

/// A mutated input on which the two models disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy<I> {
    /// The input triggering the disagreement.
    pub input: I,
    /// Prediction of the first (reference) model.
    pub left: usize,
    /// Prediction of the second model.
    pub right: usize,
    /// Iterations spent finding it.
    pub iterations: usize,
}

/// Result of cross-model fuzzing one input.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossModelOutcome<I> {
    /// The models already disagree on the unmutated input.
    ImmediateDisagreement {
        /// First model's prediction.
        left: usize,
        /// Second model's prediction.
        right: usize,
    },
    /// Mutation produced a disagreement.
    Found(Discrepancy<I>),
    /// No disagreement within the iteration budget.
    Exhausted {
        /// Iterations spent.
        iterations: usize,
    },
}

impl<I> CrossModelOutcome<I> {
    /// Whether any disagreement (immediate or mutated) was observed.
    pub fn disagreed(&self) -> bool {
        !matches!(self, CrossModelOutcome::Exhausted { .. })
    }
}

/// Fuzzes `input` until `left` and `right` disagree on some mutant.
///
/// Guidance uses the *combined* drift — the sum of both models' fitness
/// signals against the original agreed-upon label — pushing candidates
/// toward both decision boundaries at once, where quantization differences
/// between implementations surface first.
///
/// # Errors
///
/// Returns [`HdtestError::Config`] for degenerate parameters or the first
/// model error.
pub fn fuzz_cross_model<I, L, R>(
    left: &L,
    right: &R,
    strategy: &dyn Mutation<I>,
    constraint: &dyn Constraint<I>,
    config: CrossModelConfig,
    input: &I,
    seed: u64,
) -> Result<CrossModelOutcome<I>, HdtestError>
where
    I: Clone + AsRef<L::Input>,
    L: TargetModel,
    R: TargetModel<Input = L::Input>,
{
    if config.max_iterations == 0 || config.batch_size == 0 || config.top_n == 0 {
        return Err(HdtestError::Config(
            "cross-model fuzzing requires non-zero iterations, batch and top_n".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xd1ff);

    let left_label = left.predict(input.as_ref())?;
    let right_label = right.predict(input.as_ref())?;
    if left_label != right_label {
        return Ok(CrossModelOutcome::ImmediateDisagreement {
            left: left_label,
            right: right_label,
        });
    }
    let reference = left_label;

    let mut pool: Vec<I> = vec![input.clone()];
    for iteration in 1..=config.max_iterations {
        let mut candidates = Vec::with_capacity(config.batch_size);
        let mut attempts = 0usize;
        while candidates.len() < config.batch_size && attempts < config.batch_size * 4 {
            let parent = &pool[attempts % pool.len()];
            let candidate = strategy.mutate(parent, &mut rng);
            attempts += 1;
            if constraint.accepts(input, &candidate) {
                candidates.push(candidate);
            }
        }
        if candidates.is_empty() {
            pool = vec![input.clone()];
            continue;
        }

        let mut scored: Vec<(f64, I)> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            let (l_label, l_fit) = left.evaluate(candidate.as_ref(), reference)?;
            let (r_label, r_fit) = right.evaluate(candidate.as_ref(), reference)?;
            if l_label != r_label {
                return Ok(CrossModelOutcome::Found(Discrepancy {
                    input: candidate,
                    left: l_label,
                    right: r_label,
                    iterations: iteration,
                }));
            }
            scored.push((l_fit + r_fit, candidate));
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("fitness is never NaN"));
        scored.truncate(config.top_n);
        pool = scored.into_iter().map(|(_, c)| c).collect();
    }
    Ok(CrossModelOutcome::Exhausted { iterations: config.max_iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::NoConstraint;
    use crate::mutation::GaussNoise;
    use hdc::prelude::*;
    use hdc_data::GrayImage;

    fn encoder(dim: usize) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: 8,
            height: 8,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 3,
        })
        .expect("valid config")
    }

    fn train(dim: usize) -> HdcClassifier<PixelEncoder> {
        let mut m = HdcClassifier::new(encoder(dim), 2);
        for v in [0u8, 20, 40] {
            m.train_one(&[v; 64][..], 0).unwrap();
        }
        for v in [180u8, 210, 240] {
            m.train_one(&[v; 64][..], 1).unwrap();
        }
        m.finalize();
        m
    }

    #[test]
    fn models_with_different_dims_disagree_under_fuzzing() {
        let big = train(4_000);
        let small = train(500);
        let strategy = GaussNoise::default();
        let outcome = fuzz_cross_model(
            &big,
            &small,
            &strategy,
            &NoConstraint,
            CrossModelConfig { max_iterations: 60, ..Default::default() },
            &GrayImage::from_pixels(8, 8, vec![30u8; 64]),
            1,
        )
        .unwrap();
        assert!(outcome.disagreed(), "dimension quantization should surface: {outcome:?}");
    }

    #[test]
    fn any_model_pair_fuzzes_through_the_unified_trait() {
        // The serving-layer type itself is a differential target: models
        // reloaded as `AnyModel` drive the same `fuzz_cross_model` loop
        // (the blanket `TargetModel for M: Model` impl). Different
        // dimensions must still surface quantization discrepancies.
        let reload = |model: HdcClassifier<PixelEncoder>| {
            let mut saved = Vec::new();
            model.save(&mut saved).unwrap();
            hdc::io::load_any(&saved[..]).unwrap()
        };
        let big = reload(train(4_000));
        let small = reload(train(500));
        let strategy = GaussNoise::default();
        let mut found = 0;
        for seed in 0..6 {
            let outcome = fuzz_cross_model(
                &big,
                &small,
                &strategy,
                &NoConstraint,
                CrossModelConfig { max_iterations: 40, ..Default::default() },
                &GrayImage::from_pixels(8, 8, vec![(30 + seed * 10) as u8; 64]),
                seed,
            )
            .unwrap();
            if outcome.disagreed() {
                found += 1;
            }
        }
        assert!(found > 0, "4k-dim vs 500-dim AnyModel never disagreed through the trait");
    }

    #[test]
    fn identical_models_never_disagree() {
        let m = train(1_000);
        let strategy = GaussNoise::default();
        let outcome = fuzz_cross_model(
            &m,
            &m,
            &strategy,
            &NoConstraint,
            CrossModelConfig { max_iterations: 5, ..Default::default() },
            &GrayImage::from_pixels(8, 8, vec![30u8; 64]),
            1,
        )
        .unwrap();
        assert!(matches!(outcome, CrossModelOutcome::Exhausted { iterations: 5 }));
    }

    #[test]
    fn degenerate_config_rejected() {
        let m = train(500);
        let strategy = GaussNoise::default();
        let bad = CrossModelConfig { max_iterations: 0, ..Default::default() };
        assert!(fuzz_cross_model(&m, &m, &strategy, &NoConstraint, bad, &GrayImage::new(8, 8), 0)
            .is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let big = train(2_000);
        let small = train(500);
        let strategy = GaussNoise::default();
        let run = || {
            fuzz_cross_model(
                &big,
                &small,
                &strategy,
                &NoConstraint,
                CrossModelConfig::default(),
                &GrayImage::from_pixels(8, 8, vec![35u8; 64]),
                9,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
