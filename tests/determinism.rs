//! Reproducibility guarantees: the entire pipeline is a pure function of
//! its seeds — dataset, model, campaign, and defense.

use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::Dataset;
use hdtest::prelude::*;

fn build(seed_data: u64, seed_model: u64) -> (HdcClassifier<PixelEncoder>, Dataset) {
    let mut generator = SynthGenerator::new(SynthConfig { seed: seed_data, ..Default::default() });
    let train = generator.dataset(25);
    let pool = generator.dataset(3);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: 2_000,
        width: 28,
        height: 28,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: seed_model,
    })
    .expect("valid encoder config");
    let mut model = HdcClassifier::new(encoder, 10);
    model.train_batch(train.pairs()).expect("training succeeds");
    (model, pool)
}

#[test]
fn identical_seeds_reproduce_the_model_bit_exactly() {
    let (a, _) = build(1, 2);
    let (b, _) = build(1, 2);
    for class in 0..10 {
        assert_eq!(
            a.associative_memory().reference(class).expect("finalized"),
            b.associative_memory().reference(class).expect("finalized"),
        );
    }
}

#[test]
fn different_model_seed_changes_the_model() {
    let (a, _) = build(1, 2);
    let (b, _) = build(1, 3);
    let same = (0..10).all(|c| {
        a.associative_memory().reference(c).expect("finalized")
            == b.associative_memory().reference(c).expect("finalized")
    });
    assert!(!same);
}

#[test]
fn campaigns_reproduce_across_worker_counts() {
    let (model, pool) = build(1, 2);
    let run = |workers| {
        Campaign::new(
            &model,
            CampaignConfig {
                strategy: Strategy::Rand,
                l2_budget: Some(1.0),
                workers,
                seed: 9,
                ..Default::default()
            },
        )
        .run(pool.images())
        .expect("non-empty pool")
    };
    let solo = run(1);
    let duo = run(2);
    let many = run(8);
    assert_eq!(solo.records, duo.records);
    assert_eq!(solo.records, many.records);
    assert_eq!(solo.corpus, many.corpus);
}

/// Forwards only the `TargetModel` methods that predate delta encoding,
/// so campaigns reach it through the defaulted `predict_bundle` and
/// `evaluate_children`: every candidate is encoded in full.
struct FullEncode<'m, M>(&'m M);

impl<M: TargetModel<Input = [u8]>> TargetModel for FullEncode<'_, M> {
    type Input = [u8];

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn predict(&self, input: &[u8]) -> Result<usize, HdtestError> {
        self.0.predict(input)
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdtestError> {
        self.0.fitness(input, reference)
    }

    fn evaluate(&self, input: &[u8], reference: usize) -> Result<(usize, f64), HdtestError> {
        self.0.evaluate(input, reference)
    }

    fn evaluate_batch(
        &self,
        inputs: &[&[u8]],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        self.0.evaluate_batch(inputs, reference)
    }

    fn warm_up(&self) {
        self.0.warm_up();
    }
}

#[test]
fn delta_encoded_campaigns_match_full_encoding_across_worker_counts() {
    // Digit campaigns whose children are delta-encoded from their
    // parents' bundle counters must record exactly what full re-encoding
    // records, at one worker and at two.
    let (model, pool) = build(1, 2);
    for strategy in [Strategy::Rand, Strategy::Gauss, Strategy::Shift] {
        let config = |workers| CampaignConfig {
            strategy,
            l2_budget: Some(1.0),
            workers,
            seed: 9,
            ..Default::default()
        };
        let full = Campaign::new(&FullEncode(&model), config(1))
            .run(pool.images())
            .expect("non-empty pool");
        for workers in [1, 2] {
            let delta =
                Campaign::new(&model, config(workers)).run(pool.images()).expect("non-empty pool");
            assert_eq!(delta.records, full.records, "{strategy} at {workers} workers");
            assert_eq!(delta.corpus, full.corpus, "{strategy} at {workers} workers");
        }
    }
}

#[test]
fn campaign_seed_changes_outcomes() {
    let (model, pool) = build(1, 2);
    let run = |seed| {
        Campaign::new(
            &model,
            CampaignConfig {
                strategy: Strategy::Rand,
                l2_budget: Some(1.0),
                seed,
                ..Default::default()
            },
        )
        .run(pool.images())
        .expect("non-empty pool")
    };
    let a = run(1);
    let b = run(2);
    // Iteration counts are extremely unlikely to agree across 30 inputs.
    let iters_a: Vec<usize> = a.records.iter().map(|r| r.iterations).collect();
    let iters_b: Vec<usize> = b.records.iter().map(|r| r.iterations).collect();
    assert_ne!(iters_a, iters_b);
}

#[test]
fn defense_reproduces_for_same_seed() {
    let (model, pool) = build(1, 2);
    let corpus = Campaign::new(
        &model,
        CampaignConfig {
            strategy: Strategy::Gauss,
            l2_budget: Some(1.0),
            seed: 9,
            ..Default::default()
        },
    )
    .run(pool.images())
    .expect("non-empty pool")
    .corpus;
    assert!(corpus.len() >= 4);

    let run = || {
        let mut m = model.clone();
        retraining_defense(&mut m, &corpus, DefenseConfig { seed: 3, ..Default::default() })
            .expect("valid config")
    };
    assert_eq!(run(), run());
}

#[test]
fn dataset_generation_is_stable_across_calls() {
    let mut a = SynthGenerator::new(SynthConfig { seed: 77, ..Default::default() });
    let mut b = SynthGenerator::new(SynthConfig { seed: 77, ..Default::default() });
    assert_eq!(a.dataset(5), b.dataset(5));
}
