//! Property-based tests of the fuzzing loop's invariants (proptest).
//!
//! A tiny model keeps each case cheap; the point is randomized coverage of
//! the loop's contract, not fuzzing quality.

use hdc::prelude::*;
use hdc_data::{normalized_l2, GrayImage};
use hdtest::mutation::Strategy as MutationStrategy;
use hdtest::{
    Campaign, CampaignConfig, FuzzConfig, FuzzOutcome, FuzzResult, Fuzzer, GaussNoise, Guidance,
    HdtestError, L2Constraint, NoConstraint, RandNoise, TargetModel,
};
use proptest::prelude::*;

fn tiny_encoder() -> PixelEncoder {
    PixelEncoder::new(PixelEncoderConfig {
        dim: 512,
        width: 6,
        height: 6,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: 77,
    })
    .expect("valid config")
}

/// Three classes: dark, mid and bright flat images.
const TRAINING: [([u8; 3], usize); 3] =
    [([0, 12, 24], 0), ([100, 112, 124], 1), ([220, 232, 244], 2)];

fn tiny_model() -> HdcClassifier<PixelEncoder> {
    let mut model = HdcClassifier::new(tiny_encoder(), 3);
    for (values, label) in TRAINING {
        for v in values {
            model.train_one(&[v; 36][..], label).expect("trains");
        }
    }
    model.finalize();
    model
}

/// Forwards only the `TargetModel` methods that predate delta encoding,
/// so the fuzzer reaches it through the defaulted `predict_bundle` and
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

/// `fuzz_one` of `image` with every strategy, guidance mode and budget
/// choice, through `model` as given.
fn fuzz_everything<M: TargetModel<Input = [u8]>>(
    model: &M,
    image: &GrayImage,
    seed: u64,
) -> Vec<FuzzResult<GrayImage>> {
    let mut results = Vec::new();
    for strategy in MutationStrategy::ALL {
        for guidance in [Guidance::DistanceGuided, Guidance::Unguided] {
            for budget in [None, Some(1.0)] {
                let constraint: Box<dyn hdtest::Constraint<GrayImage>> = match budget {
                    Some(budget) => Box::new(L2Constraint { budget }),
                    None => Box::new(NoConstraint),
                };
                let fuzzer = Fuzzer::new(
                    model,
                    strategy.image_mutation(),
                    constraint,
                    FuzzConfig { max_iterations: 12, guidance, ..Default::default() },
                );
                results.push(fuzzer.fuzz_one(image, seed).unwrap());
            }
        }
    }
    results
}

fn arb_image() -> impl Strategy<Value = GrayImage> {
    proptest::collection::vec(any::<u8>(), 36)
        .prop_map(|pixels| GrayImage::from_pixels(6, 6, pixels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fuzz_one_is_deterministic(img in arb_image(), seed in any::<u64>()) {
        let model = tiny_model();
        let fuzzer = Fuzzer::new(
            &model,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint::default()),
            FuzzConfig { max_iterations: 6, ..Default::default() },
        );
        let a = fuzzer.fuzz_one(&img, seed).unwrap();
        let b = fuzzer.fuzz_one(&img, seed).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reference_label_matches_model_prediction(img in arb_image(), seed in any::<u64>()) {
        let model = tiny_model();
        let fuzzer = Fuzzer::new(
            &model,
            Box::new(RandNoise::default()),
            Box::new(NoConstraint),
            FuzzConfig { max_iterations: 3, ..Default::default() },
        );
        let result = fuzzer.fuzz_one(&img, seed).unwrap();
        prop_assert_eq!(result.reference_label, model.predict(img.as_slice()).unwrap().class);
    }

    #[test]
    fn iterations_never_exceed_budget(
        img in arb_image(),
        seed in any::<u64>(),
        max_iter in 1usize..12,
    ) {
        let model = tiny_model();
        let fuzzer = Fuzzer::new(
            &model,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint::default()),
            FuzzConfig { max_iterations: max_iter, ..Default::default() },
        );
        let result = fuzzer.fuzz_one(&img, seed).unwrap();
        prop_assert!(result.iterations <= max_iter);
        if !result.outcome.is_adversarial() {
            prop_assert_eq!(result.iterations, max_iter);
        }
    }

    #[test]
    fn adversarial_output_honours_budget_and_flips(
        img in arb_image(),
        seed in any::<u64>(),
        budget in 0.3f64..2.0,
    ) {
        let model = tiny_model();
        let fuzzer = Fuzzer::new(
            &model,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint { budget }),
            FuzzConfig { max_iterations: 10, ..Default::default() },
        );
        let result = fuzzer.fuzz_one(&img, seed).unwrap();
        if let FuzzOutcome::Adversarial { input, predicted } = &result.outcome {
            prop_assert!(normalized_l2(&img, input) < budget);
            prop_assert_ne!(*predicted, result.reference_label);
            prop_assert_eq!(model.predict(input.as_slice()).unwrap().class, *predicted);
        }
    }

    #[test]
    fn evaluate_consistent_with_predict_and_fitness(img in arb_image(), class in 0usize..3) {
        let model = tiny_model();
        let (label, fitness) =
            TargetModel::evaluate(&model, img.as_slice(), class).unwrap();
        prop_assert_eq!(label, TargetModel::predict(&model, img.as_slice()).unwrap());
        let direct = TargetModel::fitness(&model, img.as_slice(), class).unwrap();
        prop_assert!((fitness - direct).abs() < 1e-12);
    }

    #[test]
    fn delta_encoded_fuzzing_matches_full_encoding(img in arb_image(), seed in any::<u64>()) {
        // The blanket impl encodes each child from its parent's bundle
        // counter; the wrapper takes the full-encode defaults. Both must
        // give identical results for every strategy (sparse rand and
        // row/col lines on the delta path, shift and most dense gauss
        // children on the fallback), both guidance modes, and with and
        // without a budget.
        let model = tiny_model();
        prop_assert_eq!(
            fuzz_everything(&model, &img, seed),
            fuzz_everything(&FullEncode(&model), &img, seed)
        );
    }

    #[test]
    fn campaign_statistics_are_internally_consistent(seed in any::<u64>()) {
        let model = tiny_model();
        let images: Vec<GrayImage> = (0..6)
            .map(|i| GrayImage::from_pixels(6, 6, vec![(i * 17) as u8; 36]))
            .collect();
        let campaign = Campaign::new(
            &model,
            CampaignConfig {
                strategy: MutationStrategy::Gauss,
                l2_budget: Some(1.0),
                seed,
                fuzz: FuzzConfig { max_iterations: 6, ..Default::default() },
                ..Default::default()
            },
        );
        let report = campaign.run(&images).unwrap();
        let stats = report.strategy_stats();
        prop_assert_eq!(stats.inputs, images.len());
        prop_assert_eq!(stats.successes, report.corpus.len());
        let total_iters: usize = report.records.iter().map(|r| r.iterations).sum();
        prop_assert!(
            (stats.avg_iterations - total_iters as f64 / images.len() as f64).abs() < 1e-12
        );
        // Per-class stats partition the records.
        let by_class = report.class_stats(3);
        prop_assert_eq!(by_class.iter().map(|c| c.inputs).sum::<usize>(), images.len());
    }
}
