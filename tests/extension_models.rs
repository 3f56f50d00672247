//! Integration tests for the extension systems: legacy model files,
//! hardware fault injection, cross-model differential fuzzing, and fuzzing
//! of non-image HDC models (the paper's §V-E generality claim).

use hdc::fault::{bit_error_sweep, FaultyAssociativeMemory};
use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdtest::mutation::record::FieldJitter;
use hdtest::mutation::text::ByteSubstitute;
use hdtest::prelude::*;

fn digit_testbed(dim: usize) -> (HdcClassifier<PixelEncoder>, hdc_data::Dataset) {
    let mut generator = SynthGenerator::new(SynthConfig { seed: 50, ..Default::default() });
    let train = generator.dataset(40);
    let test = generator.dataset(8);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: 28,
        height: 28,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: 15,
    })
    .expect("valid config");
    let mut model = HdcClassifier::new(encoder, 10);
    model.train_batch(train.pairs()).expect("training succeeds");
    (model, test)
}

/// Writes a legacy `HDC1` model file (the sum-based format the library
/// still reads): magic, encoder config, class count, then per class the
/// bundle count and the `i32` sums.
fn legacy_hdc1(config: &PixelEncoderConfig, classes: &[Accumulator]) -> Vec<u8> {
    let encoding = match config.value_encoding {
        ValueEncoding::Random => 0u64,
        ValueEncoding::Level => 1,
    };
    let mut bytes = b"HDC1".to_vec();
    let header = [config.dim, config.width, config.height, config.levels].map(|v| v as u64);
    for v in header.into_iter().chain([encoding, config.seed, classes.len() as u64]) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for acc in classes {
        bytes.extend_from_slice(&(acc.count() as u64).to_le_bytes());
        for s in acc.sums() {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
    }
    bytes
}

/// A live digit model after training and a round of mislabeled feedback,
/// plus the same history written as a legacy `HDC1` file from the scalar
/// accumulator oracle.
fn live_and_legacy(dim: usize) -> (HdcClassifier<PixelEncoder>, Vec<u8>, hdc_data::Dataset) {
    let (mut live, test) = digit_testbed(dim);
    let mut generator = SynthGenerator::new(SynthConfig { seed: 50, ..Default::default() });
    let train = generator.dataset(40);
    let mut oracle: Vec<Accumulator> = (0..10).map(|_| Accumulator::zeros(dim)).collect();
    for (img, label) in train.pairs() {
        oracle[label].add(&live.encode(img).expect("encodes")).expect("same dim");
    }
    for (img, label) in train.pairs().take(30) {
        let lie = (label + 1) % 10;
        let feedback = live.feedback(img, lie).expect("feedback");
        if feedback.updated {
            let query = live.encode(img).expect("encodes");
            oracle[lie].add(&query).expect("same dim");
            oracle[feedback.prediction.class].subtract(&query).expect("same dim");
        }
    }
    let legacy = legacy_hdc1(live.encoder().config(), &oracle);
    (live, legacy, test)
}

#[test]
fn legacy_hdc1_model_tracks_live_model_on_digits() {
    // Sums convert to counters with the same implied sums, so a model
    // loaded from the legacy format is the live model: same prediction,
    // similarities included, on every test digit.
    let (live, legacy, test) = live_and_legacy(4_000);
    let loaded = hdc::io::load_any(&legacy[..]).expect("legacy model loads");
    for (img, _) in test.pairs() {
        assert_eq!(
            loaded.predict(img).expect("predicts"),
            live.predict(img).expect("predicts"),
            "a legacy-loaded model must agree with the live model"
        );
    }
}

#[test]
fn legacy_hdc1_model_is_fuzzable_through_target_model() {
    let (live, legacy, _) = live_and_legacy(2_000);
    let loaded = hdc::io::load_any(&legacy[..]).expect("legacy model loads");
    let mut generator = SynthGenerator::new(SynthConfig { seed: 51, ..Default::default() });
    let pool = generator.dataset(2);

    let fuzzer = |model| {
        Fuzzer::new(
            model,
            Box::new(GaussNoise::default()),
            Box::new(L2Constraint::default()),
            FuzzConfig::default(),
        )
    };
    let (on_loaded, on_live) = (fuzzer(&loaded), fuzzer(&live));
    let mut successes = 0;
    for (index, image) in pool.images().iter().enumerate() {
        let result = on_loaded.fuzz_one(image, index as u64).expect("valid input");
        assert_eq!(result, on_live.fuzz_one(image, index as u64).expect("valid input"));
        if result.outcome.is_adversarial() {
            successes += 1;
        }
    }
    assert!(
        successes > pool.len() / 2,
        "the legacy-loaded model must be fuzzable too: {successes}/{}",
        pool.len()
    );
}

#[test]
fn fault_injection_shows_graceful_degradation() {
    let (model, test) = digit_testbed(10_000);
    let examples: Vec<(&[u8], usize)> = test.pairs().collect();
    let points =
        bit_error_sweep(&model, &[0.0, 0.05, 0.45], &examples, 3).expect("model is finalized");
    let clean = points[0].accuracy;
    let light = points[1].accuracy;
    let heavy = points[2].accuracy;
    // Holographic redundancy: 5% AM bit flips barely hurt; 45% approaches
    // chance.
    assert!(clean - light < 0.05, "5% flips cost {:.3}", clean - light);
    assert!(heavy < clean - 0.2, "45% flips must hurt: {heavy} vs {clean}");
}

#[test]
fn faulty_memory_is_reproducible() {
    let (model, test) = digit_testbed(2_000);
    let a = FaultyAssociativeMemory::inject(&model, 0.1, 7).expect("finalized");
    let b = FaultyAssociativeMemory::inject(&model, 0.1, 7).expect("finalized");
    let examples: Vec<(&[u8], usize)> = test.pairs().collect();
    assert_eq!(
        a.accuracy(&model, examples.iter().copied()).expect("non-empty"),
        b.accuracy(&model, examples.iter().copied()).expect("non-empty"),
    );
}

#[test]
fn cross_model_differential_finds_dimension_discrepancies() {
    let (big, _) = digit_testbed(10_000);
    let (small, _) = digit_testbed(1_000);
    let mut generator = SynthGenerator::new(SynthConfig { seed: 51, ..Default::default() });
    let pool = generator.dataset(2);

    let strategy = GaussNoise::default();
    let constraint = L2Constraint::default();
    let mut disagreements = 0;
    for (index, image) in pool.images().iter().enumerate() {
        let outcome = fuzz_cross_model(
            &big,
            &small,
            &strategy,
            &constraint,
            CrossModelConfig::default(),
            image,
            index as u64,
        )
        .expect("valid input");
        if outcome.disagreed() {
            disagreements += 1;
        }
    }
    assert!(
        disagreements > 0,
        "a 10x dimension gap must expose at least one discrepancy in {} inputs",
        pool.len()
    );
}

#[test]
fn text_model_fuzzes_through_the_same_loop() {
    // Two synthetic "languages" with disjoint alphabets.
    let encoder =
        NgramEncoder::new(NgramEncoderConfig { dim: 2_000, n: 3, alphabet: 128, seed: 8 })
            .expect("valid config");
    let mut model = HdcClassifier::new(encoder, 2);
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut sentence =
        |pool: &[u8]| -> Vec<u8> { (0..40).map(|_| pool[rng.gen_range(0..pool.len())]).collect() };
    for _ in 0..30 {
        let a = sentence(b"aeiou ");
        let b = sentence(b"kprtz ");
        model.train_one(&a[..], 0).expect("trains");
        model.train_one(&b[..], 1).expect("trains");
    }
    model.finalize();

    let fuzzer = Fuzzer::new(
        &model,
        Box::new(ByteSubstitute::lowercase()),
        Box::new(NoConstraint),
        FuzzConfig { max_iterations: 80, ..Default::default() },
    );
    let probe = sentence(b"aeiou ");
    let result = fuzzer.fuzz_one(&probe, 1).expect("valid input");
    assert_eq!(result.reference_label, 0);
    assert!(
        result.outcome.is_adversarial(),
        "byte substitutions must eventually flip the language"
    );
}

#[test]
fn record_model_fuzzes_through_the_same_loop() {
    let encoder = RecordEncoder::new(RecordEncoderConfig {
        dim: 2_000,
        fields: 6,
        levels: 32,
        min: 0.0,
        max: 1.0,
        value_encoding: ValueEncoding::Level,
        seed: 8,
    })
    .expect("valid config");
    let mut model = HdcClassifier::new(encoder, 2);
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for _ in 0..30 {
        let low: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..0.35)).collect();
        let high: Vec<f64> = (0..6).map(|_| rng.gen_range(0.65..1.0)).collect();
        model.train_one(&low[..], 0).expect("trains");
        model.train_one(&high[..], 1).expect("trains");
    }
    model.finalize();

    let fuzzer = Fuzzer::new(
        &model,
        Box::new(FieldJitter { sigma: 0.06, fraction: 0.6 }),
        Box::new(NoConstraint),
        FuzzConfig { max_iterations: 80, ..Default::default() },
    );
    let probe = vec![0.3, 0.32, 0.28, 0.33, 0.3, 0.31];
    let result = fuzzer.fuzz_one(&probe, 4).expect("valid input");
    assert!(
        result.outcome.is_adversarial(),
        "field jitter must drift a near-boundary record across"
    );
}
