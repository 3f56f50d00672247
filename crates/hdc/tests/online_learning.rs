//! Property tests pinning the online-learning subsystem to the
//! retrain-from-scratch oracle.
//!
//! The contract: a model that absorbs examples through `partial_fit` /
//! `partial_fit_batch` (dirty-class incremental re-finalize) must be
//! **bit-identical** to a model retrained from scratch on the concatenated
//! dataset — at every boundary dimension (tail-masking stress), with even
//! bundle counts (parity tie-breaks live), and across a save → load →
//! continue-training round trip.

use hdc::io::{load_any, save_pixel_classifier};
use hdc::memory::ValueEncoding;
use hdc::prelude::*;
use hdc::AssociativeMemory;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The boundary dimensions under test (same set the kernel properties pin).
const DIMS: [usize; 5] = [63, 64, 65, 127, 10_000];

fn encoder(dim: usize, seed: u64) -> PixelEncoder {
    PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: 4,
        height: 4,
        levels: 8,
        value_encoding: ValueEncoding::Random,
        seed,
    })
    .expect("valid config")
}

/// Deterministic pseudo-random images and labels from one seed.
fn examples(seed: u64, n: usize, classes: usize) -> Vec<(Vec<u8>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let img: Vec<u8> = (0..16).map(|_| rng.gen::<u8>()).collect();
            let label = rng.gen::<u64>() as usize % classes;
            (img, label)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `partial_fit` example-by-example == full retrain on everything.
    /// Counts are chosen so several classes end up with *even* bundle
    /// sizes, exercising the parity tie-break in re-finalized classes.
    #[test]
    fn partial_fit_matches_retrain_from_scratch(seed in any::<u64>()) {
        for dim in DIMS {
            let base = examples(seed, 6, 3);
            let online_updates = examples(seed ^ 0x01d1, 6, 3);

            let mut online = HdcClassifier::new(encoder(dim, 9), 3);
            online.train_batch(base.iter().map(|(i, l)| (&i[..], *l)))
                .expect("base training");
            for (img, label) in &online_updates {
                online.partial_fit(&img[..], *label).expect("partial_fit");
                prop_assert!(online.is_finalized());
            }

            let mut scratch = HdcClassifier::new(encoder(dim, 9), 3);
            scratch
                .train_batch(
                    base.iter().chain(&online_updates).map(|(i, l)| (&i[..], *l)),
                )
                .expect("scratch training");

            for c in 0..3 {
                prop_assert_eq!(
                    online.associative_memory().reference(c).expect("ref"),
                    scratch.associative_memory().reference(c).expect("ref"),
                    "dim {} class {}: partial_fit diverged from retrain", dim, c
                );
            }
        }
    }

    /// One `partial_fit_batch` call == full retrain on everything.
    #[test]
    fn partial_fit_batch_matches_retrain(seed in any::<u64>()) {
        for dim in DIMS {
            let base = examples(seed, 5, 3);
            let update = examples(seed ^ 0xba7c4, 7, 3);

            let mut online = HdcClassifier::new(encoder(dim, 4), 3);
            online.train_batch(base.iter().map(|(i, l)| (&i[..], *l))).expect("train");
            let applied = online
                .partial_fit_batch(update.iter().map(|(i, l)| (&i[..], *l)))
                .expect("partial_fit_batch");
            prop_assert_eq!(applied, update.len());

            let mut scratch = HdcClassifier::new(encoder(dim, 4), 3);
            scratch
                .train_batch(base.iter().chain(&update).map(|(i, l)| (&i[..], *l)))
                .expect("train");

            for c in 0..3 {
                prop_assert_eq!(
                    online.associative_memory().reference(c).expect("ref"),
                    scratch.associative_memory().reference(c).expect("ref"),
                    "dim {} class {}", dim, c
                );
            }
        }
    }

    /// Raw associative memory: interleaved add/subtract (the adaptive
    /// feedback shape) with incremental finalizes == one full re-derive.
    #[test]
    fn am_incremental_finalize_matches_full(seed in any::<u64>()) {
        for dim in DIMS {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut am = AssociativeMemory::new(4, dim);
            let vectors: Vec<PackedHypervector> =
                (0..12).map(|_| PackedHypervector::random(dim, &mut rng)).collect();
            for (i, v) in vectors.iter().enumerate() {
                am.add(i % 4, v).expect("add");
            }
            am.finalize();
            // Adaptive-style round: add to one class, subtract from
            // another, re-finalize incrementally — twice.
            for k in 0..2 {
                am.add(k, &vectors[k]).expect("add");
                am.subtract(3 - k, &vectors[k + 4]).expect("subtract");
                am.finalize();
            }

            let counters: Vec<_> =
                (0..4).map(|c| am.counter(c).expect("counter").clone()).collect();
            let full = AssociativeMemory::from_counters(counters).expect("rebuild");
            for c in 0..4 {
                prop_assert_eq!(
                    am.reference(c).expect("ref"),
                    full.reference(c).expect("ref"),
                    "dim {} class {}", dim, c
                );
            }
        }
    }
}

/// Save → load → continue training: the reloaded model must track the
/// never-saved one bit-exactly through further partial fits, counters
/// included.
#[test]
fn save_load_continue_training_round_trip() {
    for dim in [63usize, 64, 65, 127, 2_000] {
        let base = examples(0xf11e, 6, 3);
        let update = examples(0xf11e ^ 1, 5, 3);

        let mut original = HdcClassifier::new(encoder(dim, 2), 3);
        original.train_batch(base.iter().map(|(i, l)| (&i[..], *l))).unwrap();
        let mut buf = Vec::new();
        save_pixel_classifier(&original, &mut buf).unwrap();
        let mut reloaded = load_any(&buf[..]).unwrap();
        for (img, label) in &update {
            original.partial_fit(&img[..], *label).unwrap();
            reloaded.partial_fit(&img[..], *label).unwrap();
        }
        for c in 0..3 {
            assert_eq!(
                original.associative_memory().reference(c).unwrap(),
                reloaded.associative_memory().reference(c).unwrap(),
                "dim {dim} class {c}"
            );
            assert_eq!(
                original.counter(c).unwrap(),
                reloaded.counter(c).unwrap(),
                "dim {dim} class {c} counters"
            );
        }
    }
}
