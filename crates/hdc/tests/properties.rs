//! Property-based tests for the HDC substrate (proptest).
//!
//! Complements the inline unit tests with randomized coverage of the
//! algebraic laws the whole system rests on.

use hdc::prelude::*;
use hdc::{cosine_accum, ops};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hv(dim: usize, seed: u64) -> Hypervector {
    Hypervector::random(dim, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bundling_is_order_invariant(seed in any::<u64>()) {
        let a = hv(400, seed);
        let b = hv(400, seed ^ 1);
        let c = hv(400, seed ^ 2);
        let mut forward = Accumulator::zeros(400);
        for x in [&a, &b, &c] { forward.add(x).unwrap(); }
        let mut backward = Accumulator::zeros(400);
        for x in [&c, &b, &a] { backward.add(x).unwrap(); }
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn bundle_accumulate_matches_manual_sum(seed in any::<u64>()) {
        let vs: Vec<Hypervector> = (0..5).map(|k| hv(200, seed ^ k)).collect();
        let acc = ops::bundle_accumulate(vs.iter()).unwrap();
        for d in 0..200 {
            let manual: i32 = vs.iter().map(|v| i32::from(v.as_slice()[d])).sum();
            prop_assert_eq!(acc.sums()[d], manual);
        }
    }

    #[test]
    fn bind_preserves_distance_structure(seed in any::<u64>()) {
        // Binding by a common key is an isometry: cos(a⊛k, b⊛k) = cos(a, b).
        let a = hv(512, seed);
        let b = hv(512, seed ^ 1);
        let key = hv(512, seed ^ 2);
        let before = hdc::cosine(&a, &b);
        let after = hdc::cosine(&a.bind(&key).unwrap(), &b.bind(&key).unwrap());
        prop_assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn hamming_cosine_affine_identity(seed in any::<u64>()) {
        let a = hv(777, seed);
        let b = hv(777, seed ^ 1);
        let h = hdc::normalized_hamming(&a, &b);
        let c = hdc::cosine(&a, &b);
        prop_assert!((c - (1.0 - 2.0 * h)).abs() < 1e-12);
    }

    #[test]
    fn cosine_accum_agrees_with_reference_formula(seed in any::<u64>()) {
        let q = hv(300, seed);
        let mut acc = Accumulator::zeros(300);
        for k in 0..3 {
            acc.add(&hv(300, seed ^ (k + 1))).unwrap();
        }
        let dot: f64 = q
            .as_slice()
            .iter()
            .zip(acc.sums())
            .map(|(&a, &s)| f64::from(a) * f64::from(s))
            .sum();
        let norm: f64 = acc.sums().iter().map(|&s| f64::from(s) * f64::from(s)).sum::<f64>().sqrt();
        let expected = dot / (300f64.sqrt() * norm);
        let actual = cosine_accum(&q, &acc).expect("non-zero accumulator");
        prop_assert!((actual - expected).abs() < 1e-9);
    }

    #[test]
    fn level_memory_similarity_is_monotone(seed in any::<u64>(), levels in 3usize..20) {
        let mem = LevelMemory::new(levels, 4_096, ValueEncoding::Level, seed, "prop").unwrap();
        let base = mem.get(0).unwrap();
        let mut last = f64::INFINITY;
        for l in 0..levels {
            let sim = hdc::cosine(base, mem.get(l).unwrap());
            prop_assert!(sim <= last + 0.05, "similarity must decay with level distance");
            last = sim;
        }
    }

    #[test]
    fn item_memory_cleanup_recovers_under_noise(seed in any::<u64>(), noise in 0usize..600) {
        let mem = ItemMemory::new(8, 2_048, seed, "prop").unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        // Up to ~29% flipped components: cleanup must still find item 3.
        let noisy = mem.get(3).unwrap().with_noise(noise, &mut rng);
        let (idx, _) = mem.nearest(&noisy).unwrap();
        prop_assert_eq!(idx, 3);
    }

    #[test]
    fn classifier_prediction_is_pure(seed in any::<u64>()) {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 256, width: 4, height: 4, levels: 16,
            value_encoding: ValueEncoding::Random, seed,
        }).unwrap();
        let mut model = HdcClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[250u8; 16][..], 1).unwrap();
        model.finalize();
        let img = [100u8; 16];
        let a = model.predict(&img[..]).unwrap();
        let b = model.predict(&img[..]).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn margin_is_consistent_with_similarities(seed in any::<u64>()) {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 512, width: 4, height: 4, levels: 16,
            value_encoding: ValueEncoding::Random, seed,
        }).unwrap();
        let mut model = HdcClassifier::new(encoder, 4);
        for (c, v) in [0u8, 80, 160, 240].iter().enumerate() {
            model.train_one(&[*v; 16][..], c).unwrap();
        }
        model.finalize();
        let p = model.predict(&[130u8; 16][..]).unwrap();
        let mut sims = p.similarities.clone();
        sims.sort_by(|a, b| b.partial_cmp(a).unwrap());
        prop_assert!((p.similarity - sims[0]).abs() < 1e-12);
        prop_assert!((p.margin - (sims[0] - sims[1])).abs() < 1e-12);
    }

    #[test]
    fn packed_majority_agrees_with_dense_bipolarize(seed in any::<u64>()) {
        // Odd operand counts: majority of packed == bipolarized dense sum.
        let vs: Vec<Hypervector> = (0..5).map(|k| hv(192, seed ^ k)).collect();
        let packed: Vec<PackedHypervector> = vs.iter().map(PackedHypervector::from).collect();
        let maj = PackedHypervector::majority(&packed).unwrap();
        let mut acc = Accumulator::zeros(192);
        for v in &vs { acc.add(v).unwrap(); }
        let dense = acc.bipolarize_deterministic();
        prop_assert_eq!(PackedHypervector::from(&dense), maj);
    }
}
