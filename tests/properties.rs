//! Property-based tests across crate boundaries (proptest).
//!
//! These pin the algebraic invariants the system relies on: HDC operator
//! laws, metric axioms, mutation budgets, and format round-trips — over
//! arbitrary inputs, not hand-picked ones.

use hdc::prelude::*;
use hdc_data::{idx, metrics, pgm, GrayImage};
use hdtest::mutation::Strategy as MutationStrategy;
use hdtest::{GaussNoise, Mutation, RandNoise, Shift};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_image(side: usize) -> impl Strategy<Value = GrayImage> {
    proptest::collection::vec(any::<u8>(), side * side)
        .prop_map(move |pixels| GrayImage::from_pixels(side, side, pixels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // --- HDC operator laws -------------------------------------------

    #[test]
    fn bind_is_commutative_and_self_inverse(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Hypervector::random(512, &mut rng);
        let b = Hypervector::random(512, &mut rng);
        prop_assert_eq!(a.bind(&b).unwrap(), b.bind(&a).unwrap());
        prop_assert_eq!(a.bind(&a).unwrap(), Hypervector::ones(512));
    }

    #[test]
    fn permutation_is_a_group_action(seed in any::<u64>(), j in 0usize..600, k in 0usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Hypervector::random(300, &mut rng);
        // ρ^j ∘ ρ^k = ρ^{j+k}, and inverses cancel.
        prop_assert_eq!(a.permute(j).permute(k), a.permute(j + k));
        prop_assert_eq!(a.permute(j).permute_inverse(j), a.clone());
    }

    #[test]
    fn cosine_is_bounded_and_symmetric(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Hypervector::random(256, &mut rng);
        let b = Hypervector::random(256, &mut rng);
        let c = hdc::cosine(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
        prop_assert_eq!(c, hdc::cosine(&b, &a));
    }

    #[test]
    fn binding_distributes_over_permutation(seed in any::<u64>(), k in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Hypervector::random(256, &mut rng);
        let b = Hypervector::random(256, &mut rng);
        // ρ(a ⊛ b) = ρ(a) ⊛ ρ(b)
        prop_assert_eq!(
            a.bind(&b).unwrap().permute(k),
            a.permute(k).bind(&b.permute(k)).unwrap()
        );
    }

    #[test]
    fn packed_and_dense_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Hypervector::random(130, &mut rng);
        let b = Hypervector::random(130, &mut rng);
        let pa = PackedHypervector::from(&a);
        let pb = PackedHypervector::from(&b);
        prop_assert_eq!(pa.hamming_distance(&pb), a.hamming_distance(&b).unwrap());
        prop_assert_eq!(
            PackedHypervector::from(&a.bind(&b).unwrap()),
            pa.bind(&pb).unwrap()
        );
    }

    // --- Metric axioms -------------------------------------------------

    #[test]
    fn metrics_satisfy_identity_symmetry_nonneg(a in arb_image(8), b in arb_image(8)) {
        prop_assert_eq!(metrics::normalized_l1(&a, &a), 0.0);
        prop_assert_eq!(metrics::normalized_l2(&a, &a), 0.0);
        prop_assert_eq!(metrics::normalized_l1(&a, &b), metrics::normalized_l1(&b, &a));
        prop_assert_eq!(metrics::normalized_l2(&a, &b), metrics::normalized_l2(&b, &a));
        prop_assert!(metrics::normalized_l1(&a, &b) >= 0.0);
        prop_assert!(metrics::normalized_l2(&a, &b) >= 0.0);
        // Norm ordering: L∞ ≤ L2 ≤ L1.
        let (l1, l2, li) = (
            metrics::normalized_l1(&a, &b),
            metrics::normalized_l2(&a, &b),
            metrics::linf_distance(&a, &b),
        );
        prop_assert!(li <= l2 + 1e-9 && l2 <= l1 + 1e-9, "l1={l1} l2={l2} linf={li}");
    }

    #[test]
    fn l2_triangle_inequality(a in arb_image(6), b in arb_image(6), c in arb_image(6)) {
        let ab = metrics::normalized_l2(&a, &b);
        let bc = metrics::normalized_l2(&b, &c);
        let ac = metrics::normalized_l2(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    // --- Mutation budgets ----------------------------------------------

    #[test]
    fn gauss_single_application_within_l2_budget(img in arb_image(28), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = GaussNoise::default().mutate(&img, &mut rng);
        // One application must stay inside the paper's default budget,
        // otherwise the fuzzer's first round would always be discarded.
        prop_assert!(metrics::normalized_l2(&img, &out) < 1.0);
    }

    #[test]
    fn rand_respects_amplitude(img in arb_image(12), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = RandNoise { amplitude: 6, fraction: 0.5 };
        let out = m.mutate(&img, &mut rng);
        for (&a, &b) in img.as_slice().iter().zip(out.as_slice()) {
            prop_assert!(i16::from(a).abs_diff(i16::from(b)) <= 6);
        }
    }

    #[test]
    fn shift_never_creates_ink(img in arb_image(10), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = Shift { max_step: 2 }.mutate(&img, &mut rng);
        prop_assert!(out.ink_pixels(1) <= img.ink_pixels(1));
    }

    #[test]
    fn mutations_preserve_shape(img in arb_image(9), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for strategy in MutationStrategy::ALL {
            let out = strategy.image_mutation().mutate(&img, &mut rng);
            prop_assert_eq!((out.width(), out.height()), (img.width(), img.height()));
        }
    }

    // --- Format round-trips --------------------------------------------

    #[test]
    fn pgm_round_trips(img in arb_image(7)) {
        let mut buf = Vec::new();
        pgm::write_pgm(&img, &mut buf).unwrap();
        prop_assert_eq!(pgm::read_pgm(&buf[..]).unwrap(), img);
    }

    #[test]
    fn idx_round_trips(imgs in proptest::collection::vec(arb_image(5), 1..4)) {
        let mut buf = Vec::new();
        idx::write_images(&imgs, &mut buf).unwrap();
        prop_assert_eq!(idx::read_images(&buf[..]).unwrap(), imgs);
    }

    #[test]
    fn model_io_round_trips(seed in any::<u64>()) {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 256, width: 4, height: 4, levels: 16,
            value_encoding: ValueEncoding::Random, seed,
        }).unwrap();
        let mut model = HdcClassifier::new(encoder, 3);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[128u8; 16][..], 1).unwrap();
        model.train_one(&[255u8; 16][..], 2).unwrap();
        model.finalize();
        let mut buf = Vec::new();
        hdc::io::save_pixel_classifier(&model, &mut buf).unwrap();
        let loaded = hdc::io::load_any(&buf[..]).unwrap();
        for img in [[0u8; 16], [40u8; 16], [200u8; 16]] {
            prop_assert_eq!(
                model.predict(&img[..]).unwrap().class,
                loaded.predict(&img[..]).unwrap().class
            );
        }
    }

    // --- Encoding locality ---------------------------------------------

    #[test]
    fn fewer_changed_pixels_means_higher_similarity(seed in any::<u64>()) {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 4_096, width: 9, height: 9, levels: 256,
            value_encoding: ValueEncoding::Random, seed,
        }).unwrap();
        let base = [120u8; 81];
        let mut one = base;
        one[0] = 0;
        let mut many = base;
        for p in many.iter_mut().take(40) { *p = 0; }
        let hv_base = encoder.encode(&base[..]).unwrap();
        let s_one = hdc::cosine(&hv_base, &encoder.encode(&one[..]).unwrap());
        let s_many = hdc::cosine(&hv_base, &encoder.encode(&many[..]).unwrap());
        prop_assert!(s_one > s_many, "1-pixel change {s_one} vs 40-pixel change {s_many}");
    }
}
