//! Property tests pinning the word-packed kernels to the scalar reference
//! oracles (`hdc::kernel::reference`) at dimensions chosen to stress tail
//! masking: one under, at, and over the 64-bit word boundary, a two-word
//! boundary, and the paper's production dimension.
//!
//! The packed path must be **bit-exact** with the seed's scalar semantics —
//! these tests are the contract that lets `dot`, `cosine`, `hamming`,
//! `bind` and `permute` run on words without anyone downstream noticing.

use hdc::kernel::{self, reference, BitCounter};
use hdc::Hypervector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The boundary dimensions under test.
const DIMS: [usize; 5] = [63, 64, 65, 127, 10_000];

fn hv(dim: usize, seed: u64) -> Hypervector {
    Hypervector::random(dim, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_dot_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0x5eed);
            prop_assert_eq!(
                hdc::dot(&a, &b),
                reference::dot_scalar(a.as_slice(), b.as_slice()),
                "dim {}", dim
            );
        }
    }

    #[test]
    fn packed_cosine_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0xc05);
            let packed = hdc::cosine(&a, &b);
            let scalar = reference::cosine_scalar(a.as_slice(), b.as_slice());
            // dot is integer-exact, so the quotient is bit-identical.
            prop_assert_eq!(packed, scalar, "dim {}", dim);
        }
    }

    #[test]
    fn packed_hamming_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0x4a);
            prop_assert_eq!(
                hdc::hamming(&a, &b),
                reference::hamming_scalar(a.as_slice(), b.as_slice()),
                "dim {}", dim
            );
        }
    }

    #[test]
    fn packed_bind_matches_scalar(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let b = hv(dim, seed ^ 0xb1);
            // Force the mirrors so bind takes the word-level XNOR path.
            let _ = (a.packed(), b.packed());
            let bound = a.bind(&b).expect("same dim");
            prop_assert_eq!(
                bound.as_slice(),
                &reference::bind_scalar(a.as_slice(), b.as_slice())[..],
                "dim {}", dim
            );
            // And the carried mirror must agree with a from-scratch pack.
            prop_assert_eq!(
                bound.packed().words(),
                &kernel::pack_words(bound.as_slice())[..],
                "mirror at dim {}", dim
            );
        }
    }

    #[test]
    fn packed_permute_matches_scalar(seed in any::<u64>(), amount in 0usize..600) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let _ = a.packed();
            let rotated = a.permute(amount);
            prop_assert_eq!(
                rotated.as_slice(),
                &reference::permute_scalar(a.as_slice(), amount)[..],
                "dim {} amount {}", dim, amount
            );
            prop_assert_eq!(
                rotated.packed().words(),
                &kernel::pack_words(rotated.as_slice())[..],
                "mirror at dim {} amount {}", dim, amount
            );
        }
    }

    #[test]
    fn pack_round_trips_and_masks_tail(seed in any::<u64>()) {
        for dim in DIMS {
            let a = hv(dim, seed);
            let words = kernel::pack_words(a.as_slice());
            prop_assert_eq!(&kernel::unpack_words(&words, dim)[..], a.as_slice(), "dim {}", dim);
            if dim % 64 != 0 {
                prop_assert_eq!(words[dim / 64] >> (dim % 64), 0, "tail at dim {}", dim);
            }
        }
    }

    #[test]
    fn bit_counter_bundling_matches_integer_sums(seed in any::<u64>(), n in 1usize..12) {
        for dim in DIMS {
            let vectors: Vec<Hypervector> =
                (0..n).map(|k| hv(dim, seed ^ (k as u64) << 8)).collect();
            let mut counter = BitCounter::new(dim);
            let mut sums = vec![0i32; dim];
            for v in &vectors {
                counter.add(v.packed().words());
                for (s, &c) in sums.iter_mut().zip(v.as_slice()) {
                    *s += i32::from(c);
                }
            }
            prop_assert_eq!(&counter.sums()[..], &sums[..], "dim {}", dim);
            // The direct packed bipolarization agrees with the scalar rule.
            let expected: Vec<i8> = sums
                .iter()
                .enumerate()
                .map(|(i, &s)| match s.cmp(&0) {
                    std::cmp::Ordering::Greater => 1,
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => if i % 2 == 0 { 1 } else { -1 },
                })
                .collect();
            prop_assert_eq!(
                &kernel::unpack_words(&counter.bipolarize_packed(), dim)[..],
                &expected[..],
                "bipolarize at dim {}", dim
            );
        }
    }

    #[test]
    fn csa_tree_counter_matches_ripple_carry_reference(seed in any::<u64>(), n in 1usize..40) {
        // The buffered CSA-tree bundling path (`add`) against the
        // ripple-carry-per-vector reference (`add_ripple`), across group
        // boundaries (n spans several multiples of the flush group) and
        // mixed with fused adds.
        for dim in DIMS {
            let mut csa = BitCounter::new(dim);
            let mut ripple = BitCounter::new(dim);
            for k in 0..n {
                let v = hv(dim, seed ^ ((k as u64) << 16));
                let bits = v.packed().words();
                match k % 3 {
                    0 => csa.add(bits),
                    1 => csa.add_rotated(bits, k),
                    _ => {
                        let w = hv(dim, seed ^ 0xb0b ^ (k as u64));
                        csa.add_bound(bits, w.packed().words());
                        ripple.add_ripple(&kernel::bind_words(bits, w.packed().words(), dim));
                        continue;
                    }
                }
                if k % 3 == 0 {
                    ripple.add_ripple(bits);
                } else {
                    ripple.add_ripple(&kernel::rotate_words(bits, dim, k));
                }
            }
            prop_assert_eq!(csa.count(), ripple.count(), "count at dim {}", dim);
            prop_assert_eq!(csa.sums(), ripple.sums(), "sums at dim {}", dim);
            prop_assert_eq!(
                csa.bipolarize_packed(),
                ripple.bipolarize_packed(),
                "bipolarize at dim {}", dim
            );
        }
    }
}

/// Differential backend exactness: every kernel tier compiled into this
/// binary **and** supported by the running CPU must agree bit-for-bit with
/// the scalar oracles — and with each other — at every boundary dimension.
/// This is the contract that lets the AVX2 tier (Harley–Seal popcount,
/// `vpmovmskb` pack, vectorized counter planes) dispatch transparently: if
/// any SIMD shortcut diverged (tail handling, parity ties, carry
/// propagation), one of these properties would catch it. On CPUs without
/// AVX2 the loop quietly degenerates to scalar + portable, so the suite
/// stays meaningful everywhere.
mod backend_exactness {
    use super::*;
    use hdc::kernel::Backend;

    /// Every compiled tier the running CPU can execute.
    fn runnable_backends() -> Vec<Backend> {
        Backend::compiled().iter().copied().filter(|b| b.supported()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn hamming_and_dot_match_scalar_oracle(seed in any::<u64>()) {
            for dim in DIMS {
                let a = hv(dim, seed);
                let b = hv(dim, seed ^ 0xbac);
                let pa = kernel::pack_words(a.as_slice());
                let pb = kernel::pack_words(b.as_slice());
                let expected = reference::hamming_scalar(a.as_slice(), b.as_slice());
                for backend in runnable_backends() {
                    prop_assert_eq!(
                        kernel::hamming_words_with(backend, &pa, &pb),
                        expected,
                        "hamming backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn pack_matches_oracle_and_masks_tail(seed in any::<u64>()) {
            for dim in DIMS {
                let a = hv(dim, seed);
                let expected = kernel::pack_words(a.as_slice());
                for backend in runnable_backends() {
                    // Dirty scratch: every word must be assigned, and the
                    // tail bits past `dim` must come out zero (the
                    // mask_tail invariant hamming relies on).
                    let mut words = vec![u64::MAX; kernel::words_for(dim)];
                    kernel::pack_words_into_with(backend, a.as_slice(), &mut words);
                    prop_assert_eq!(
                        &words[..], &expected[..],
                        "pack backend {} dim {}", backend, dim
                    );
                    if dim % 64 != 0 {
                        prop_assert_eq!(
                            words[dim / 64] >> (dim % 64), 0,
                            "tail backend {} dim {}", backend, dim
                        );
                    }
                }
            }
        }

        #[test]
        fn hamming_many_matches_loop_of_hamming_words(seed in any::<u64>(), n in 1usize..14) {
            for dim in DIMS {
                let query = hv(dim, seed);
                let qw = kernel::pack_words(query.as_slice());
                let packed: Vec<Vec<u64>> = (0..n)
                    .map(|k| kernel::pack_words(hv(dim, seed ^ ((k as u64) << 9)).as_slice()))
                    .collect();
                let refs: Vec<&[u64]> = packed.iter().map(Vec::as_slice).collect();
                let expected: Vec<usize> =
                    refs.iter().map(|r| kernel::hamming_words_with(Backend::Scalar, &qw, r)).collect();
                for backend in runnable_backends() {
                    let mut out = vec![usize::MAX; n];
                    kernel::hamming_many_into_with(backend, &qw, &refs, &mut out);
                    prop_assert_eq!(
                        &out[..], &expected[..],
                        "hamming_many backend {} dim {} n {}", backend, dim, n
                    );
                }
            }
        }

        #[test]
        fn bit_counter_matches_ripple_oracle(seed in any::<u64>(), n in 1usize..40) {
            // The mixed fused-add workload of the portable CSA test, run on
            // every backend tier against the same ripple-carry oracle:
            // plane compressor, carry propagation, threshold compare and
            // parity tie-breaks must all survive vectorization.
            for dim in DIMS {
                let mut ripple = BitCounter::new_with_backend(dim, Backend::Portable);
                let mut counters: Vec<(Backend, BitCounter)> = runnable_backends()
                    .into_iter()
                    .map(|b| (b, BitCounter::new_with_backend(dim, b)))
                    .collect();
                for k in 0..n {
                    let v = hv(dim, seed ^ ((k as u64) << 16));
                    let bits = v.packed().words();
                    let w = hv(dim, seed ^ 0xd1f ^ (k as u64));
                    let other = w.packed().words();
                    match k % 4 {
                        0 => ripple.add_ripple(bits),
                        1 => ripple.add_ripple(&kernel::rotate_words(bits, dim, k)),
                        2 => ripple.add_ripple(&kernel::bind_words(bits, other, dim)),
                        _ => ripple.add_ripple(&kernel::bind_words(
                            &kernel::rotate_words(bits, dim, k), other, dim,
                        )),
                    }
                    for (_, c) in counters.iter_mut() {
                        match k % 4 {
                            0 => c.add(bits),
                            1 => c.add_rotated(bits, k),
                            2 => c.add_bound(bits, other),
                            _ => c.add_rotated_bound(bits, k, other),
                        }
                    }
                }
                let sums = ripple.sums();
                let bipolar = ripple.bipolarize_packed();
                let majority = ripple.threshold_packed((n / 2) as u64);
                for (backend, c) in counters.iter_mut() {
                    prop_assert_eq!(c.count(), n, "count backend {} dim {}", backend, dim);
                    prop_assert_eq!(&c.sums()[..], &sums[..], "sums backend {} dim {}", backend, dim);
                    prop_assert_eq!(
                        &c.bipolarize_packed()[..], &bipolar[..],
                        "bipolarize backend {} dim {}", backend, dim
                    );
                    prop_assert_eq!(
                        &c.threshold_packed((n / 2) as u64)[..], &majority[..],
                        "threshold backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn sub_bound_matches_ripple_of_the_complement(seed in any::<u64>(), n in 1usize..40) {
            // `sub_bound(a, b)` must add exactly the complement of
            // `a ⊛ b`, tail masked, on every tier; mixed with `add_bound`
            // the implied sums are those of a signed integer bundle.
            for dim in DIMS {
                let mut ripple = BitCounter::new_with_backend(dim, Backend::Portable);
                let mut counters: Vec<(Backend, BitCounter)> = runnable_backends()
                    .into_iter()
                    .map(|b| (b, BitCounter::new_with_backend(dim, b)))
                    .collect();
                let mut sums = vec![0i32; dim];
                for k in 0..n {
                    let a = hv(dim, seed ^ ((k as u64) << 20));
                    let b = hv(dim, seed ^ 0x5ab ^ (k as u64));
                    let (aw, bw) = (a.packed().words(), b.packed().words());
                    let bound = reference::bind_scalar(a.as_slice(), b.as_slice());
                    if k % 3 == 1 {
                        ripple.add_ripple(&kernel::negate_words(&kernel::bind_words(aw, bw, dim), dim));
                        for (s, &v) in sums.iter_mut().zip(&bound) {
                            *s -= i32::from(v);
                        }
                    } else {
                        ripple.add_ripple(&kernel::bind_words(aw, bw, dim));
                        reference::accumulate_scalar(&mut sums, &bound);
                    }
                    for (_, c) in counters.iter_mut() {
                        if k % 3 == 1 { c.sub_bound(aw, bw) } else { c.add_bound(aw, bw) }
                    }
                }
                prop_assert_eq!(&ripple.sums()[..], &sums[..], "oracle dim {}", dim);
                let bipolar = ripple.bipolarize_packed();
                for (backend, c) in counters.iter_mut() {
                    prop_assert_eq!(c.count(), n, "count backend {} dim {}", backend, dim);
                    prop_assert_eq!(&c.sums()[..], &sums[..], "sums backend {} dim {}", backend, dim);
                    prop_assert_eq!(
                        &c.bipolarize_packed()[..], &bipolar[..],
                        "bipolarize backend {} dim {}", backend, dim
                    );
                }
            }
        }

        #[test]
        fn bipolarize_all_ties_is_parity_on_every_backend(seed in any::<u64>(), pairs in 1usize..6) {
            // Adding k vectors and their negations drives every bundling
            // sum to exactly zero — the all-ties worst case. The packed
            // bipolarization must then reproduce the parity rule (even
            // index → +1) bit-for-bit on every tier.
            for dim in DIMS {
                let expected: Vec<i8> =
                    (0..dim).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
                for backend in runnable_backends() {
                    let mut counter = BitCounter::new_with_backend(dim, backend);
                    for k in 0..pairs {
                        let v = hv(dim, seed ^ ((k as u64) << 24));
                        let bits = v.packed().words();
                        counter.add(bits);
                        counter.add(&kernel::negate_words(bits, dim));
                    }
                    prop_assert_eq!(&counter.sums()[..], &vec![0i32; dim][..]);
                    prop_assert_eq!(
                        &kernel::unpack_words(&counter.bipolarize_packed(), dim)[..],
                        &expected[..],
                        "ties backend {} dim {}", backend, dim
                    );
                }
            }
        }
    }
}

/// Per-encoder packed-vs-reference bit-exactness at every boundary
/// dimension. Each encoder's `encode` runs the fully packed pipeline
/// (packed bind/permute intermediates + CSA-tree bundling + word-parallel
/// bipolarization); `encode_reference` runs the surviving scalar oracle.
/// They must agree bit-for-bit, including parity tie-breaks, and the
/// prefilled packed mirror must match a from-scratch pack.
mod encoder_exactness {
    use super::*;
    use hdc::{
        Encoder, NgramEncoder, NgramEncoderConfig, PackedHypervector, PermutePixelEncoder,
        PermutePixelEncoderConfig, PixelEncoder, PixelEncoderConfig, RecordEncoder,
        RecordEncoderConfig, TimeSeriesEncoder, TimeSeriesEncoderConfig, ValueEncoding,
    };
    use rand::Rng;

    fn assert_exact(packed: &Hypervector, reference: &Hypervector, dim: usize) {
        assert_eq!(packed, reference, "dim {dim}");
        assert_eq!(
            packed.packed(),
            &PackedHypervector::pack(packed.as_slice()),
            "mirror at dim {dim}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn ngram_packed_matches_reference(seed in any::<u64>(), n in 1usize..5, len in 8usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = NgramEncoder::new(NgramEncoderConfig {
                    dim, n, alphabet: 32, seed: seed ^ 1,
                }).expect("valid config");
                let text: Vec<u8> = (0..len.max(n)).map(|_| rng.gen()).collect();
                let packed = enc.encode(&text).expect("encode");
                let reference = enc.encode_reference(&text).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn record_packed_matches_reference(seed in any::<u64>(), fields in 1usize..9) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = RecordEncoder::new(RecordEncoderConfig {
                    dim, fields, levels: 16, seed: seed ^ 2,
                    ..RecordEncoderConfig::default()
                }).expect("valid config");
                let record: Vec<f64> = (0..fields).map(|_| rng.gen::<f64>()).collect();
                let packed = enc.encode(&record).expect("encode");
                let reference = enc.encode_reference(&record).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn timeseries_packed_matches_reference(
            seed in any::<u64>(), window in 1usize..5, len in 8usize..20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = TimeSeriesEncoder::new(TimeSeriesEncoderConfig {
                    dim, window, levels: 16, min: -1.0, max: 1.0,
                    value_encoding: ValueEncoding::Level, seed: seed ^ 3,
                }).expect("valid config");
                let signal: Vec<f64> =
                    (0..len.max(window)).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                let packed = enc.encode(&signal).expect("encode");
                let reference = enc.encode_reference(&signal).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn permute_pixel_packed_matches_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                // 7×7 = 49 pixels fits every test dim (positions must not
                // alias: pixels <= dim).
                let enc = PermutePixelEncoder::new(PermutePixelEncoderConfig {
                    dim, width: 7, height: 7, levels: 16,
                    value_encoding: ValueEncoding::Random, seed: seed ^ 4,
                }).expect("valid config");
                let img: Vec<u8> = (0..49).map(|_| rng.gen()).collect();
                let packed = enc.encode(&img).expect("encode");
                let reference = enc.encode_reference(&img).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }

        #[test]
        fn pixel_packed_matches_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in DIMS {
                let enc = PixelEncoder::new(PixelEncoderConfig {
                    dim, width: 6, height: 6, levels: 16,
                    value_encoding: ValueEncoding::Random, seed: seed ^ 5,
                }).expect("valid config");
                let img: Vec<u8> = (0..36).map(|_| rng.gen()).collect();
                let packed = enc.encode(&img).expect("encode");
                let reference = enc.encode_reference(&img).expect("reference");
                assert_exact(&packed, &reference, dim);
            }
        }
    }
}

/// Incremental (delta) encoding against the scalar oracle. A child's
/// bundle is its parent's counter plus, per pixel whose quantized level
/// changed, the complement of `pos ⊛ val_old` and `pos ⊛ val_new`. Along
/// lineages up to 30 generations deep, with 1 to pixels/2 changed pixels
/// per child (the top of that range takes the full-bundle fallback), the
/// grown counter must bipolarize bit-identically to `encode_reference`,
/// parity ties included.
mod delta_exactness {
    use super::*;
    use hdc::{
        Encoder, PermutePixelEncoder, PermutePixelEncoderConfig, PixelEncoder, PixelEncoderConfig,
        ValueEncoding,
    };
    use rand::Rng;

    /// 6×6: an even pixel count, so bundling sums can tie at zero.
    const SIDE: usize = 6;
    const PIXELS: usize = SIDE * SIDE;

    fn pixel(dim: usize, side: usize, seed: u64) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: side,
            height: side,
            levels: 16,
            value_encoding: ValueEncoding::Random,
            seed,
        })
        .expect("valid config")
    }

    fn permute(dim: usize, side: usize, seed: u64) -> PermutePixelEncoder {
        PermutePixelEncoder::new(PermutePixelEncoderConfig {
            dim,
            width: side,
            height: side,
            levels: 16,
            value_encoding: ValueEncoding::Random,
            seed,
        })
        .expect("valid config")
    }

    /// Delta-encodes `child` from `(parent, counter)`, checks the result
    /// against the oracle and the count against the growth rule (two adds
    /// per changed level, or a fresh `pixels`-vector bundle when
    /// `2 · changed ≥ pixels`), and returns the child's counter.
    fn step<E: Encoder<Input = [u8]>>(
        enc: &E,
        oracle: &dyn Fn(&[u8]) -> Hypervector,
        quantize: &dyn Fn(u8) -> usize,
        parent: &[u8],
        counter: &BitCounter,
        child: &[u8],
    ) -> BitCounter {
        let mut next = BitCounter::new(enc.dim());
        assert!(enc.bundle_into(child, Some((parent, counter)), &mut next).expect("bundles"));
        let expected = oracle(child);
        assert_eq!(next.bipolarize_packed(), expected.packed().words(), "dim {}", enc.dim());
        let changed =
            parent.iter().zip(child).filter(|(&a, &b)| quantize(a) != quantize(b)).count();
        let want =
            if 2 * changed < child.len() { counter.count() + 2 * changed } else { child.len() };
        assert_eq!(next.count(), want, "count after {changed} changed levels");
        next
    }

    /// A lineage of `generations` children, each changing 1 to pixels/2
    /// distinct pixels of its parent.
    fn lineage<E: Encoder<Input = [u8]>>(
        enc: &E,
        oracle: &dyn Fn(&[u8]) -> Hypervector,
        quantize: &dyn Fn(u8) -> usize,
        seed: u64,
        generations: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parent: Vec<u8> = (0..PIXELS).map(|_| rng.gen()).collect();
        let mut counter = BitCounter::new(enc.dim());
        assert!(enc.bundle_into(&parent, None, &mut counter).expect("bundles"));
        assert_eq!(counter.bipolarize_packed(), oracle(&parent).packed().words());
        for _ in 0..generations {
            let mut child = parent.clone();
            let mut order: Vec<usize> = (0..PIXELS).collect();
            for k in 0..rng.gen_range(1..=PIXELS / 2) {
                let j = rng.gen_range(k..PIXELS);
                order.swap(k, j);
                child[order[k]] = child[order[k]].wrapping_add(rng.gen_range(1..=255u8));
            }
            counter = step(enc, oracle, quantize, &parent, &counter, &child);
            parent = child;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn pixel_delta_lineage_matches_reference(seed in any::<u64>(), generations in 1usize..31) {
            for dim in DIMS {
                let enc = pixel(dim, SIDE, seed ^ 6);
                let oracle = |img: &[u8]| enc.encode_reference(img).expect("reference");
                lineage(&enc, &oracle, &|p| enc.quantize(p), seed, generations);
            }
        }

        #[test]
        fn permute_pixel_delta_lineage_matches_reference(
            seed in any::<u64>(), generations in 1usize..31,
        ) {
            for dim in DIMS {
                let enc = permute(dim, SIDE, seed ^ 7);
                let oracle = |img: &[u8]| enc.encode_reference(img).expect("reference");
                lineage(&enc, &oracle, &|p| enc.quantize(p), seed, generations);
            }
        }
    }

    /// Two one-pixel deltas on a 2×2 image: with four bound vectors about
    /// 3/8 of the sums are exactly zero, so the parity rule decides many
    /// components. The count grows 4 → 6 → 8, still even, so the same tie
    /// mask applies, and the ties must resolve as in a fresh encode.
    fn tie_case<E: Encoder<Input = [u8]>>(
        enc: &E,
        oracle: &dyn Fn(&[u8]) -> Hypervector,
        quantize: &dyn Fn(u8) -> usize,
    ) {
        let root = [0u8, 64, 128, 192];
        let child = [16u8, 64, 128, 192];
        let grandchild = [16u8, 64, 144, 192];
        let mut counter = BitCounter::new(enc.dim());
        assert!(enc.bundle_into(&root, None, &mut counter).expect("bundles"));
        let mid = step(enc, oracle, quantize, &root, &counter, &child);
        let mut last = step(enc, oracle, quantize, &child, &mid, &grandchild);
        assert_eq!((mid.count(), last.count()), (6, 8), "dim {}", enc.dim());
        let ties = last.sums().iter().filter(|&&s| s == 0).count();
        assert!(ties > 0, "dim {}: the case must exercise the tie rule", enc.dim());
    }

    #[test]
    fn parity_ties_survive_the_grown_even_count() {
        for dim in DIMS {
            let enc = pixel(dim, 2, 11);
            tie_case(&enc, &|img| enc.encode_reference(img).expect("ref"), &|p| enc.quantize(p));
            let enc = permute(dim, 2, 11);
            tie_case(&enc, &|img| enc.encode_reference(img).expect("ref"), &|p| enc.quantize(p));
        }
    }

    #[test]
    fn shape_and_dimension_errors_are_reported() {
        let enc = pixel(64, SIDE, 1);
        let img = [0u8; PIXELS];
        let mut counter = BitCounter::new(64);
        assert!(enc.bundle_into(&img[..5], None, &mut counter).is_err());
        assert!(enc.bundle_into(&img, Some((&img[..5], &counter)), &mut counter.clone()).is_err());
        let wrong = BitCounter::new(65);
        assert!(enc.bundle_into(&img, Some((&img, &wrong)), &mut counter).is_err());
    }
}
