//! Word-packed kernel benchmarks: the packed hot path vs. the scalar
//! reference oracles it replaced, plus batch vs. sequential prediction.
//!
//! Acceptance numbers for the packed pipeline:
//!
//! * `dot`/`cosine` at `D = 10,000` must beat the scalar baseline ≥5× —
//!   both cold (pack included) and warm (mirror cached, the steady state of
//!   a fuzzing campaign where references and repeated queries stay packed).
//! * Every encoder's packed `encode` must beat its scalar
//!   `encode_reference` — ngram, record and timeseries by ≥2× at
//!   `D = 10,000` (the PR-2 encoder-port acceptance bar).
//! * `predict_batch` on 1,000 queries must beat a sequential `predict`
//!   loop. The batch path fans out with worker threads, so this ratio
//!   tracks the available core count — on a 1-CPU container it degrades to
//!   parity (both paths then share the same packed kernels and scratch
//!   reuse); the final report prints the detected core count next to the
//!   ratio so the number is interpretable.
//!
//! The `SPEEDUP` lines printed at the end are computed from the same
//! measurements and make the ratios explicit. The same measurements are
//! also written as machine-readable JSON (`BENCH_kernels.json`, overridable
//! via the `BENCH_KERNELS_JSON` env var) so the perf trajectory is tracked
//! across PRs; CI's bench-smoke step asserts from that file that no packed
//! path has fallen back to scalar speed. Set `BENCH_QUICK=1` to skip the
//! criterion groups and take fewer samples (the CI smoke mode).

use criterion::{criterion_group, criterion_main, measure_ns, Criterion};
use hdc::kernel::reference;
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const DIM: usize = 10_000;

/// Quick mode: fewer samples, criterion groups skipped (CI smoke).
fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Samples per `measure_ns` call for the speedup report.
fn samples() -> usize {
    if quick() {
        3
    } else {
        10
    }
}

fn fresh_pair(rng: &mut StdRng) -> (Hypervector, Hypervector) {
    (Hypervector::random(DIM, rng), Hypervector::random(DIM, rng))
}

fn bench_dot_cosine(c: &mut Criterion) {
    if quick() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(11);
    let (a, b) = fresh_pair(&mut rng);

    let mut group = c.benchmark_group("kernels_10k");
    group.sample_size(30);

    group.bench_function("dot_scalar_reference", |bench| {
        bench.iter(|| black_box(reference::dot_scalar(a.as_slice(), b.as_slice())));
    });
    group.bench_function("cosine_scalar_reference", |bench| {
        bench.iter(|| black_box(reference::cosine_scalar(a.as_slice(), b.as_slice())));
    });
    group.bench_function("hamming_scalar_reference", |bench| {
        bench.iter(|| black_box(reference::hamming_scalar(a.as_slice(), b.as_slice())));
    });

    // Cold: both operands packed from scratch inside the measurement.
    group.bench_function("dot_packed_cold", |bench| {
        bench.iter(|| {
            let pa = hdc::kernel::pack_words(a.as_slice());
            let pb = hdc::kernel::pack_words(b.as_slice());
            black_box(hdc::kernel::dot_words(&pa, &pb, DIM))
        });
    });

    // Warm: the steady state — mirrors cached, as for AM references and any
    // repeatedly compared vector.
    let _ = (a.packed(), b.packed());
    group.bench_function("dot_packed_warm", |bench| {
        bench.iter(|| black_box(hdc::dot(&a, &b)));
    });
    group.bench_function("cosine_packed_warm", |bench| {
        bench.iter(|| black_box(hdc::cosine(&a, &b)));
    });
    group.bench_function("hamming_packed_warm", |bench| {
        bench.iter(|| black_box(hdc::hamming(&a, &b)));
    });
    group.finish();
}

fn bench_batch_predict(c: &mut Criterion) {
    if quick() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(21);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: DIM,
        width: 16,
        height: 16,
        levels: 256,
        value_encoding: ValueEncoding::Random,
        seed: 5,
    })
    .expect("valid config");
    let mut model = HdcClassifier::new(encoder, 10);
    let mut images: Vec<Vec<u8>> = Vec::new();
    for class in 0..10u8 {
        let base = vec![class.wrapping_mul(25); 256];
        model.train_one(&base[..], usize::from(class)).expect("training succeeds");
        images.push(base);
    }
    model.finalize();

    let queries: Vec<Vec<u8>> = (0..1_000)
        .map(|i| {
            let mut img = images[i % images.len()].clone();
            use rand::Rng;
            for _ in 0..32 {
                let p = rng.gen_range(0..img.len());
                img[p] = rng.gen();
            }
            img
        })
        .collect();
    let query_refs: Vec<&[u8]> = queries.iter().map(|q| &q[..]).collect();

    let mut group = c.benchmark_group("predict_1k_queries");
    group.sample_size(10);
    group.bench_function("sequential_predict_loop", |bench| {
        bench.iter(|| {
            for q in &query_refs {
                black_box(model.predict(q).expect("prediction succeeds"));
            }
        });
    });
    group.bench_function("predict_batch", |bench| {
        bench.iter(|| black_box(model.predict_batch(&query_refs).expect("prediction succeeds")));
    });
    group.finish();

    // Explicit acceptance ratio.
    let loop_ns = measure_ns(
        || {
            for q in &query_refs {
                black_box(model.predict(q).expect("prediction succeeds"));
            }
        },
        5,
    );
    let batch_ns =
        measure_ns(|| black_box(model.predict_batch(&query_refs).expect("prediction succeeds")), 5);
    println!(
        "\nSPEEDUP predict_batch vs sequential predict (1k queries, D={DIM}): {:.2}x",
        loop_ns / batch_ns
    );
}

/// One scalar-vs-packed measurement destined for the SPEEDUP report and
/// the JSON file.
struct Row {
    op: &'static str,
    scalar_ns: f64,
    packed_ns: f64,
    note: &'static str,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.packed_ns
    }
}

/// Per-backend kernel tiers: each SIMD-able op measured one tier against
/// the tier below it, so the JSON trajectory shows where each backend's
/// win comes from. `*@portable` rows baseline against the scalar reference
/// loops (the packed-vs-scalar contract that predates backends);
/// `*@avx2` rows baseline against the portable tier and are only emitted
/// when the CPU supports AVX2 — `check_bench_json.py` arms their floors on
/// the `cpu_features` header field, exactly like the multicore scaling
/// gate.
fn backend_rows(rows: &mut Vec<Row>) {
    use hdc::kernel::{self, Backend};

    let n = samples();
    let mut rng = StdRng::seed_from_u64(41);
    let (a, b) = fresh_pair(&mut rng);
    let pa = kernel::pack_words(a.as_slice());
    let pb = kernel::pack_words(b.as_slice());

    let portable_hamming =
        measure_ns(|| black_box(kernel::hamming_words_with(Backend::Portable, &pa, &pb)), n);
    rows.push(Row {
        op: "hamming@portable",
        scalar_ns: measure_ns(
            || black_box(reference::hamming_scalar(a.as_slice(), b.as_slice())),
            n,
        ),
        packed_ns: portable_hamming,
        note: "scalar i8 loop vs portable u64 tier",
    });

    // The fused AM scan, isolated from packing: one warm query against 10
    // warm class references — per-reference loop (the pre-backend path) on
    // the portable tier vs `hamming_many`.
    const CLASSES: usize = 10;
    let class_vectors: Vec<Hypervector> =
        (0..CLASSES).map(|_| Hypervector::random(DIM, &mut rng)).collect();
    let refs_owned: Vec<Vec<u64>> =
        class_vectors.iter().map(|v| kernel::pack_words(v.as_slice())).collect();
    let refs: Vec<&[u64]> = refs_owned.iter().map(Vec::as_slice).collect();
    let mut distances = vec![0usize; CLASSES];
    let portable_scan = measure_ns(
        || {
            let mut acc = 0usize;
            for r in &refs {
                acc += black_box(kernel::hamming_words_with(Backend::Portable, &pa, r));
            }
            acc
        },
        n,
    );
    rows.push(Row {
        op: "am_scan@portable",
        scalar_ns: measure_ns(
            || {
                let mut acc = 0usize;
                for v in &class_vectors {
                    acc += black_box(reference::hamming_scalar(a.as_slice(), v.as_slice()));
                }
                acc
            },
            n,
        ),
        packed_ns: portable_scan,
        note: "scalar i8 loop vs portable tier, 10 classes warm",
    });

    if !Backend::Avx2.supported() {
        println!("(AVX2 not detected: skipping @avx2 backend rows)");
        return;
    }

    rows.push(Row {
        op: "hamming@avx2",
        scalar_ns: portable_hamming,
        packed_ns: measure_ns(|| black_box(kernel::hamming_words_with(Backend::Avx2, &pa, &pb)), n),
        note: "portable u64 tier vs AVX2 Harley-Seal popcount",
    });

    rows.push(Row {
        op: "am_scan@avx2",
        scalar_ns: portable_scan,
        packed_ns: measure_ns(
            || {
                kernel::hamming_many_into_with(Backend::Avx2, &pa, &refs, &mut distances);
                black_box(distances[0])
            },
            n,
        ),
        note: "portable per-reference loop vs fused AVX2 hamming_many, 10 classes warm",
    });

    let mut scratch = vec![0u64; kernel::words_for(DIM)];
    rows.push(Row {
        op: "pack@avx2",
        scalar_ns: measure_ns(
            || {
                kernel::pack_words_into_with(Backend::Portable, a.as_slice(), &mut scratch);
                black_box(scratch[0])
            },
            n,
        ),
        packed_ns: measure_ns(
            || {
                kernel::pack_words_into_with(Backend::Avx2, a.as_slice(), &mut scratch);
                black_box(scratch[0])
            },
            n,
        ),
        note: "portable bit-matrix transpose vs AVX2 vpmovmskb gather",
    });

    let bundle: Vec<Vec<u64>> = (0..256)
        .map(|_| kernel::pack_words(Hypervector::random(DIM, &mut rng).as_slice()))
        .collect();
    let bundle_with = |backend: Backend| {
        let mut counter = kernel::BitCounter::new_with_backend(DIM, backend);
        for v in &bundle {
            counter.add(v.as_slice());
        }
        black_box(counter.bipolarize_packed())
    };
    rows.push(Row {
        op: "bundle@avx2",
        scalar_ns: measure_ns(|| bundle_with(Backend::Portable), n),
        packed_ns: measure_ns(|| bundle_with(Backend::Avx2), n),
        note: "portable CSA planes vs AVX2 256-bit planes, 256 vectors",
    });
}

/// Measures the four ported encoders plus the pixel encoder: packed
/// `encode` vs the scalar `encode_reference` oracle, one representative
/// input each at `D = 10,000`.
fn encoder_rows(rows: &mut Vec<Row>) {
    let n = samples();

    let ngram = NgramEncoder::new(NgramEncoderConfig { dim: DIM, n: 3, alphabet: 256, seed: 7 })
        .expect("valid config");
    ngram.warm_up();
    let text: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    rows.push(Row {
        op: "encode_ngram",
        scalar_ns: measure_ns(|| black_box(ngram.encode_reference(&text).expect("encode")), n),
        packed_ns: measure_ns(|| black_box(ngram.encode(&text).expect("encode")), n),
        note: "64-byte text, n=3",
    });

    let record = RecordEncoder::new(RecordEncoderConfig {
        dim: DIM,
        fields: 16,
        ..RecordEncoderConfig::default()
    })
    .expect("valid config");
    record.warm_up();
    let rec: Vec<f64> = (0..16).map(|i| f64::from(i) / 16.0).collect();
    rows.push(Row {
        op: "encode_record",
        scalar_ns: measure_ns(|| black_box(record.encode_reference(&rec).expect("encode")), n),
        packed_ns: measure_ns(|| black_box(record.encode(&rec).expect("encode")), n),
        note: "16 fields",
    });

    let ts = TimeSeriesEncoder::new(TimeSeriesEncoderConfig { dim: DIM, ..Default::default() })
        .expect("valid config");
    ts.warm_up();
    let signal: Vec<f64> = (0..64).map(|i| (f64::from(i) * 0.2).sin()).collect();
    rows.push(Row {
        op: "encode_timeseries",
        scalar_ns: measure_ns(|| black_box(ts.encode_reference(&signal).expect("encode")), n),
        packed_ns: measure_ns(|| black_box(ts.encode(&signal).expect("encode")), n),
        note: "64 samples, window=4",
    });

    let pp = PermutePixelEncoder::new(PermutePixelEncoderConfig {
        dim: DIM,
        width: 16,
        height: 16,
        ..Default::default()
    })
    .expect("valid config");
    pp.warm_up();
    let img: Vec<u8> = (0..256u32).map(|i| (i * 3 % 256) as u8).collect();
    rows.push(Row {
        op: "encode_permute_pixel",
        scalar_ns: measure_ns(|| black_box(pp.encode_reference(&img).expect("encode")), n),
        packed_ns: measure_ns(|| black_box(pp.encode(&img).expect("encode")), n),
        note: "16x16 image",
    });

    let pixel = PixelEncoder::new(PixelEncoderConfig {
        dim: DIM,
        width: 16,
        height: 16,
        ..Default::default()
    })
    .expect("valid config");
    pixel.warm_up();
    rows.push(Row {
        op: "encode_pixel",
        scalar_ns: measure_ns(|| black_box(pixel.encode_reference(&img).expect("encode")), n),
        packed_ns: measure_ns(|| black_box(pixel.encode(&img).expect("encode")), n),
        note: "16x16 image",
    });
}

/// Measures online learning: one `partial_fit` (encode + counter add +
/// re-finalize of a single dirty class) against the full retrain from
/// scratch it replaces, at the paper's scale — `D = 10,000`, 10 classes,
/// 10 examples per class. The acceptance bar is ≥50×, gated by
/// `scripts/check_bench_json.py` (`train_partial_fit`).
fn train_rows(rows: &mut Vec<Row>) {
    const CLASSES: usize = 10;
    const PER_CLASS: usize = 10;
    let n = samples();

    let encoder = || {
        PixelEncoder::new(PixelEncoderConfig {
            dim: DIM,
            width: 16,
            height: 16,
            ..Default::default()
        })
        .expect("valid config")
    };
    // Deterministic pseudo-random dataset: CLASSES × PER_CLASS base
    // examples plus the one example the online path absorbs.
    let images: Vec<Vec<u8>> = (0..CLASSES * PER_CLASS + 1)
        .map(|k| (0..256).map(|i| ((k * 7 + i * 13) % 256) as u8).collect())
        .collect();
    let label_of = |k: usize| k % CLASSES;
    let (extra, base) = images.split_last().expect("non-empty");
    let extra_label = label_of(images.len() - 1);

    let mut online = HdcClassifier::new(encoder(), CLASSES);
    online
        .train_batch(base.iter().enumerate().map(|(k, img)| (&img[..], label_of(k))))
        .expect("base training");
    online.encoder().warm_up();

    // Pre-built, pre-warmed encoder for the scalar side: a real retrain
    // reuses its item memories, so their seed-derived regeneration must
    // not inflate the baseline (the per-iteration clone is a memcpy).
    let scratch_encoder = encoder();
    scratch_encoder.warm_up();

    rows.push(Row {
        op: "train_partial_fit",
        scalar_ns: measure_ns(
            || {
                // The full retrain this replaces: every example re-encoded
                // and re-bundled, every class re-bipolarized.
                let mut scratch = HdcClassifier::new(scratch_encoder.clone(), CLASSES);
                scratch
                    .train_batch(images.iter().enumerate().map(|(k, img)| (&img[..], label_of(k))))
                    .expect("scratch training");
                black_box(scratch.is_finalized())
            },
            n,
        ),
        packed_ns: measure_ns(
            // The same end state, incrementally: one encode, one counter
            // add, one dirty-class re-finalize.
            || black_box(online.partial_fit(&extra[..], extra_label).is_ok()),
            n,
        ),
        note: "1 example vs full retrain, 10 classes x 10 examples",
    });
}

/// Writes the measurement rows as `BENCH_kernels.json` (path overridable
/// via `BENCH_KERNELS_JSON`): `{suite, dim, quick, cores, ops: {op ->
/// {scalar_ns, packed_ns, speedup, note}}}` — the same schema
/// `serve-loadgen` uses for `BENCH_serve.json`.
fn write_json(rows: &[Row]) {
    let path =
        std::env::var("BENCH_KERNELS_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut ops = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            ops.push_str(",\n");
        }
        ops.push_str(&format!(
            "    \"{}\": {{\"scalar_ns\": {:.1}, \"packed_ns\": {:.1}, \"speedup\": {:.2}, \
             \"note\": \"{}\"}}",
            row.op,
            row.scalar_ns,
            row.packed_ns,
            row.speedup(),
            row.note
        ));
    }
    let json = format!(
        "{{\n  \"suite\": \"kernels\",\n  \"dim\": {DIM},\n  \"quick\": {},\n  \"cores\": \
         {cores},\n  \"kernel_backend\": \"{}\",\n  \"cpu_features\": \"{}\",\n  \"ops\": \
         {{\n{ops}\n  }}\n}}\n",
        quick(),
        hdc::kernel::backend::active(),
        hdc::kernel::backend::cpu_features()
    );
    // A write failure must fail the bench run: CI's gate reads this file,
    // and exiting 0 here would let it validate stale numbers.
    std::fs::write(&path, json)
        .unwrap_or_else(|e| panic!("failed to write bench JSON {path}: {e}"));
    println!(
        "wrote {} ({} ops)",
        std::fs::canonicalize(&path).unwrap_or_else(|_| path.clone().into()).display(),
        rows.len()
    );
}

fn report_speedups(_c: &mut Criterion) {
    use hdc::kernel;

    let n = samples();
    let mut rng = StdRng::seed_from_u64(31);
    let (a, b) = fresh_pair(&mut rng);
    let mut rows: Vec<Row> = Vec::new();

    // The cold-pack delta: the old movemask-emulation pack vs the live
    // bit-matrix-transpose pack.
    rows.push(Row {
        op: "pack_words",
        scalar_ns: measure_ns(|| black_box(reference::pack_words_movemask(a.as_slice())), n),
        packed_ns: measure_ns(|| black_box(kernel::pack_words(a.as_slice())), n),
        note: "movemask emulation vs bit-matrix transpose",
    });

    let scalar_dot = measure_ns(|| black_box(reference::dot_scalar(a.as_slice(), b.as_slice())), n);
    // Cold: both operands packed from scratch inside the measurement.
    rows.push(Row {
        op: "dot_cold",
        scalar_ns: scalar_dot,
        packed_ns: measure_ns(
            || {
                let pa = kernel::pack_words(a.as_slice());
                let pb = kernel::pack_words(b.as_slice());
                black_box(kernel::dot_words(&pa, &pb, DIM))
            },
            n,
        ),
        note: "pack included",
    });

    let _ = (a.packed(), b.packed());
    rows.push(Row {
        op: "dot_warm",
        scalar_ns: scalar_dot,
        packed_ns: measure_ns(|| black_box(hdc::dot(&a, &b)), n),
        note: "mirrors cached",
    });
    rows.push(Row {
        op: "cosine_warm",
        scalar_ns: measure_ns(
            || black_box(reference::cosine_scalar(a.as_slice(), b.as_slice())),
            n,
        ),
        packed_ns: measure_ns(|| black_box(hdc::cosine(&a, &b)), n),
        note: "mirrors cached",
    });

    // The associative-memory scenario: one query scored against C class
    // references — the shape of every campaign fitness evaluation. The
    // packed side pays one pack, amortized over all C comparisons.
    const CLASSES: usize = 10;
    let refs: Vec<Hypervector> = (0..CLASSES).map(|_| Hypervector::random(DIM, &mut rng)).collect();
    for r in &refs {
        let _ = r.packed();
    }
    let query = Hypervector::random(DIM, &mut rng);
    rows.push(Row {
        op: "am_scan",
        scalar_ns: measure_ns(
            || {
                let mut acc = 0i64;
                for r in &refs {
                    acc += black_box(reference::dot_scalar(query.as_slice(), r.as_slice()));
                }
                acc
            },
            n,
        ),
        packed_ns: measure_ns(
            || {
                let packed_query = kernel::pack_words(query.as_slice());
                let mut acc = 0i64;
                for r in &refs {
                    acc += black_box(kernel::dot_words(
                        packed_query.as_slice(),
                        r.packed().words(),
                        DIM,
                    ));
                }
                acc
            },
            n,
        ),
        note: "query vs 10 classes, pack included",
    });

    // CSA-tree bundling vs the ripple-carry reference: 256 vectors (one
    // image's worth) through a BitCounter each way.
    let bundle: Vec<Hypervector> = (0..256).map(|_| Hypervector::random(DIM, &mut rng)).collect();
    for v in &bundle {
        let _ = v.packed();
    }
    rows.push(Row {
        op: "bundle_256",
        scalar_ns: measure_ns(
            || {
                let mut counter = kernel::BitCounter::new(DIM);
                for v in &bundle {
                    counter.add_ripple(v.packed().words());
                }
                black_box(counter.bipolarize_packed())
            },
            n,
        ),
        packed_ns: measure_ns(
            || {
                let mut counter = kernel::BitCounter::new(DIM);
                for v in &bundle {
                    counter.add(v.packed().words());
                }
                black_box(counter.bipolarize_packed())
            },
            n,
        ),
        note: "ripple-carry vs CSA tree, 256 vectors",
    });

    backend_rows(&mut rows);
    encoder_rows(&mut rows);
    train_rows(&mut rows);

    println!();
    for row in &rows {
        println!(
            "SPEEDUP {:<21} (D={DIM}): scalar {:>9.0} ns → packed {:>8.0} ns ({:.1}x)  [{}]",
            row.op,
            row.scalar_ns,
            row.packed_ns,
            row.speedup(),
            row.note
        );
    }
    println!(
        "(cores available: {} — predict_batch thread fan-out scales with this)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    write_json(&rows);
}

criterion_group!(kernels, bench_dot_cosine, bench_batch_predict, report_speedups);
criterion_main!(kernels);
