//! Classifier benchmarks: one-shot training, prediction (the fuzzer's
//! inner-loop cost), retraining updates and model persistence.

use criterion::{criterion_group, criterion_main, Criterion};
use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use std::hint::black_box;

fn trained_model() -> (HdcClassifier<PixelEncoder>, hdc_data::Dataset) {
    let mut generator = SynthGenerator::new(SynthConfig { seed: 9, ..Default::default() });
    let train = generator.dataset(20);
    let encoder = PixelEncoder::new(PixelEncoderConfig { seed: 4, ..Default::default() })
        .expect("valid config");
    let mut model = HdcClassifier::new(encoder, 10);
    model.train_batch(train.pairs()).expect("training succeeds");
    (model, train)
}

fn bench_classifier(c: &mut Criterion) {
    let (model, train) = trained_model();
    let sample = train.image(0).as_slice().to_vec();

    let mut group = c.benchmark_group("classifier");
    group.sample_size(20);

    group.bench_function("predict_d10k", |bench| {
        bench.iter(|| black_box(model.predict(&sample[..]).expect("valid shape")));
    });

    group.bench_function("train_one_d10k", |bench| {
        bench.iter_batched(
            || model.clone(),
            |mut m| {
                m.train_one(&sample[..], 0).expect("valid label");
                black_box(m)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function("retrain_adaptive_d10k", |bench| {
        bench.iter_batched(
            || model.clone(),
            |mut m| {
                m.retrain_adaptive(&sample[..], 5).expect("valid label");
                black_box(m)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function("finalize_10_classes_d10k", |bench| {
        bench.iter_batched(
            || model.clone(),
            |mut m| {
                m.finalize();
                black_box(m)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function("save_load_round_trip", |bench| {
        bench.iter(|| {
            let mut buf = Vec::new();
            hdc::io::save_pixel_classifier(&model, &mut buf).expect("in-memory write");
            black_box(hdc::io::load_any(&buf[..]).expect("valid payload"))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
