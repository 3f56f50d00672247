//! Crash-durability property: **save → crash → recover → continue
//! training** must be bit-exact against a lineage that never crashed.
//!
//! Each case runs two registries over identical op streams — trains and
//! feedbacks, with a mid-stream snapshot (which compacts the WAL) — then
//! "crashes" one (dropped without any flush; the WAL is all it leaves
//! behind), recovers it from disk, and continues training both. The
//! final snapshots must be byte-identical: same counters, same version,
//! same trained-example count.
//!
//! Every case runs twice: from a model file in the counter format
//! (`HDB1`), and from the same model written in the legacy sum format
//! (`HDC1`), which the first load converts and the first snapshot
//! rewrites.
//!
//! Dims follow the workspace oracle convention — 63/64/65/127 straddle
//! the packed 64-bit lane boundary (where the counters' complement and
//! rescale arithmetic has its edge cases), and 10 000 is the paper-scale
//! dimension.

mod common;

use hdc::prelude::*;
use hdc_serve::{BatchConfig, Metrics, Registry};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const EDGE: usize = 4;
const CLASSES: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdc-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn encoder(dim: usize) -> PixelEncoder {
    PixelEncoder::new(PixelEncoderConfig {
        dim,
        width: EDGE,
        height: EDGE,
        levels: 16,
        value_encoding: ValueEncoding::Random,
        seed: 11,
    })
    .expect("valid durability encoder")
}

/// The file of a lightly pre-trained model, so recovery starts from
/// non-trivial counters: `HDB1`, or the same model as legacy `HDC1`.
fn seeded_model_file(dim: usize, legacy: bool) -> Vec<u8> {
    let seeds = [[200u8; EDGE * EDGE], [40u8; EDGE * EDGE]];
    let encoder = encoder(dim);
    if legacy {
        let classes: Vec<Accumulator> = seeds
            .iter()
            .map(|img| {
                let mut acc = Accumulator::zeros(dim);
                acc.add(&encoder.encode(&img[..]).unwrap()).unwrap();
                acc
            })
            .collect();
        return common::legacy_hdc1(encoder.config(), &classes);
    }
    let mut model = HdcClassifier::new(encoder, CLASSES);
    for (label, img) in seeds.iter().enumerate() {
        model.train_one(&img[..], label).unwrap();
    }
    model.finalize();
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    bytes
}

fn registry() -> Arc<Registry> {
    Arc::new(Registry::new(Arc::new(Metrics::new()), BatchConfig::default()))
}

/// The deterministic example stream both lineages consume.
fn example(i: usize) -> (Vec<u8>, usize) {
    let mut img = vec![0u8; EDGE * EDGE];
    for (j, px) in img.iter_mut().enumerate() {
        *px = ((i * 37 + j * 11) % 251) as u8;
    }
    (img, i % CLASSES)
}

/// Applies ops `range` to the registry's model: mostly single-example
/// trains (one WAL record each), with every fifth op a feedback.
fn apply_ops(registry: &Registry, range: std::ops::Range<usize>) {
    let entry = registry.get("default").expect("model registered");
    for i in range {
        let (img, label) = example(i);
        if i % 5 == 4 {
            entry.batcher().feedback(img, label).expect("feedback op");
        } else {
            entry.batcher().train(vec![(img, label)]).expect("train op");
        }
    }
}

fn run_property(dim: usize, legacy: bool, dir: &Path) {
    let kind = if legacy { "hdc1" } else { "hdb1" };
    let victim_path = dir.join(format!("victim-{dim}-{kind}.hdc"));
    let control_path = dir.join(format!("control-{dim}-{kind}.hdc"));
    let model = seeded_model_file(dim, legacy);
    for path in [&victim_path, &control_path] {
        fs::write(path, &model).unwrap();
    }

    // Victim lineage: train, snapshot (compacts the WAL at that
    // version), train past the snapshot, then crash — drop the registry
    // with dirty state and rely on the log alone.
    let victim = registry();
    victim.load("default", &victim_path).unwrap();
    apply_ops(&victim, 0..4);
    victim.snapshot("default", &victim_path).unwrap();
    apply_ops(&victim, 4..7);
    let acked_version = victim.get("default").unwrap().version();
    drop(victim);

    let recovered = registry();
    recovered.load("default", &victim_path).unwrap();
    assert_eq!(
        recovered.get("default").unwrap().version(),
        acked_version,
        "dim {dim} {kind}: recovery must land exactly at the acked version"
    );
    apply_ops(&recovered, 7..10);

    // Control lineage: the identical op stream, never crashed.
    let control = registry();
    control.load("default", &control_path).unwrap();
    apply_ops(&control, 0..4);
    control.snapshot("default", &control_path).unwrap();
    apply_ops(&control, 4..10);

    assert_eq!(
        recovered.get("default").unwrap().version(),
        control.get("default").unwrap().version(),
        "dim {dim} {kind}: lineages diverged in version"
    );

    // Bit-exactness: the final snapshots (counters + version trailer)
    // must be byte-identical.
    let recovered_snap = dir.join(format!("final-victim-{dim}-{kind}.hdc"));
    let control_snap = dir.join(format!("final-control-{dim}-{kind}.hdc"));
    recovered.snapshot("default", &recovered_snap).unwrap();
    control.snapshot("default", &control_snap).unwrap();
    assert_eq!(
        fs::read(&recovered_snap).unwrap(),
        fs::read(&control_snap).unwrap(),
        "dim {dim} {kind}: crashed lineage is not bit-exact vs the uncrashed control"
    );
}

#[test]
fn crash_recovery_is_bit_exact_across_lane_boundaries() {
    let dir = scratch("lanes");
    for dim in [63, 64, 65, 127] {
        run_property(dim, false, &dir);
        run_property(dim, true, &dir);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_is_bit_exact_at_paper_scale() {
    let dir = scratch("paper");
    run_property(10_000, false, &dir);
    run_property(10_000, true, &dir);
    let _ = fs::remove_dir_all(&dir);
}
