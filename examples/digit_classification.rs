//! Digit classification with the full HDC pipeline (paper §III):
//! encoding, one-shot training, similarity-check testing, adaptive
//! retraining, and model persistence.
//!
//! ```sh
//! cargo run --release --example digit_classification
//! ```

use hdc::io::{load_any, save_pixel_classifier};
use hdc::prelude::*;
use hdc_data::pgm;
use hdc_data::synth::{SynthConfig, SynthGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut generator = SynthGenerator::new(SynthConfig { seed: 11, ..Default::default() });
    let train = generator.dataset(120);
    let test = generator.dataset(30);

    // One-shot training (§III-B): one pass, no gradients, no epochs.
    let encoder = PixelEncoder::new(PixelEncoderConfig { seed: 3, ..Default::default() })?;
    let mut model = HdcClassifier::new(encoder, 10);
    let t = std::time::Instant::now();
    model.train_batch(train.pairs())?;
    println!("one-shot training on {} images took {:.2}s", train.len(), t.elapsed().as_secs_f64());
    println!("test accuracy: {:.1}%", 100.0 * model.accuracy(test.pairs())?);

    // Inspect one prediction in detail (§III-C similarity check).
    let (image, label) = (test.image(0), test.label(0));
    let prediction = model.predict(image.as_slice())?;
    println!("\nsample digit (true class {label}):");
    println!("{}", pgm::to_ascii(image));
    println!(
        "predicted {} with cosine similarity {:.3} (margin {:.3})",
        prediction.class, prediction.similarity, prediction.margin
    );
    println!("per-class similarities:");
    for (class, sim) in prediction.similarities.iter().enumerate() {
        println!(
            "  class {class}: {sim:+.4}{}",
            if class == prediction.class { "  <- max" } else { "" }
        );
    }

    // Adaptive retraining (§V-E): a few passes of mispredict-driven
    // updates squeeze out extra accuracy without full retraining.
    let before = model.accuracy(test.pairs())?;
    for _ in 0..3 {
        for (pixels, label) in train.pairs() {
            model.retrain_adaptive(pixels, label)?;
            model.finalize();
        }
    }
    let after = model.accuracy(test.pairs())?;
    println!("\nadaptive retraining: {:.1}% -> {:.1}%", 100.0 * before, 100.0 * after);

    // Persistence: save, reload, verify bit-identical behaviour.
    let path = std::env::temp_dir().join("hdtest_digit_model.hdc");
    save_pixel_classifier(&model, std::fs::File::create(&path)?)?;
    let reloaded = load_any(std::fs::File::open(&path)?)?;
    let same = test.pairs().all(|(pixels, _)| {
        model.predict(pixels).map(|p| p.class).ok()
            == reloaded.predict(pixels).map(|p| p.class).ok()
    });
    println!("model round-trips through {} ({same})", path.display());
    std::fs::remove_file(&path).ok();
    Ok(())
}
