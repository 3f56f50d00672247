//! The shared set-up of every workload: synthetic digits from the
//! workload seed and the model `hdtest-cli train` ships (dense
//! `HdcClassifier<PixelEncoder>`, D = 10,000, 256 levels, random value
//! encoding, encoder seed 7), trained on them.

use hdc::prelude::*;
use hdc_data::synth::{SynthConfig, SynthGenerator};
use hdc_data::Dataset;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hypervector dimension of the shipped model.
pub const DIM: usize = hdc::DEFAULT_DIM;
/// Quantization levels of the shipped model.
pub const LEVELS: usize = 256;
/// Encoder seed `hdtest-cli train` uses by default.
pub const ENCODER_SEED: u64 = 7;
/// Side of the synthetic digits.
pub const SIDE: usize = 28;

/// Generated data and the model trained on it.
pub struct Fixture {
    /// Labeled training digits.
    pub train: Dataset,
    /// Test digits: the fuzzing inputs and the served predict inputs.
    pub test: Dataset,
    /// The trained, warmed-up model.
    pub model: HdcClassifier<PixelEncoder>,
}

/// Generates the digits and trains the model; the whole of the fuzz
/// workloads' set-up time.
///
/// # Errors
///
/// Encoder construction or training failures.
pub fn build(
    seed: u64,
    train_per_class: usize,
    test_per_class: usize,
) -> Result<Fixture, Box<dyn Error>> {
    let mut generator = SynthGenerator::new(SynthConfig { seed, ..Default::default() });
    let (train, test) = generator.train_test(train_per_class, test_per_class);
    let encoder = PixelEncoder::new(PixelEncoderConfig {
        dim: DIM,
        width: SIDE,
        height: SIDE,
        levels: LEVELS,
        value_encoding: ValueEncoding::Random,
        seed: ENCODER_SEED,
    })?;
    let mut model = HdcClassifier::new(encoder, hdc_data::synth::NUM_CLASSES);
    model.train_batch(train.pairs())?;
    Model::warm_up(&model);
    Ok(Fixture { train, test, model })
}

/// A private directory under the benchmark's own `.run/`, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates a fresh directory unique to this process and call.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave `.run/` itself only when other runs still use it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
