//! Shared test support: the legacy `HDC1` model-file writer.

use hdc::prelude::*;

/// Writes a legacy `HDC1` model file: magic, the pixel-encoder config,
/// the class count, then per class the bundle count and the `i32` sums.
/// The library only reads this format now; tests write it from the
/// scalar [`Accumulator`] oracle.
pub fn legacy_hdc1(config: &PixelEncoderConfig, classes: &[Accumulator]) -> Vec<u8> {
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
