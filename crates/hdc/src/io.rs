//! Model persistence.
//!
//! Trained pixel-encoder classifiers serialize to a small self-describing
//! binary format, `HDB1`. Only the encoder *configuration* and the
//! per-class **trainable counter state** (each class's bundle size `n` and
//! per-component set-bit counts `c`) are stored — never just the
//! bipolarized snapshot: the item memories are pseudo-random functions of
//! the seed, so they regenerate bit-exactly on load, and because the
//! counters round-trip, a reloaded model *keeps learning* (`partial_fit`
//! after load is bit-identical to never having been saved). This keeps
//! model files proportional to `num_classes × D`, not `pixels × D`, and is
//! what the serving layer's `POST /v1/snapshot` endpoint persists.
//!
//! ## Legacy `HDC1`
//!
//! Files written before the counter format store per-class `i32` bundling
//! sums `s` and a count (additions minus subtractions). [`load_any`] still
//! reads them by converting each class to counters: with
//! `n = max(count, max|s|)`, raised by one if its parity differs from the
//! sums' (every sum has the parity of the number of updates), the counts
//! are `c = (s + n) / 2`. Then `2c − n = s` exactly, so the references,
//! every prediction and every later update are bit-identical to the
//! legacy model's; only `n` differs from the stored count when the model
//! had subtractions.

use crate::classifier::HdcClassifier;
use crate::encoder::{PixelEncoder, PixelEncoderConfig};
use crate::error::HdcError;
use crate::kernel::BitCounter;
use crate::memory::ValueEncoding;
use crate::model::AnyModel;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"HDB1";
const LEGACY_MAGIC: &[u8; 4] = b"HDC1";

/// Deserializes a model by sniffing the 4-byte magic (`HDB1` counters, or
/// legacy `HDC1` sums converted as the module docs describe) — the single
/// loading surface the serving registry and the CLI use. The returned
/// model is finalized and keeps accepting online updates;
/// [`save_pixel_classifier`] is the inverse.
///
/// # Errors
///
/// Returns [`HdcError::Corrupt`] for an unknown magic or any inconsistent
/// payload, [`HdcError::Io`] on read failure.
pub fn load_any<R: Read>(mut reader: R) -> Result<AnyModel, HdcError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    let legacy = match &magic {
        m if m == MAGIC => false,
        m if m == LEGACY_MAGIC => true,
        other => {
            return Err(HdcError::Corrupt(format!(
                "unknown model magic {other:?} (expected HDB1 or HDC1)"
            )))
        }
    };
    let config = read_encoder_config(&mut reader)?;
    let dim = config.dim;
    let num_classes = read_class_count(&mut reader)?;
    let mut counters = Vec::with_capacity(num_classes);
    for class in 0..num_classes {
        let count = read_usize(&mut reader)?;
        let counter = if legacy {
            legacy_counter(&mut reader, dim, count, class)?
        } else {
            read_counter(&mut reader, dim, count, class)?
        };
        counters.push(counter);
    }
    HdcClassifier::from_counters(PixelEncoder::new(config)?, counters)
}

/// Serializes a trained pixel classifier to `writer` as `HDB1`.
///
/// The payload is the per-class **set-bit counters** (`u32` per component
/// plus the bundle size), not the thresholded references, so the reloaded
/// model continues online training bit-exactly. A mut reference can be
/// passed for any `W: Write` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`HdcError::Io`] on write failure and [`HdcError::Corrupt`] for
/// a count above `u32::MAX` (which the serving layer's counter rescale
/// rules out).
pub fn save_pixel_classifier<W: Write>(
    model: &HdcClassifier<PixelEncoder>,
    mut writer: W,
) -> Result<(), HdcError> {
    writer.write_all(MAGIC)?;
    write_encoder_config(&mut writer, model.encoder().config())?;
    write_u64(&mut writer, model.num_classes() as u64)?;
    for class in 0..model.num_classes() {
        // Clone: reading the counts flushes the counter's pending CSA
        // group, and saving must not perturb (or require `&mut`) the
        // live model.
        let mut counter = model.counter(class)?.clone();
        write_u64(&mut writer, counter.count() as u64)?;
        for &c in &counter.set_counts() {
            let c = u32::try_from(c)
                .map_err(|_| HdcError::Corrupt(format!("set-bit count {c} exceeds u32")))?;
            writer.write_all(&c.to_le_bytes())?;
        }
    }
    Ok(())
}

/// One `HDB1` class: `dim` `u32` set-bit counts, none above `count`.
fn read_counter<R: Read>(
    reader: &mut R,
    dim: usize,
    count: usize,
    class: usize,
) -> Result<BitCounter, HdcError> {
    let mut counts = Vec::with_capacity(dim);
    let mut buf = [0u8; 4];
    for i in 0..dim {
        reader.read_exact(&mut buf)?;
        let c = u64::from(u32::from_le_bytes(buf));
        if c > count as u64 {
            return Err(HdcError::Corrupt(format!(
                "class {class} component {i}: set-bit count {c} exceeds bundle size {count}"
            )));
        }
        counts.push(c);
    }
    Ok(BitCounter::from_set_counts(dim, &counts, count))
}

/// One legacy `HDC1` class: `dim` `i32` sums, converted to the counter
/// with the same implied sums (see the module docs).
fn legacy_counter<R: Read>(
    reader: &mut R,
    dim: usize,
    count: usize,
    class: usize,
) -> Result<BitCounter, HdcError> {
    let mut sums = Vec::with_capacity(dim);
    let mut buf = [0u8; 4];
    for _ in 0..dim {
        reader.read_exact(&mut buf)?;
        sums.push(i64::from(i32::from_le_bytes(buf)));
    }
    let parity = sums[0].rem_euclid(2);
    if sums.iter().any(|s| s.rem_euclid(2) != parity) {
        return Err(HdcError::Corrupt(format!("class {class}: sums of mixed parity")));
    }
    if count > u32::MAX as usize {
        return Err(HdcError::Corrupt(format!("class {class}: bundle size {count} exceeds u32")));
    }
    let max = sums.iter().map(|s| s.abs()).max().unwrap_or(0);
    let mut n = max.max(count as i64);
    n += (n - parity).rem_euclid(2);
    let counts: Vec<u64> = sums.iter().map(|&s| ((s + n) / 2) as u64).collect();
    Ok(BitCounter::from_set_counts(dim, &counts, n as usize))
}

fn write_encoder_config<W: Write>(w: &mut W, config: &PixelEncoderConfig) -> Result<(), HdcError> {
    write_u64(w, config.dim as u64)?;
    write_u64(w, config.width as u64)?;
    write_u64(w, config.height as u64)?;
    write_u64(w, config.levels as u64)?;
    write_u64(
        w,
        match config.value_encoding {
            ValueEncoding::Random => 0,
            ValueEncoding::Level => 1,
        },
    )?;
    write_u64(w, config.seed)
}

fn read_encoder_config<R: Read>(r: &mut R) -> Result<PixelEncoderConfig, HdcError> {
    let dim = read_usize(r)?;
    let width = read_usize(r)?;
    let height = read_usize(r)?;
    let levels = read_usize(r)?;
    let value_encoding = match read_u64(r)? {
        0 => ValueEncoding::Random,
        1 => ValueEncoding::Level,
        other => return Err(HdcError::Corrupt(format!("unknown value encoding tag {other}"))),
    };
    let seed = read_u64(r)?;
    if dim == 0 || dim > 1 << 26 {
        return Err(HdcError::Corrupt(format!("implausible dimension {dim}")));
    }
    Ok(PixelEncoderConfig { dim, width, height, levels, value_encoding, seed })
}

fn read_class_count<R: Read>(r: &mut R) -> Result<usize, HdcError> {
    let num_classes = read_usize(r)?;
    if num_classes == 0 || num_classes > 1 << 20 {
        return Err(HdcError::Corrupt(format!("implausible class count {num_classes}")));
    }
    Ok(num_classes)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), HdcError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, HdcError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_usize<R: Read>(r: &mut R) -> Result<usize, HdcError> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| HdcError::Corrupt(format!("value {v} exceeds usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::Accumulator;
    use crate::encoder::{bipolarize_sums, Encoder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(dim: usize) -> PixelEncoderConfig {
        PixelEncoderConfig {
            dim,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 5,
        }
    }

    fn trained_model() -> AnyModel {
        let mut model = HdcClassifier::new(PixelEncoder::new(config(300)).unwrap(), 2);
        // Uneven class sizes: one even (tie-prone), one odd.
        for img in [[0u8; 16], [32u8; 16], [64u8; 16], [16u8; 16]] {
            model.train_one(&img[..], 0).unwrap();
        }
        for img in [[224u8; 16], [192u8; 16], [255u8; 16]] {
            model.train_one(&img[..], 1).unwrap();
        }
        model.finalize();
        model
    }

    fn saved(model: &AnyModel) -> Vec<u8> {
        let mut buf = Vec::new();
        save_pixel_classifier(model, &mut buf).unwrap();
        buf
    }

    /// The legacy `HDC1` writer, kept only to produce test inputs: magic,
    /// encoder config, class count, then per class the count and the
    /// `i32` sums.
    fn legacy_bytes(config: &PixelEncoderConfig, classes: &[Accumulator]) -> Vec<u8> {
        let mut buf = LEGACY_MAGIC.to_vec();
        write_encoder_config(&mut buf, config).unwrap();
        write_u64(&mut buf, classes.len() as u64).unwrap();
        for acc in classes {
            write_u64(&mut buf, acc.count() as u64).unwrap();
            for &s in acc.sums() {
                buf.extend_from_slice(&s.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn round_trip_preserves_references_and_counters() {
        let model = trained_model();
        let loaded = load_any(&saved(&model)[..]).unwrap();
        for c in 0..2 {
            assert_eq!(
                model.associative_memory().reference(c).unwrap(),
                loaded.associative_memory().reference(c).unwrap(),
                "class {c}"
            );
            assert_eq!(model.counter(c).unwrap(), loaded.counter(c).unwrap(), "class {c} counters");
        }
        for img in [[0u8; 16], [224u8; 16], [96u8; 16]] {
            assert_eq!(model.predict(&img[..]).unwrap(), loaded.predict(&img[..]).unwrap());
        }
    }

    #[test]
    fn reloaded_model_keeps_learning_bit_exactly() {
        // Save → load → partial_fit must match never having been saved.
        let mut original = trained_model();
        let mut reloaded = load_any(&saved(&original)[..]).unwrap();
        for (img, label) in [([64u8; 16], 0), ([160u8; 16], 1), ([16u8; 16], 0)] {
            original.partial_fit(&img[..], label).unwrap();
            reloaded.partial_fit(&img[..], label).unwrap();
        }
        for c in 0..2 {
            assert_eq!(original.counter(c).unwrap(), reloaded.counter(c).unwrap(), "class {c}");
            assert_eq!(
                original.associative_memory().reference(c).unwrap(),
                reloaded.associative_memory().reference(c).unwrap(),
                "class {c}: references diverged after reload"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE_________________".to_vec();
        assert!(matches!(load_any(&buf[..]), Err(HdcError::Corrupt(_))));
        // Truncation mid-magic is an IO error, not a panic.
        assert!(load_any(&saved(&trained_model())[..2]).is_err());
    }

    #[test]
    fn corrupt_counts_rejected() {
        let mut buf = saved(&trained_model());
        // Header is 4 (magic) + 6×8 (config) + 8 (classes) + 8 (count)
        // bytes; the first u32 after that is a component count. Forge one
        // larger than the class's bundle size.
        let offset = 4 + 48 + 8 + 8;
        buf[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load_any(&buf[..]), Err(HdcError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = saved(&trained_model());
        buf.truncate(buf.len() / 2);
        assert!(load_any(&buf[..]).is_err());
    }

    #[test]
    fn implausible_header_rejected() {
        for magic in [MAGIC, LEGACY_MAGIC] {
            let mut buf = magic.to_vec();
            for v in [u64::MAX, 4, 4, 8, 0, 5, 2] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            assert!(matches!(load_any(&buf[..]), Err(HdcError::Corrupt(_))));
        }
    }

    #[test]
    fn legacy_sums_of_mixed_parity_are_corrupt() {
        // One odd and otherwise even sums cannot come from any history of
        // ±1 updates.
        let mut sums = vec![0i32; 64];
        sums[7] = 1;
        let acc = Accumulator::from_raw(sums, 1).unwrap();
        let buf = legacy_bytes(&config(64), &[acc]);
        assert!(matches!(load_any(&buf[..]), Err(HdcError::Corrupt(_))));
    }

    /// Applies one update to both the converted model and the accumulator
    /// oracle: a training add, or a mislabeled feedback round (an add plus
    /// a complement-add subtract on the model, add plus subtract on the
    /// oracle).
    fn update_both(
        model: &mut AnyModel,
        oracle: &mut [Accumulator],
        pixels: &[u8],
        label: usize,
        feedback: bool,
    ) {
        let query = model.encode(pixels).unwrap();
        if feedback {
            let fb = model.feedback(pixels, label).unwrap();
            if fb.updated {
                oracle[label].add(&query).unwrap();
                oracle[fb.prediction.class].subtract(&query).unwrap();
            }
        } else {
            model.partial_fit(pixels, label).unwrap();
            oracle[label].add(&query).unwrap();
        }
    }

    fn image(rng: &mut StdRng) -> Vec<u8> {
        (0..16).map(|_| rng.gen()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn legacy_sums_convert_bit_exactly(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in [63usize, 64, 65, 127, 10_000] {
                let config = config(dim);
                let encoder = PixelEncoder::new(config).unwrap();
                // Each class opens with an add and a subtract: sums of 0
                // (parity ties) wherever the two encodings agree, count 0
                // below max|s| = 2. Then a random add/subtract tail.
                let mut oracle: Vec<Accumulator> = (0..2).map(|_| Accumulator::zeros(dim)).collect();
                for acc in &mut oracle {
                    acc.add(&encoder.encode(&image(&mut rng)).unwrap()).unwrap();
                    acc.subtract(&encoder.encode(&image(&mut rng)).unwrap()).unwrap();
                    for _ in 0..rng.gen_range(0..6usize) {
                        let hv = encoder.encode(&image(&mut rng)).unwrap();
                        if rng.gen::<bool>() {
                            acc.add(&hv).unwrap();
                        } else {
                            acc.subtract(&hv).unwrap();
                        }
                    }
                }
                let mut model = load_any(&legacy_bytes(&config, &oracle)[..]).unwrap();
                for (class, acc) in oracle.iter().enumerate() {
                    prop_assert_eq!(
                        model.associative_memory().reference(class).unwrap(),
                        bipolarize_sums(acc.sums()).packed(),
                        "dim {} class {}", dim, class
                    );
                }
                for step in 0..8usize {
                    let pixels = image(&mut rng);
                    update_both(&mut model, &mut oracle, &pixels, step % 2, step % 3 == 0);
                }
                for (class, acc) in oracle.iter().enumerate() {
                    prop_assert_eq!(
                        model.associative_memory().reference(class).unwrap(),
                        bipolarize_sums(acc.sums()).packed(),
                        "dim {} class {} after updates", dim, class
                    );
                }
            }
        }
    }
}
