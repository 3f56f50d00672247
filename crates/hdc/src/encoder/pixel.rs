//! The paper's image encoder (§III-A).
//!
//! An image is flattened to a pixel array; each pixel's hypervector is the
//! binding of its *position* hypervector and its greyscale *value*
//! hypervector; the image hypervector is the bipolarized bundle of all pixel
//! hypervectors:
//!
//! ```text
//! ImgHV = bipolarize( Σᵢ  PosHV[i] ⊛ ValHV[pixel[i]] )
//! ```

use crate::encoder::{check_parent, level_changes, Encoder};
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::{self, BitCounter};
use crate::memory::{ItemMemory, LevelMemory, ValueEncoding};

/// Configuration for [`PixelEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelEncoderConfig {
    /// Hypervector dimension `D` (the paper uses 10,000).
    pub dim: usize,
    /// Image width in pixels (MNIST: 28).
    pub width: usize,
    /// Image height in pixels (MNIST: 28).
    pub height: usize,
    /// Number of greyscale quantization levels (MNIST: 256).
    pub levels: usize,
    /// Scheme for the value memory. The paper uses [`ValueEncoding::Random`].
    pub value_encoding: ValueEncoding,
    /// Master seed for the position and value memories.
    pub seed: u64,
}

impl Default for PixelEncoderConfig {
    /// The paper's MNIST configuration: 28×28, 256 levels, D = 10,000,
    /// random value memory.
    fn default() -> Self {
        Self {
            dim: crate::DEFAULT_DIM,
            width: 28,
            height: 28,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 0,
        }
    }
}

/// Encodes flattened greyscale images (`&[u8]`, row-major) into
/// hypervectors per the paper's §III-A pipeline.
///
/// ```
/// use hdc::{Encoder, PixelEncoder, PixelEncoderConfig};
///
/// let enc = PixelEncoder::new(PixelEncoderConfig {
///     dim: 2_000, width: 4, height: 4, levels: 16,
///     value_encoding: hdc::ValueEncoding::Random, seed: 1,
/// })?;
/// let image = [5u8; 16];
/// let hv = enc.encode(&image[..])?;
/// assert_eq!(hv.dim(), 2_000);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PixelEncoder {
    positions: ItemMemory,
    values: LevelMemory,
    config: PixelEncoderConfig,
}

impl PixelEncoder {
    /// Generates the position memory (`width × height` entries) and value
    /// memory (`levels` entries) from `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] / [`HdcError::EmptyMemory`] when
    /// `dim`, `width × height`, or `levels` is zero.
    pub fn new(config: PixelEncoderConfig) -> Result<Self, HdcError> {
        let pixels = config.width * config.height;
        let positions = ItemMemory::new(pixels, config.dim, config.seed, "pixel-position")?;
        let values = LevelMemory::new(
            config.levels,
            config.dim,
            config.value_encoding,
            config.seed,
            "pixel-value",
        )?;
        Ok(Self { positions, values, config })
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &PixelEncoderConfig {
        &self.config
    }

    /// Number of pixels expected per image.
    pub fn pixel_count(&self) -> usize {
        self.config.width * self.config.height
    }

    /// The position item memory (one hypervector per pixel index).
    pub fn position_memory(&self) -> &ItemMemory {
        &self.positions
    }

    /// The greyscale value memory.
    pub fn value_memory(&self) -> &LevelMemory {
        &self.values
    }

    /// Quantizes a raw pixel value (0–255) to a value-memory level.
    ///
    /// With 256 levels this is the identity; with fewer levels the range is
    /// divided evenly.
    pub fn quantize(&self, value: u8) -> usize {
        let levels = self.config.levels;
        if levels >= 256 {
            usize::from(value)
        } else {
            usize::from(value) * levels / 256
        }
    }

    /// Ensures every item-memory hypervector carries its packed mirror, so
    /// encoding (and concurrent encode batches) never pack lazily.
    pub fn warm_packed(&self) {
        for i in 0..self.pixel_count() {
            if let Ok(hv) = self.positions.get(i) {
                let _ = hv.packed();
            }
        }
        for level in 0..self.config.levels {
            if let Ok(hv) = self.values.get(level) {
                let _ = hv.packed();
            }
        }
    }

    /// The word-packed encoding kernel: the pixels bundle into `counter`
    /// ([`bundle`](Self::bundle)), which bipolarizes by word-parallel
    /// threshold comparison, never materializing integer sums. Exactly
    /// equivalent (bit-for-bit, including parity ties) to the scalar
    /// `sums[d] += pos[d] * val[d]` + `bipolarize_sums` pipeline it
    /// replaced.
    fn encode_with_scratch(
        &self,
        pixels: &[u8],
        counter: &mut BitCounter,
    ) -> Result<Hypervector, HdcError> {
        self.bundle(pixels, counter)?;
        Ok(crate::encoder::finalize_counter(counter, self.config.dim))
    }

    /// Rebuilds `counter` as the bundle of `pixels`: per pixel, the
    /// position and value mirrors fuse straight into the bit-sliced
    /// counter ([`BitCounter::add_bound`] — the bound vector never exists
    /// outside it).
    fn bundle(&self, pixels: &[u8], counter: &mut BitCounter) -> Result<(), HdcError> {
        self.check_shape(pixels)?;
        if counter.dim() != self.config.dim {
            *counter = BitCounter::new(self.config.dim);
        }
        counter.clear();
        for (i, &p) in pixels.iter().enumerate() {
            let pos = self.positions.get(i)?.packed();
            let val = self.values.get(self.quantize(p))?.packed();
            counter.add_bound(pos.words(), val.words());
        }
        Ok(())
    }

    fn check_shape(&self, pixels: &[u8]) -> Result<(), HdcError> {
        let expected = self.pixel_count();
        if pixels.len() == expected {
            Ok(())
        } else {
            Err(HdcError::InputShapeMismatch { expected, actual: pixels.len() })
        }
    }

    /// Scalar reference encoding — the seed's `sums[d] += pos[d] * val[d]`
    /// loop, running entirely on [`crate::kernel::reference`] scalar ops.
    /// Kept as the correctness oracle for property tests and the baseline
    /// for `benches/kernels.rs`; bit-identical to [`Encoder::encode`].
    ///
    /// # Errors
    ///
    /// Same as [`Encoder::encode`].
    pub fn encode_reference(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        self.check_shape(pixels)?;
        let mut sums = vec![0i32; self.config.dim];
        for (i, &p) in pixels.iter().enumerate() {
            let pos = self.positions.get(i)?.as_slice();
            let val = self.values.get(self.quantize(p))?.as_slice();
            kernel::reference::accumulate_scalar(
                &mut sums,
                &kernel::reference::bind_scalar(pos, val),
            );
        }
        Ok(crate::encoder::bipolarize_sums(&sums))
    }
}

impl Encoder for PixelEncoder {
    type Input = [u8];

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        let mut counter = BitCounter::new(self.config.dim);
        self.encode_with_scratch(pixels, &mut counter)
    }

    fn warm_up(&self) {
        self.warm_packed();
    }

    fn encode_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Hypervector>, HdcError> {
        // One counter (bitplanes + CSA group buffer) serves the whole
        // batch — the allocation share of per-query encode cost disappears.
        let mut counter = BitCounter::new(self.config.dim);
        inputs.iter().map(|pixels| self.encode_with_scratch(pixels, &mut counter)).collect()
    }

    /// Incremental form: a copy of the parent's counter, then per pixel
    /// whose quantized level changed, [`BitCounter::sub_bound`] of
    /// `pos ⊛ val_old` and [`BitCounter::add_bound`] of `pos ⊛ val_new`.
    /// A full bundle when `2 · changed ≥ pixels`.
    fn bundle_into(
        &self,
        pixels: &[u8],
        parent: Option<(&[u8], &BitCounter)>,
        counter: &mut BitCounter,
    ) -> Result<bool, HdcError> {
        self.check_shape(pixels)?;
        if let Some((old, base)) = parent {
            self.check_shape(old)?;
            check_parent(base, self.config.dim)?;
            if let Some(changes) = level_changes(old, pixels, |p| self.quantize(p)) {
                counter.clone_from(base);
                for (i, from, to) in changes {
                    let pos = self.positions.get(i)?.packed().words();
                    counter.sub_bound(pos, self.values.get(from)?.packed().words());
                    counter.add_bound(pos, self.values.get(to)?.packed().words());
                }
                return Ok(true);
            }
        }
        self.bundle(pixels, counter)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::bipolarize_sums;
    use crate::similarity::cosine;

    fn encoder(dim: usize, side: usize, levels: usize) -> PixelEncoder {
        PixelEncoder::new(PixelEncoderConfig {
            dim,
            width: side,
            height: side,
            levels,
            value_encoding: ValueEncoding::Random,
            seed: 123,
        })
        .unwrap()
    }

    #[test]
    fn packed_encode_matches_scalar_bundling() {
        // The bit-sliced kernel must reproduce the scalar
        // `sums[d] += pos[d] * val[d]` bundling bit-for-bit, including the
        // parity tie-break, at a dim that exercises tail masking.
        let enc = encoder(1_000, 4, 16);
        let img: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        let hv = enc.encode(&img[..]).unwrap();

        let mut sums = vec![0i32; 1_000];
        for (i, &p) in img.iter().enumerate() {
            let pos = enc.position_memory().get(i).unwrap().as_slice();
            let val = enc.value_memory().get(enc.quantize(p)).unwrap().as_slice();
            for ((s, &a), &b) in sums.iter_mut().zip(pos).zip(val) {
                *s += i32::from(a * b);
            }
        }
        assert_eq!(hv, bipolarize_sums(&sums));
        assert_eq!(hv, enc.encode_reference(&img[..]).unwrap());
    }

    #[test]
    fn encode_batch_matches_encode_loop() {
        let enc = encoder(2_000, 4, 16);
        let images: Vec<Vec<u8>> = (0..5u8).map(|k| vec![k * 40; 16]).collect();
        let inputs: Vec<&[u8]> = images.iter().map(|i| &i[..]).collect();
        let batched = enc.encode_batch(&inputs).unwrap();
        for (input, hv) in inputs.iter().zip(&batched) {
            assert_eq!(*hv, enc.encode(input).unwrap());
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let enc = encoder(1_000, 4, 16);
        let img = [7u8; 16];
        assert_eq!(enc.encode(&img[..]).unwrap(), enc.encode(&img[..]).unwrap());
    }

    #[test]
    fn encode_rejects_wrong_shape() {
        let enc = encoder(500, 4, 16);
        let short = [0u8; 15];
        assert!(matches!(
            enc.encode(&short[..]),
            Err(HdcError::InputShapeMismatch { expected: 16, actual: 15 })
        ));
    }

    #[test]
    fn identical_images_max_similarity() {
        let enc = encoder(2_000, 6, 256);
        let img = [100u8; 36];
        let a = enc.encode(&img[..]).unwrap();
        let b = enc.encode(&img[..]).unwrap();
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similar_images_more_similar_than_different() {
        let enc = encoder(10_000, 8, 256);
        let base = [200u8; 64];
        let mut near = base;
        near[0] = 0; // one changed pixel
        let mut far = [0u8; 64];
        far.iter_mut().enumerate().for_each(|(i, p)| *p = (i * 4) as u8);

        let hv_base = enc.encode(&base[..]).unwrap();
        let hv_near = enc.encode(&near[..]).unwrap();
        let hv_far = enc.encode(&far[..]).unwrap();
        let sim_near = cosine(&hv_base, &hv_near);
        let sim_far = cosine(&hv_base, &hv_far);
        assert!(
            sim_near > sim_far,
            "one-pixel change ({sim_near}) should stay closer than a different image ({sim_far})"
        );
        // The exact value depends on the item-memory draw (and therefore on
        // the RNG stream); 63/64 shared pixels lands near 0.9 ± a few
        // hundredths for any seed.
        assert!(sim_near > 0.85, "63/64 shared pixels should be highly similar: {sim_near}");
    }

    #[test]
    fn random_value_memory_makes_levels_orthogonal() {
        // With the paper's random value memory, changing every pixel by one
        // grey level yields an almost-orthogonal image hypervector — the
        // brittleness HDTest exploits.
        // 9×9 = 81 pixels: an odd pixel count means bundling sums are never
        // zero, so no tie-break correlation clouds the measurement.
        let enc = encoder(10_000, 9, 256);
        let base = [100u8; 81];
        let shifted = [101u8; 81];
        let a = enc.encode(&base[..]).unwrap();
        let b = enc.encode(&shifted[..]).unwrap();
        assert!(cosine(&a, &b).abs() < 0.06);
    }

    #[test]
    fn level_value_memory_preserves_small_changes() {
        let enc = PixelEncoder::new(PixelEncoderConfig {
            dim: 10_000,
            width: 9,
            height: 9,
            levels: 256,
            value_encoding: ValueEncoding::Level,
            seed: 123,
        })
        .unwrap();
        let base = [100u8; 81];
        let shifted = [101u8; 81];
        let a = enc.encode(&base[..]).unwrap();
        let b = enc.encode(&shifted[..]).unwrap();
        assert!(cosine(&a, &b) > 0.9, "level encoding keeps ±1 changes similar");
    }

    #[test]
    fn quantize_identity_at_256_levels() {
        let enc = encoder(100, 2, 256);
        assert_eq!(enc.quantize(0), 0);
        assert_eq!(enc.quantize(255), 255);
        assert_eq!(enc.quantize(128), 128);
    }

    #[test]
    fn quantize_buckets_at_fewer_levels() {
        let enc = encoder(100, 2, 4);
        assert_eq!(enc.quantize(0), 0);
        assert_eq!(enc.quantize(63), 0);
        assert_eq!(enc.quantize(64), 1);
        assert_eq!(enc.quantize(255), 3);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = PixelEncoderConfig::default();
        assert_eq!(c.dim, 10_000);
        assert_eq!(c.width, 28);
        assert_eq!(c.height, 28);
        assert_eq!(c.levels, 256);
        assert_eq!(c.value_encoding, ValueEncoding::Random);
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let a = PixelEncoder::new(PixelEncoderConfig {
            seed: 1,
            dim: 1_000,
            width: 4,
            height: 4,
            levels: 16,
            value_encoding: ValueEncoding::Random,
        })
        .unwrap();
        let b = PixelEncoder::new(PixelEncoderConfig {
            seed: 2,
            dim: 1_000,
            width: 4,
            height: 4,
            levels: 16,
            value_encoding: ValueEncoding::Random,
        })
        .unwrap();
        let img = [3u8; 16];
        assert_ne!(a.encode(&img[..]).unwrap(), b.encode(&img[..]).unwrap());
    }
}
