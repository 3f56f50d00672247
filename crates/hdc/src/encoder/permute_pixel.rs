//! Permutation-based pixel encoder (rematerialized position memory).
//!
//! The paper's encoder (§III-A) stores one random hypervector per pixel
//! position — 784 × D bits of ROM. Binary HDC hardware avoids that cost by
//! *rematerializing* position hypervectors from a single base vector
//! (Schmuck et al., JETC 2019, cited in the paper's related work): the
//! position vector of pixel `i` is `ρⁱ(base)`. Cyclic shifts of a random
//! vector are mutually quasi-orthogonal, so the encoding quality matches
//! the stored-memory variant while the position store shrinks from
//! `pixels × D` to `D`.
//!
//! ```text
//! ImgHV = bipolarize( Σᵢ  ρⁱ(Base) ⊛ ValHV[pixel[i]] )
//! ```

use crate::encoder::{bipolarize_sums, check_parent, finalize_counter, level_changes, Encoder};
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::kernel::{self, BitCounter};
use crate::memory::{LevelMemory, ValueEncoding};
use crate::rng::derive_rng;

/// Configuration for [`PermutePixelEncoder`]; field meanings match
/// [`super::PixelEncoderConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutePixelEncoderConfig {
    /// Hypervector dimension `D`.
    pub dim: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Greyscale quantization levels.
    pub levels: usize,
    /// Value-memory scheme.
    pub value_encoding: ValueEncoding,
    /// Master seed for the base vector and value memory.
    pub seed: u64,
}

impl Default for PermutePixelEncoderConfig {
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

/// Pixel encoder with rematerialized (permutation-derived) positions.
///
/// Functionally interchangeable with [`super::PixelEncoder`] — same input
/// type, same statistical properties — while storing a single base
/// hypervector instead of one per pixel.
///
/// ```
/// use hdc::encoder::{Encoder, PermutePixelEncoder, PermutePixelEncoderConfig};
///
/// let enc = PermutePixelEncoder::new(PermutePixelEncoderConfig {
///     dim: 2_000, width: 4, height: 4, levels: 16, ..Default::default()
/// })?;
/// let hv = enc.encode(&[5u8; 16][..])?;
/// assert_eq!(hv.dim(), 2_000);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PermutePixelEncoder {
    base: Hypervector,
    values: LevelMemory,
    config: PermutePixelEncoderConfig,
}

impl PermutePixelEncoder {
    /// Generates the base vector and value memory from `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] / [`HdcError::EmptyMemory`] for
    /// zero `dim` or `levels`, and [`HdcError::InputShapeMismatch`] for a
    /// zero-pixel canvas.
    ///
    /// # Panics
    ///
    /// Never panics for validated configurations.
    pub fn new(config: PermutePixelEncoderConfig) -> Result<Self, HdcError> {
        if config.dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        if config.width * config.height == 0 {
            return Err(HdcError::InputShapeMismatch { expected: 1, actual: 0 });
        }
        if config.width * config.height > config.dim {
            // ρ^i wraps after D shifts; more pixels than dimensions would
            // alias positions onto each other.
            return Err(HdcError::Corrupt(format!(
                "permutation positions alias: {} pixels exceed dimension {}",
                config.width * config.height,
                config.dim
            )));
        }
        let mut rng = derive_rng(config.seed, "permute-pixel-base");
        let base = Hypervector::random(config.dim, &mut rng);
        let values = LevelMemory::new(
            config.levels,
            config.dim,
            config.value_encoding,
            config.seed,
            "permute-pixel-value",
        )?;
        Ok(Self { base, values, config })
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &PermutePixelEncoderConfig {
        &self.config
    }

    /// Number of pixels expected per image.
    pub fn pixel_count(&self) -> usize {
        self.config.width * self.config.height
    }

    /// The single base hypervector all positions derive from.
    pub fn base(&self) -> &Hypervector {
        &self.base
    }

    /// Quantizes a raw pixel value (0–255) to a value-memory level.
    pub fn quantize(&self, value: u8) -> usize {
        let levels = self.config.levels;
        if levels >= 256 {
            usize::from(value)
        } else {
            usize::from(value) * levels / 256
        }
    }

    /// The word-packed encoding kernel: per pixel, the rotated base mirror
    /// and the value mirror fuse straight into the bit-sliced bundle
    /// counter ([`BitCounter::add_rotated_bound`] — word-level rotate,
    /// XNOR and accumulate in one pass over the counter's input slot).
    fn encode_with_scratch(
        &self,
        pixels: &[u8],
        counter: &mut BitCounter,
    ) -> Result<Hypervector, HdcError> {
        self.bundle(pixels, counter)?;
        Ok(finalize_counter(counter, self.config.dim))
    }

    /// Rebuilds `counter` as the bundle of `pixels`.
    fn bundle(&self, pixels: &[u8], counter: &mut BitCounter) -> Result<(), HdcError> {
        self.check_shape(pixels)?;
        if counter.dim() != self.config.dim {
            *counter = BitCounter::new(self.config.dim);
        }
        counter.clear();
        let base = self.base.packed();
        for (i, &p) in pixels.iter().enumerate() {
            let val = self.values.get(self.quantize(p))?.packed();
            counter.add_rotated_bound(base.words(), i, val.words());
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

    /// Scalar reference encoding — the index-arithmetic loop the packed
    /// kernel replaced (`ρⁱ(base)[d] = base[(d − i) mod D]`, accumulated
    /// without materializing the rotated vector). Kept as the correctness
    /// oracle for property tests and the baseline for
    /// `benches/kernels.rs`; bit-identical to [`Encoder::encode`].
    ///
    /// # Errors
    ///
    /// Same as [`Encoder::encode`].
    pub fn encode_reference(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        self.check_shape(pixels)?;
        let dim = self.config.dim;
        let base = self.base.as_slice();
        let mut sums = vec![0i32; dim];
        for (i, &p) in pixels.iter().enumerate() {
            let val = self.values.get(self.quantize(p))?.as_slice();
            for (d, (s, &v)) in sums.iter_mut().zip(val).enumerate() {
                let src = (d + dim - (i % dim)) % dim;
                *s += i32::from(base[src] * v);
            }
        }
        Ok(bipolarize_sums(&sums))
    }
}

impl Encoder for PermutePixelEncoder {
    type Input = [u8];

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(&self, pixels: &[u8]) -> Result<Hypervector, HdcError> {
        let mut counter = BitCounter::new(self.config.dim);
        self.encode_with_scratch(pixels, &mut counter)
    }

    fn encode_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Hypervector>, HdcError> {
        let mut counter = BitCounter::new(self.config.dim);
        inputs.iter().map(|pixels| self.encode_with_scratch(pixels, &mut counter)).collect()
    }

    fn warm_up(&self) {
        let _ = self.base.packed();
        for hv in self.values.iter() {
            let _ = hv.packed();
        }
    }

    /// The [`PixelEncoder`](super::PixelEncoder) incremental form, with
    /// the position `ρⁱ(base)` rotated once per changed pixel and shared
    /// by its subtract and add.
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
                let dim = self.config.dim;
                let mut pos = vec![0u64; kernel::words_for(dim)];
                for (i, from, to) in changes {
                    kernel::rotate_words_into(self.base.packed().words(), dim, i, &mut pos);
                    counter.sub_bound(&pos, self.values.get(from)?.packed().words());
                    counter.add_bound(&pos, self.values.get(to)?.packed().words());
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
    use crate::classifier::HdcClassifier;
    use crate::similarity::cosine;

    fn encoder(dim: usize, side: usize) -> PermutePixelEncoder {
        PermutePixelEncoder::new(PermutePixelEncoderConfig {
            dim,
            width: side,
            height: side,
            levels: 256,
            value_encoding: ValueEncoding::Random,
            seed: 9,
        })
        .unwrap()
    }

    #[test]
    fn deterministic_and_shape_checked() {
        let enc = encoder(1_000, 4);
        let img = [100u8; 16];
        assert_eq!(enc.encode(&img[..]).unwrap(), enc.encode(&img[..]).unwrap());
        assert!(enc.encode(&[0u8; 15][..]).is_err());
    }

    #[test]
    fn packed_encode_matches_scalar_reference() {
        // dim 1_000 exercises tail masking in the fused rotate-bind path.
        let enc = encoder(1_000, 4);
        let img: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        let packed = enc.encode(&img[..]).unwrap();
        assert_eq!(packed, enc.encode_reference(&img[..]).unwrap());
        assert_eq!(packed.packed(), &crate::PackedHypervector::pack(packed.as_slice()));
    }

    #[test]
    fn encode_batch_matches_encode_loop() {
        let enc = encoder(512, 3);
        let images: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k * 60; 9]).collect();
        let inputs: Vec<&[u8]> = images.iter().map(|i| &i[..]).collect();
        let batched = enc.encode_batch(&inputs).unwrap();
        for (input, hv) in inputs.iter().zip(&batched) {
            assert_eq!(*hv, enc.encode(input).unwrap());
        }
    }

    #[test]
    fn rotation_accumulation_matches_explicit_rotation() {
        // The in-place index arithmetic must equal binding with an
        // explicitly rotated base.
        let enc = encoder(512, 3);
        let img = [0u8, 50, 100, 150, 200, 250, 25, 75, 125];
        let fast = enc.encode(&img[..]).unwrap();

        let mut sums = vec![0i32; 512];
        for (i, &p) in img.iter().enumerate() {
            let pos = enc.base().permute(i);
            let bound = pos.bind(enc.values.get(enc.quantize(p)).unwrap()).unwrap();
            for (s, &c) in sums.iter_mut().zip(bound.as_slice()) {
                *s += i32::from(c);
            }
        }
        let slow = crate::encoder::bipolarize_sums(&sums);
        assert_eq!(fast, slow);
    }

    #[test]
    fn positions_are_quasi_orthogonal() {
        let enc = encoder(10_000, 5);
        let a = enc.base().permute(3);
        let b = enc.base().permute(4);
        assert!(cosine(&a, &b).abs() < 0.05);
    }

    #[test]
    fn classification_works_like_stored_positions() {
        // With the paper's random value memory, distinct grey levels are
        // orthogonal — so probe with images sharing most *pixels* (partial
        // patterns), not nearby grey values.
        let enc = encoder(2_000, 4);
        let mut model = HdcClassifier::new(enc, 2);
        let dark = [0u8; 16];
        let mut bright = [0u8; 16];
        bright.iter_mut().take(8).for_each(|p| *p = 230);
        model.train_one(&dark[..], 0).unwrap();
        model.train_one(&bright[..], 1).unwrap();
        model.finalize();
        // Probes: flip two pixels of each prototype.
        let mut probe_dark = dark;
        probe_dark[15] = 230;
        let mut probe_bright = bright;
        probe_bright[0] = 0;
        assert_eq!(model.predict(&probe_dark[..]).unwrap().class, 0);
        assert_eq!(model.predict(&probe_bright[..]).unwrap().class, 1);
    }

    #[test]
    fn aliasing_configs_rejected() {
        // 32×32 = 1024 pixels > 512 dimensions: positions would collide.
        let bad =
            PermutePixelEncoderConfig { dim: 512, width: 32, height: 32, ..Default::default() };
        assert!(PermutePixelEncoder::new(bad).is_err());
    }

    #[test]
    fn zero_configs_rejected() {
        assert!(PermutePixelEncoder::new(PermutePixelEncoderConfig {
            dim: 0,
            ..Default::default()
        })
        .is_err());
        assert!(PermutePixelEncoder::new(PermutePixelEncoderConfig {
            width: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn one_pixel_change_stays_local() {
        let enc = encoder(10_000, 5);
        let base_img = [120u8; 25];
        let mut near = base_img;
        near[7] = 0;
        let a = enc.encode(&base_img[..]).unwrap();
        let b = enc.encode(&near[..]).unwrap();
        // ~8% of components can flip (window-sum ties), so ~0.84 expected.
        assert!(cosine(&a, &b) > 0.75, "single-pixel locality: {}", cosine(&a, &b));
    }
}
