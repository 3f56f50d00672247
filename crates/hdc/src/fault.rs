//! Hardware-fault injection for associative memories.
//!
//! The paper's related work (§II) notes that "previous studies discussed
//! the robustness of HDC with regard to hardware failures such as memory
//! errors" (Rahimi et al., ISLPED 2016) while HDTest targets *algorithmic*
//! robustness. This module implements the hardware side so the two failure
//! models can be compared on the same classifier: bit-flips are injected
//! into the bipolarized class references and accuracy degradation is
//! measured directly.

use crate::classifier::HdcClassifier;
use crate::encoder::Encoder;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::similarity::cosine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A snapshot of class references with injected faults, usable as a
/// read-only classifier.
#[derive(Debug, Clone)]
pub struct FaultyAssociativeMemory {
    references: Vec<Hypervector>,
    flipped: usize,
}

impl FaultyAssociativeMemory {
    /// Copies the (finalized) references of `model` and flips each
    /// component independently with probability `bit_error_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyModel`] if the model is not finalized or
    /// [`HdcError::Corrupt`] for a rate outside `[0, 1]`.
    pub fn inject<E: Encoder>(
        model: &HdcClassifier<E>,
        bit_error_rate: f64,
        seed: u64,
    ) -> Result<Self, HdcError> {
        if !(0.0..=1.0).contains(&bit_error_rate) {
            return Err(HdcError::Corrupt(format!(
                "bit error rate {bit_error_rate} outside [0, 1]"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flipped = 0usize;
        let mut references = Vec::with_capacity(model.num_classes());
        for class in 0..model.num_classes() {
            let clean = model.associative_memory().reference(class)?;
            let mut components = crate::kernel::unpack_words(clean.words(), clean.dim());
            for c in &mut components {
                if rng.gen::<f64>() < bit_error_rate {
                    *c = -*c;
                    flipped += 1;
                }
            }
            references.push(Hypervector::from_components(components)?);
        }
        Ok(Self { references, flipped })
    }

    /// Total components flipped across all class references.
    pub fn flipped(&self) -> usize {
        self.flipped
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.references.len()
    }

    /// Classifies a pre-encoded query against the faulty references.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] for a wrong-sized query.
    pub fn classify(&self, query: &Hypervector) -> Result<usize, HdcError> {
        let dim = self.references[0].dim();
        if query.dim() != dim {
            return Err(HdcError::DimensionMismatch { expected: dim, actual: query.dim() });
        }
        Ok(self
            .references
            .iter()
            .enumerate()
            .max_by(|a, b| {
                cosine(query, a.1).partial_cmp(&cosine(query, b.1)).expect("cosine is finite")
            })
            .map(|(i, _)| i)
            .expect("at least one class"))
    }

    /// Accuracy of the faulted memory over `(input, label)` pairs, using
    /// `model`'s encoder.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors; [`HdcError::EmptyModel`] for an empty
    /// iterator.
    pub fn accuracy<'a, E, It>(
        &self,
        model: &HdcClassifier<E>,
        examples: It,
    ) -> Result<f64, HdcError>
    where
        E: Encoder,
        It: IntoIterator<Item = (&'a E::Input, usize)>,
        E::Input: 'a,
    {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (input, label) in examples {
            let query = model.encode(input)?;
            if self.classify(&query)? == label {
                correct += 1;
            }
            total += 1;
        }
        if total == 0 {
            return Err(HdcError::EmptyModel);
        }
        Ok(correct as f64 / total as f64)
    }
}

/// One row of a bit-error sweep: error rate vs accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitErrorPoint {
    /// Injected per-component flip probability.
    pub bit_error_rate: f64,
    /// Measured accuracy under that fault rate.
    pub accuracy: f64,
    /// Components actually flipped.
    pub flipped: usize,
}

/// Sweeps bit-error rates and measures accuracy at each point — the
/// hardware-robustness curve the HDC literature reports (HDC degrades
/// gracefully thanks to holographic redundancy).
///
/// # Errors
///
/// Propagates injection and evaluation errors.
pub fn bit_error_sweep<E>(
    model: &HdcClassifier<E>,
    rates: &[f64],
    examples: &[(&E::Input, usize)],
    seed: u64,
) -> Result<Vec<BitErrorPoint>, HdcError>
where
    E: Encoder,
{
    let mut points = Vec::with_capacity(rates.len());
    for (k, &rate) in rates.iter().enumerate() {
        let faulty = FaultyAssociativeMemory::inject(model, rate, seed.wrapping_add(k as u64))?;
        let accuracy = faulty.accuracy(model, examples.iter().copied())?;
        points.push(BitErrorPoint { bit_error_rate: rate, accuracy, flipped: faulty.flipped() });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{PixelEncoder, PixelEncoderConfig};
    use crate::memory::ValueEncoding;

    const INK: u8 = 224;

    fn model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 4_000,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 19,
        })
        .expect("valid config");
        let mut m = HdcClassifier::new(encoder, 2);
        m.train_one(&[0u8; 16][..], 0).unwrap();
        m.train_one(&[INK; 16][..], 1).unwrap();
        m.finalize();
        m
    }

    #[test]
    fn zero_rate_is_faultless() {
        let m = model();
        let faulty = FaultyAssociativeMemory::inject(&m, 0.0, 1).unwrap();
        assert_eq!(faulty.flipped(), 0);
        let examples: Vec<(&[u8], usize)> = vec![(&[0u8; 16][..], 0), (&[INK; 16][..], 1)];
        assert_eq!(faulty.accuracy(&m, examples).unwrap(), 1.0);
    }

    #[test]
    fn moderate_noise_degrades_gracefully() {
        // HDC's holographic redundancy: 10% flipped components barely hurt.
        let m = model();
        let faulty = FaultyAssociativeMemory::inject(&m, 0.10, 2).unwrap();
        assert!(faulty.flipped() > 0);
        let examples: Vec<(&[u8], usize)> = vec![(&[0u8; 16][..], 0), (&[INK; 16][..], 1)];
        assert_eq!(faulty.accuracy(&m, examples).unwrap(), 1.0);
    }

    #[test]
    fn full_inversion_breaks_the_model() {
        let m = model();
        let faulty = FaultyAssociativeMemory::inject(&m, 1.0, 3).unwrap();
        let examples: Vec<(&[u8], usize)> = vec![(&[0u8; 16][..], 0), (&[INK; 16][..], 1)];
        // Every reference negated: both examples classified into the
        // opposite class.
        assert_eq!(faulty.accuracy(&m, examples).unwrap(), 0.0);
    }

    #[test]
    fn invalid_rate_rejected() {
        let m = model();
        assert!(FaultyAssociativeMemory::inject(&m, -0.1, 1).is_err());
        assert!(FaultyAssociativeMemory::inject(&m, 1.5, 1).is_err());
    }

    #[test]
    fn unfinalized_model_rejected() {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 500,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 19,
        })
        .expect("valid config");
        let m: HdcClassifier<PixelEncoder> = HdcClassifier::new(encoder, 2);
        assert!(matches!(FaultyAssociativeMemory::inject(&m, 0.1, 1), Err(HdcError::EmptyModel)));
    }

    #[test]
    fn sweep_is_monotone_at_extremes() {
        let m = model();
        let examples: Vec<(&[u8], usize)> = vec![(&[0u8; 16][..], 0), (&[INK; 16][..], 1)];
        let points = bit_error_sweep(&m, &[0.0, 0.5, 1.0], &examples, 7).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].accuracy, 1.0);
        assert_eq!(points[2].accuracy, 0.0);
    }

    #[test]
    fn injection_is_seeded() {
        let m = model();
        let a = FaultyAssociativeMemory::inject(&m, 0.2, 9).unwrap();
        let b = FaultyAssociativeMemory::inject(&m, 0.2, 9).unwrap();
        assert_eq!(a.flipped(), b.flipped());
        let mut rng = StdRng::seed_from_u64(0);
        let q = Hypervector::random(4_000, &mut rng);
        assert_eq!(a.classify(&q).unwrap(), b.classify(&q).unwrap());
    }

    #[test]
    fn classify_checks_dimension() {
        let m = model();
        let faulty = FaultyAssociativeMemory::inject(&m, 0.1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let wrong = Hypervector::random(100, &mut rng);
        assert!(faulty.classify(&wrong).is_err());
    }
}
