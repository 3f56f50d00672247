//! Confusion-matrix evaluation utilities.
//!
//! The paper's Fig. 7 discussion reasons about *which* classes confuse
//! with which ("9 has quite a few similarities such as 8 and 3"); a
//! confusion matrix makes that argument measurable for any classifier in
//! this workspace.

use crate::error::HdcError;
use crate::model::Model;

/// A square count matrix: `counts[true][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Evaluates any [`Model`] over labeled examples.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for labels outside the model's
    /// range, or propagates prediction errors.
    pub fn evaluate<'a, M, It>(model: &M, examples: It) -> Result<Self, HdcError>
    where
        M: Model + ?Sized,
        It: IntoIterator<Item = (&'a M::Input, usize)>,
        M::Input: 'a,
    {
        let n = model.num_classes();
        let mut counts = vec![vec![0usize; n]; n];
        for (input, label) in examples {
            if label >= n {
                return Err(HdcError::UnknownClass { class: label, num_classes: n });
            }
            let predicted = model.predict(input)?.class;
            counts[label][predicted] += 1;
        }
        Ok(Self { counts })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }

    /// Count of examples with true class `t` predicted as `p`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, t: usize, p: usize) -> usize {
        self.counts[t][p]
    }

    /// Total examples evaluated.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (diagonal mass / total); `0.0` when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.num_classes()).map(|c| self.counts[c][c]).sum();
        correct as f64 / total as f64
    }

    /// Recall of class `c` (diagonal / row sum); `0.0` for an empty row.
    pub fn recall(&self, c: usize) -> f64 {
        let row: usize = self.counts[c].iter().sum();
        if row == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / row as f64
        }
    }

    /// Precision of class `c` (diagonal / column sum); `0.0` for an empty
    /// column.
    pub fn precision(&self, c: usize) -> f64 {
        let col: usize = self.counts.iter().map(|row| row[c]).sum();
        if col == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / col as f64
        }
    }

    /// The most frequent misprediction `(true, predicted, count)` — the
    /// class pair Fig. 7's narrative is about. `None` if nothing was
    /// mispredicted.
    pub fn top_confusion(&self) -> Option<(usize, usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None;
        for (t, row) in self.counts.iter().enumerate() {
            for (p, &count) in row.iter().enumerate() {
                if t != p && count > 0 && best.map(|(_, _, c)| count > c).unwrap_or(true) {
                    best = Some((t, p, count));
                }
            }
        }
        best
    }

    /// Renders the matrix as an aligned text table (rows = true class).
    pub fn render(&self) -> String {
        let n = self.num_classes();
        let width =
            self.counts.iter().flatten().map(|c| c.to_string().len()).max().unwrap_or(1).max(2);
        let mut out = String::new();
        out.push_str("t\\p");
        for p in 0..n {
            out.push_str(&format!(" {p:>width$}"));
        }
        out.push('\n');
        for (t, row) in self.counts.iter().enumerate() {
            out.push_str(&format!("{t:>3}"));
            for &c in row {
                out.push_str(&format!(" {c:>width$}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::HdcClassifier;
    use crate::encoder::{PixelEncoder, PixelEncoderConfig};
    use crate::memory::ValueEncoding;

    fn model() -> HdcClassifier<PixelEncoder> {
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 1_000,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 61,
        })
        .expect("valid config");
        let mut m = HdcClassifier::new(encoder, 3);
        m.train_one(&[0u8; 16][..], 0).unwrap();
        m.train_one(&[128u8; 16][..], 1).unwrap();
        m.train_one(&[255u8; 16][..], 2).unwrap();
        m.finalize();
        m
    }

    #[test]
    fn perfect_predictions_are_diagonal() {
        let m = model();
        let examples: Vec<([u8; 16], usize)> =
            vec![([0; 16], 0), ([128; 16], 1), ([255; 16], 2), ([0; 16], 0)];
        let cm = ConfusionMatrix::evaluate(&m, examples.iter().map(|(i, l)| (&i[..], *l))).unwrap();
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(1, 1), 1);
        assert!(cm.top_confusion().is_none());
        assert_eq!(cm.recall(0), 1.0);
        assert_eq!(cm.precision(2), 1.0);
    }

    #[test]
    fn mislabeled_example_lands_off_diagonal() {
        let m = model();
        // Feed a bright image labeled 0: predicted 2, so counts[0][2] = 1.
        let examples: Vec<([u8; 16], usize)> = vec![([255; 16], 0), ([0; 16], 0)];
        let cm = ConfusionMatrix::evaluate(&m, examples.iter().map(|(i, l)| (&i[..], *l))).unwrap();
        assert_eq!(cm.count(0, 2), 1);
        assert_eq!(cm.accuracy(), 0.5);
        assert_eq!(cm.top_confusion(), Some((0, 2, 1)));
        assert_eq!(cm.recall(0), 0.5);
        assert_eq!(cm.precision(2), 0.0);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let m = model();
        let img = [0u8; 16];
        let examples = vec![(&img[..], 7usize)];
        assert!(matches!(
            ConfusionMatrix::evaluate(&m, examples),
            Err(HdcError::UnknownClass { class: 7, num_classes: 3 })
        ));
    }

    #[test]
    fn empty_evaluation_is_safe() {
        let m = model();
        let cm = ConfusionMatrix::evaluate(&m, std::iter::empty::<(&[u8], usize)>()).unwrap();
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.recall(0), 0.0);
    }

    #[test]
    fn render_is_square_and_labeled() {
        let m = model();
        let examples: Vec<([u8; 16], usize)> = vec![([0; 16], 0)];
        let cm = ConfusionMatrix::evaluate(&m, examples.iter().map(|(i, l)| (&i[..], *l))).unwrap();
        let text = cm.render();
        assert_eq!(text.lines().count(), 4, "header + 3 rows");
        assert!(text.starts_with("t\\p"));
    }
}
