//! Legacy `HDC1` model files.
//!
//! `fixtures/legacy_hdc1.bin` was written by `hdc::io::save_pixel_classifier`
//! of the sum-based classifier (commit `3bf98b1`): D = 64, 4×4 inputs,
//! 4 levels, seed 7, two classes trained on three images, then 40 adaptive
//! feedback rounds (20 updates) that left each class's stored count (2)
//! below its largest |sum| (10 and 9). `fixtures/legacy_hdc1.expected`
//! holds that classifier's predictions on twelve probes, one per line:
//! the 16 pixels, the class, then the similarity to each class.

use hdc::io::{load_any, save_pixel_classifier};

const FIXTURE: &[u8] = include_bytes!("fixtures/legacy_hdc1.bin");
const EXPECTED: &str = include_str!("fixtures/legacy_hdc1.expected");

/// The recorded probes: pixels, predicted class, similarities.
fn probes() -> Vec<(Vec<u8>, usize, Vec<f64>)> {
    EXPECTED
        .lines()
        .map(|line| {
            let mut fields = line.split(' ');
            let pixels = fields
                .next()
                .expect("pixels")
                .split(',')
                .map(|p| p.parse().expect("pixel"))
                .collect();
            let class = fields.next().expect("class").parse().expect("class");
            let sims = fields.map(|s| s.parse().expect("similarity")).collect();
            (pixels, class, sims)
        })
        .collect()
}

#[test]
fn legacy_fixture_reproduces_recorded_predictions() {
    assert_eq!(&FIXTURE[..4], b"HDC1");
    let model = load_any(FIXTURE).expect("legacy model loads");
    let probes = probes();
    assert_eq!(probes.len(), 12);
    for (pixels, class, sims) in probes {
        let prediction = model.predict(&pixels).expect("predicts");
        assert_eq!(prediction.class, class, "probe {pixels:?}");
        assert_eq!(prediction.similarities, sims, "probe {pixels:?}");
    }
}

#[test]
fn legacy_fixture_round_trips_through_hdb1() {
    let model = load_any(FIXTURE).expect("legacy model loads");
    let mut hdb1 = Vec::new();
    save_pixel_classifier(&model, &mut hdb1).expect("saves");
    assert_eq!(&hdb1[..4], b"HDB1");
    let reloaded = load_any(&hdb1[..]).expect("reloads");
    for class in 0..2 {
        assert_eq!(
            model.associative_memory().reference(class).unwrap(),
            reloaded.associative_memory().reference(class).unwrap()
        );
        assert_eq!(
            model.counter(class).unwrap(),
            reloaded.counter(class).unwrap(),
            "class {class}"
        );
    }
    for (pixels, _, _) in probes() {
        assert_eq!(model.predict(&pixels).unwrap(), reloaded.predict(&pixels).unwrap());
    }
    let mut again = Vec::new();
    save_pixel_classifier(&reloaded, &mut again).expect("saves");
    assert_eq!(hdb1, again, "HDB1 save → load → save is byte-stable");
}
