//! End-to-end acceptance for a **legacy `HDC1` model file**: a real
//! server on a real socket loads a file written in the sum-based format
//! (converted to counters on load) and serves it through the
//! predict/train/feedback/snapshot/reload machinery, with every response
//! checked **bit-exactly** against a local mirror loaded from the same
//! bytes and driven through direct `hdc` library calls.
//!
//! The mirror discipline: the server applies each update through its
//! single-writer batcher in request order (one client, so one job per
//! drain), and the mirror applies the same call directly. Predictions,
//! similarities (the JSON renderer emits shortest-roundtrip f64, so
//! parse-back is exact), counters and references must never diverge.

mod common;

use hdc::prelude::*;
use hdc_serve::batcher::BatchConfig;
use hdc_serve::client::Client;
use hdc_serve::json::Json;
use hdc_serve::metrics::Metrics;
use hdc_serve::registry::Registry;
use hdc_serve::server::{Server, ServerConfig};
use std::sync::Arc;

const EDGE: usize = 4;
const PIXELS: usize = EDGE * EDGE;

/// A legacy model: two classes of uneven size, then an adaptive round
/// that subtracted from class 0, so its stored count (3) is below its
/// largest |sum|.
fn legacy_model_bytes() -> Vec<u8> {
    let config = PixelEncoderConfig {
        dim: 2_048,
        width: EDGE,
        height: EDGE,
        levels: 8,
        value_encoding: ValueEncoding::Random,
        seed: 7,
    };
    let encoder = PixelEncoder::new(config).unwrap();
    let encode = |fill: u8| encoder.encode(&[fill; PIXELS][..]).unwrap();
    let mut classes = [Accumulator::zeros(config.dim), Accumulator::zeros(config.dim)];
    for fill in [0u8, 32, 64, 16] {
        classes[0].add(&encode(fill)).unwrap();
    }
    for fill in [224u8, 192, 255] {
        classes[1].add(&encode(fill)).unwrap();
    }
    classes[1].add(&encode(128)).unwrap();
    classes[0].subtract(&encode(128)).unwrap();
    common::legacy_hdc1(&config, &classes)
}

/// Asserts one HTTP predict response is bit-exact against the mirror's
/// prediction for the same input.
fn assert_predict_matches(client: &mut Client, mirror: &AnyModel, img: &[u8]) {
    let body = Client::predict_body("default", img);
    let response = client.post("/v1/predict", &body).unwrap();
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    let doc = response.json().unwrap();
    let expected = mirror.predict(img).unwrap();
    assert_eq!(doc.get("class").and_then(Json::as_f64), Some(expected.class as f64));
    assert_eq!(
        doc.get("similarity").and_then(Json::as_f64),
        Some(expected.similarity),
        "similarity must round-trip bit-exactly"
    );
    assert_eq!(doc.get("margin").and_then(Json::as_f64), Some(expected.margin));
}

fn post_example(client: &mut Client, path: &str, img: &[u8], label: usize) -> Json {
    let pixels: Vec<String> = img.iter().map(|p| p.to_string()).collect();
    let body = format!("{{\"input\":[{}],\"label\":{label}}}", pixels.join(","));
    client.post(path, &body).unwrap().json().unwrap()
}

#[test]
fn legacy_model_round_trip_is_bit_exact_vs_direct_library_calls() {
    let dir = std::env::temp_dir().join(format!("hdc-serve-legacy-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let legacy_path = dir.join("legacy.hdc");
    let snap_path = dir.join("online.hdc");
    let bytes = legacy_model_bytes();
    std::fs::write(&legacy_path, &bytes).unwrap();

    let registry = Arc::new(Registry::new(Arc::new(Metrics::new()), BatchConfig::default()));
    registry.load("default", &legacy_path).unwrap();
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let server = Server::start(registry, &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut mirror = hdc::io::load_any(&bytes[..]).unwrap();

    // Predict: single inputs, bit-exact against the mirror.
    for fill in [0u8, 64, 128, 200, 255] {
        assert_predict_matches(&mut client, &mirror, &[fill; PIXELS]);
    }

    // Explicit batch predict matches too.
    let zeros = vec!["0"; PIXELS].join(",");
    let lights = vec!["224"; PIXELS].join(",");
    let body = format!("{{\"inputs\":[[{zeros}],[{lights}]]}}");
    let doc = client.post("/v1/predict", &body).unwrap().json().unwrap();
    let results = doc.get("results").and_then(Json::as_array).unwrap();
    for (img, result) in [[0u8; PIXELS], [224u8; PIXELS]].iter().zip(results) {
        let expected = mirror.predict(&img[..]).unwrap();
        assert_eq!(result.get("class").and_then(Json::as_f64), Some(expected.class as f64));
        assert_eq!(result.get("similarity").and_then(Json::as_f64), Some(expected.similarity));
    }

    // Train online: each request through the coalescer, same example into
    // the mirror via direct partial_fit. Versions count the batches.
    let train_set: [(u8, usize); 4] = [(96, 0), (160, 1), (48, 0), (208, 1)];
    for (round, (fill, label)) in train_set.iter().enumerate() {
        let img = [*fill; PIXELS];
        let doc = post_example(&mut client, "/v1/train", &img, *label);
        assert_eq!(doc.get("trained").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some((round + 1) as f64));
        mirror.partial_fit(&img[..], *label).unwrap();
    }
    for fill in [0u8, 100, 180, 255] {
        assert_predict_matches(&mut client, &mirror, &[fill; PIXELS]);
    }

    // Feedback with a lying label: the server's adaptive update must be
    // the mirror's adaptive update.
    let probe = [224u8; PIXELS];
    let doc = post_example(&mut client, "/v1/feedback", &probe, 0);
    let fb = mirror.feedback(&probe[..], 0).unwrap();
    assert!(fb.updated, "a lying label must update");
    assert_eq!(doc.get("updated").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("predicted").and_then(Json::as_f64), Some(fb.prediction.class as f64));
    assert_eq!(doc.get("version").and_then(Json::as_f64), Some(5.0));
    for fill in [0u8, 128, 224] {
        assert_predict_matches(&mut client, &mirror, &[fill; PIXELS]);
    }

    // Snapshot: the persisted counters are exactly the mirror's, in the
    // counter format.
    let body = format!("{{\"model\":\"default\",\"path\":\"{}\"}}", snap_path.display());
    let doc = client.post("/v1/snapshot", &body).unwrap().json().unwrap();
    let snap = doc.get("snapshot").expect("snapshot section");
    let snap_version = snap.get("version").and_then(Json::as_f64).unwrap();
    assert_eq!(snap_version, 5.0, "snapshot must carry the trained version");
    let snapshot = std::fs::read(&snap_path).unwrap();
    assert_eq!(&snapshot[..4], b"HDB1");
    let loaded = hdc::io::load_any(&snapshot[..]).unwrap();
    for class in 0..2 {
        assert_eq!(
            loaded.counter(class).unwrap(),
            mirror.counter(class).unwrap(),
            "class {class}: persisted counters diverged from direct library calls"
        );
        assert_eq!(
            loaded.associative_memory().reference(class).unwrap(),
            mirror.associative_memory().reference(class).unwrap(),
            "class {class}: references diverged"
        );
    }

    // Reload from the snapshot: the version lineage continues, the model
    // keeps learning bit-exactly.
    let response = client.post("/v1/reload", &body).unwrap();
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    let doc = response.json().unwrap();
    let reloaded = doc.get("reloaded").expect("reloaded section");
    assert_eq!(reloaded.get("generation").and_then(Json::as_f64), Some(2.0));

    let img = [72u8; PIXELS];
    let doc = post_example(&mut client, "/v1/train", &img, 0);
    let version_after = doc.get("version").and_then(Json::as_f64).unwrap();
    assert!(
        version_after > snap_version,
        "lineage must continue past the snapshot version: {version_after} vs {snap_version}"
    );
    mirror.partial_fit(&img[..], 0).unwrap();
    for fill in [0u8, 72, 224] {
        assert_predict_matches(&mut client, &mirror, &[fill; PIXELS]);
    }

    std::fs::remove_dir_all(&dir).ok();
}
