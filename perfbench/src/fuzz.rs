//! The fuzz half of a workload: repeated `Campaign`s over the test
//! digits (untraced), and the traced per-layer ledger of `fuzz_one`.

use crate::reference;
use crate::report::{jnum, jobj, jstr, median, Report};
use hdc::prelude::*;
use hdc_data::{normalized_l2, GrayImage};
use hdtest::mutation::{Mutation, Strategy};
use hdtest::stats::FuzzRecord;
use hdtest::{
    Campaign, CampaignConfig, Constraint, FuzzConfig, Fuzzer, HdtestError, L2Constraint,
    TargetModel,
};
use rand::rngs::StdRng;
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Normalized-L2 budget of every campaign (the CLI default).
pub const L2_BUDGET: f64 = 1.0;

/// The campaign the `hdtest-cli fuzz` defaults describe, with `workers`
/// threads and master seed `seed`.
pub fn campaign_config(strategy: Strategy, seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        fuzz: FuzzConfig::default(),
        strategy,
        l2_budget: Some(L2_BUDGET),
        workers,
        seed,
    }
}

/// A digest of every field of every record, floats by their bits: two
/// campaigns with equal digests produced the same results.
pub fn record_digest(records: &[FuzzRecord]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for r in records {
        (r.input_index, r.reference_label, r.success, r.adversarial_label).hash(&mut hasher);
        (r.iterations, r.candidates_evaluated).hash(&mut hasher);
        (r.l1.map(f64::to_bits), r.l2.map(f64::to_bits)).hash(&mut hasher);
    }
    hasher.finish()
}

/// Runs campaigns back to back within `seconds`, verifies them, and
/// records the fuzz end-to-end metrics: the median over the timed
/// campaigns (at least `min_campaigns`) of each rate, scaled to the
/// reference host speed by the `reference` kernel timed just before the
/// campaign. The raw rates are printed beside them.
///
/// The first campaign warms caches and lazy state up and is not timed.
/// Its adversarials are re-verified one by one: the model must mislabel
/// each, as recorded, within the L2 budget. Every later campaign repeats
/// the same work, so its records must equal the first's; a record that
/// differs counts as a failed input.
///
/// # Errors
///
/// Campaign errors (the model rejecting an input).
pub fn run_campaigns(
    model: &HdcClassifier<PixelEncoder>,
    images: &[GrayImage],
    config: CampaignConfig,
    seconds: f64,
    min_campaigns: usize,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let campaign = Campaign::new(model, config);
    let started = Instant::now();
    let warm = campaign.run(images)?;
    report.attempt(warm.records.len() as u64);
    verify_adversarials(model, &warm, report);
    let records = warm.records;
    let threads = config.effective_workers().min(images.len());
    let mut reference_rates = Vec::new();
    let mut adv_per_min = Vec::new();
    let mut candidates_per_s = Vec::new();
    let mut durations = Vec::new();
    // Start another campaign only while a typical one still fits, so the
    // fuzz share of a run stays the planned length.
    while durations.len() < min_campaigns
        || started.elapsed().as_secs_f64() + median(&durations) <= seconds
    {
        reference_rates.push(reference::rate(threads, reference::SLICE_S));
        let run = campaign.run(images)?;
        let secs = run.elapsed.as_secs_f64();
        durations.push(reference::SLICE_S + secs);
        let successes = run.records.iter().filter(|r| r.success).count();
        let candidates: usize = run.records.iter().map(|r| r.candidates_evaluated).sum();
        adv_per_min.push(successes as f64 * 60.0 / secs);
        candidates_per_s.push(candidates as f64 / secs);
        report.attempt(run.records.len() as u64);
        for (got, want) in run.records.iter().zip(&records) {
            if got != want {
                report.fail(format!("input {} changed between campaigns", got.input_index));
            }
        }
    }
    let l2: Vec<f64> = records.iter().filter_map(|r| r.l2).collect();
    let normalized = |rates: &[f64]| {
        let scaled: Vec<f64> = rates
            .iter()
            .zip(&reference_rates)
            .map(|(rate, host)| rate * reference::NOMINAL / host)
            .collect();
        median(&scaled)
    };
    report.metric("adv_per_min.norm", normalized(&adv_per_min), "1/min");
    report.metric("candidates_per_s.norm", normalized(&candidates_per_s), "1/s");
    report.metric("success_rate", l2.len() as f64 / records.len() as f64, "ratio");
    report.metric("avg_l2", l2.iter().sum::<f64>() / l2.len().max(1) as f64, "ratio");
    let list = |values: &[f64]| {
        format!("[{}]", values.iter().map(|v| jnum(*v)).collect::<Vec<_>>().join(", "))
    };
    report.lines.push(jobj(&[
        ("fuzz", jstr(config.strategy.name())),
        ("warm_up_campaigns", "1".to_owned()),
        ("timed_campaigns", adv_per_min.len().to_string()),
        ("adv_per_min", jobj(&[("value", jnum(median(&adv_per_min))), ("unit", jstr("1/min"))])),
        (
            "candidates_per_s",
            jobj(&[("value", jnum(median(&candidates_per_s))), ("unit", jstr("1/s"))]),
        ),
        ("campaign_candidates_per_s", list(&candidates_per_s)),
        ("reference_rate", list(&reference_rates)),
        ("reference_nominal", jnum(reference::NOMINAL)),
        ("inputs", records.len().to_string()),
        ("adversarials", l2.len().to_string()),
        ("record_digest", jstr(&format!("{:016x}", record_digest(&records)))),
    ]));
    Ok(())
}

fn verify_adversarials(
    model: &HdcClassifier<PixelEncoder>,
    run: &hdtest::CampaignReport,
    report: &mut Report,
) {
    let successes = run.records.iter().filter(|r| r.success).count();
    if successes != run.corpus.len() {
        report.fail(format!("{successes} successes but {} corpus entries", run.corpus.len()));
    }
    let records = run.records.iter().filter(|r| r.success);
    for (example, record) in run.corpus.iter().zip(records) {
        let predicted = Model::predict(model, example.adversarial.as_slice()).map(|p| p.class);
        let l2 = normalized_l2(&example.original, &example.adversarial);
        let label_ok = matches!(predicted, Ok(class) if class != example.reference_label
            && Some(class) == record.adversarial_label);
        if !label_ok || l2 >= L2_BUDGET {
            report.fail(format!(
                "input {}: adversarial predicted {predicted:?} vs reference {}, l2 {l2}",
                record.input_index, example.reference_label
            ));
        }
    }
}

/// Time and counts the traced wrappers collect.
#[derive(Debug, Default)]
struct Ledger {
    mutate: Duration,
    mutations: u64,
    changed_px: u64,
    accepts: Duration,
    accept_calls: u64,
    accepted: u64,
    evaluate: Duration,
    evaluated: u64,
    predict: Duration,
    predicts: u64,
    /// Every batch the model saw, reference predicts as batches of one,
    /// replayed afterwards to split encode from scan.
    batches: Vec<Vec<Vec<u8>>>,
}

type SharedLedger = Arc<Mutex<Ledger>>;

fn ledger(shared: &SharedLedger) -> std::sync::MutexGuard<'_, Ledger> {
    shared.lock().expect("ledger lock poisoned by a panicking traced call")
}

struct TracedMutation {
    inner: Box<dyn Mutation<GrayImage>>,
    ledger: SharedLedger,
}

impl Mutation<GrayImage> for TracedMutation {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mutate(&self, input: &GrayImage, rng: &mut StdRng) -> GrayImage {
        let started = Instant::now();
        let child = self.inner.mutate(input, rng);
        let spent = started.elapsed();
        let changed = input.as_slice().iter().zip(child.as_slice()).filter(|(a, b)| a != b).count();
        let mut l = ledger(&self.ledger);
        l.mutate += spent;
        l.mutations += 1;
        l.changed_px += changed as u64;
        child
    }
}

struct TracedConstraint {
    inner: L2Constraint,
    ledger: SharedLedger,
}

impl Constraint<GrayImage> for TracedConstraint {
    fn accepts(&self, original: &GrayImage, candidate: &GrayImage) -> bool {
        let started = Instant::now();
        let ok = self.inner.accepts(original, candidate);
        let spent = started.elapsed();
        let mut l = ledger(&self.ledger);
        l.accepts += spent;
        l.accept_calls += 1;
        l.accepted += u64::from(ok);
        ok
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Forwards every `TargetModel` call, `evaluate_batch` and `warm_up`
/// included, to the model's own overrides: the trait's default
/// `evaluate_batch` loops `evaluate`, which is a different program.
struct TracedModel<'m> {
    inner: &'m HdcClassifier<PixelEncoder>,
    ledger: SharedLedger,
}

impl TargetModel for TracedModel<'_> {
    type Input = [u8];

    fn num_classes(&self) -> usize {
        TargetModel::num_classes(self.inner)
    }

    fn predict(&self, input: &[u8]) -> Result<usize, HdtestError> {
        let started = Instant::now();
        let label = TargetModel::predict(self.inner, input);
        let spent = started.elapsed();
        let mut l = ledger(&self.ledger);
        l.predict += spent;
        l.predicts += 1;
        l.batches.push(vec![input.to_vec()]);
        label
    }

    fn fitness(&self, input: &[u8], reference: usize) -> Result<f64, HdtestError> {
        TargetModel::fitness(self.inner, input, reference)
    }

    fn evaluate(&self, input: &[u8], reference: usize) -> Result<(usize, f64), HdtestError> {
        TargetModel::evaluate(self.inner, input, reference)
    }

    fn evaluate_batch(
        &self,
        inputs: &[&[u8]],
        reference: usize,
    ) -> Result<Vec<(usize, f64)>, HdtestError> {
        let started = Instant::now();
        let out = TargetModel::evaluate_batch(self.inner, inputs, reference);
        let spent = started.elapsed();
        let mut l = ledger(&self.ledger);
        l.evaluate += spent;
        l.evaluated += inputs.len() as u64;
        l.batches.push(inputs.iter().map(|i| i.to_vec()).collect());
        out
    }

    fn warm_up(&self) {
        TargetModel::warm_up(self.inner);
    }
}

fn input_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Counts of one single-threaded `fuzz_one` pass.
struct Pass {
    elapsed: Duration,
    iterations: u64,
    candidates: u64,
    discarded: u64,
}

fn fuzz_pass<M: TargetModel<Input = [u8]>>(
    model: &M,
    strategy: Box<dyn Mutation<GrayImage>>,
    constraint: Box<dyn Constraint<GrayImage>>,
    images: &[GrayImage],
    seed: u64,
) -> Result<Pass, HdtestError> {
    model.warm_up();
    let fuzzer = Fuzzer::new(model, strategy, constraint, FuzzConfig::default());
    let mut pass = Pass { elapsed: Duration::ZERO, iterations: 0, candidates: 0, discarded: 0 };
    let started = Instant::now();
    for (index, image) in images.iter().enumerate() {
        let result = fuzzer.fuzz_one(image, input_seed(seed, index))?;
        pass.iterations += result.iterations as u64;
        pass.candidates += result.candidates_evaluated as u64;
        pass.discarded += result.discarded as u64;
    }
    pass.elapsed = started.elapsed();
    Ok(pass)
}

/// The traced fuzz run: `fuzz_one` over `images` on one thread, once
/// untraced and once through the traced wrappers, then a replay of the
/// captured batches through `Encoder::encode_batch` and
/// `HdcClassifier::predict_encoded_batch` to split encode from scan.
///
/// Records the fuzz layers' per-layer metrics, `trace.overhead` (traced
/// over untraced candidate throughput, the untraced pass run before and
/// after the traced one) and `ledger.explained_share.fuzz`: (mutate +
/// accepts + the model's predict and evaluate) / `fuzz_one`. The model's
/// time is measured in the loop; the replay only splits it into encode
/// and scan, whose sum falls short of it by what the model does besides.
///
/// # Errors
///
/// Model errors.
pub fn trace(
    model: &HdcClassifier<PixelEncoder>,
    images: &[GrayImage],
    strategy: Strategy,
    seed: u64,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let constraint = || L2Constraint { budget: L2_BUDGET };
    let plain =
        || fuzz_pass(model, strategy.image_mutation(), Box::new(constraint()), images, seed);
    let before = plain()?;

    let shared: SharedLedger = Arc::default();
    let traced_model = TracedModel { inner: model, ledger: Arc::clone(&shared) };
    let traced = fuzz_pass(
        &traced_model,
        Box::new(TracedMutation { inner: strategy.image_mutation(), ledger: Arc::clone(&shared) }),
        Box::new(TracedConstraint { inner: constraint(), ledger: Arc::clone(&shared) }),
        images,
        seed,
    )?;
    let after = plain()?;
    if (traced.iterations, traced.candidates) != (before.iterations, before.candidates) {
        report.fail("the traced fuzz pass did different work from the untraced one");
    }
    report.attempt(images.len() as u64);

    let l = std::mem::take(&mut *ledger(&shared));
    let mut encode = Duration::ZERO;
    let mut scan = Duration::ZERO;
    let mut queries = 0u64;
    for batch in &l.batches {
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let started = Instant::now();
        let encoded = model.encoder().encode_batch(&refs)?;
        let encoded_at = Instant::now();
        std::hint::black_box(model.predict_encoded_batch(&encoded)?);
        scan += encoded_at.elapsed();
        encode += encoded_at - started;
        queries += batch.len() as u64;
    }

    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let children = l.mutate + l.accepts + l.evaluate + l.predict;
    let inputs = images.len() as u64;
    report.metric("encoder.encode_us", us(encode, queries), "us");
    report.metric("am.scan_us", us(scan, queries), "us");
    report.metric("model.evaluate_us", us(l.evaluate, l.evaluated), "us");
    report.metric("model.predict_us", us(l.predict, l.predicts), "us");
    report.metric("mutation.mutate_us", us(l.mutate, l.mutations), "us");
    report.metric("mutation.changed_px", l.changed_px as f64 / l.mutations.max(1) as f64, "px");
    report.metric("constraint.accepts_us", us(l.accepts, l.accept_calls), "us");
    report.metric(
        "constraint.accept_ratio",
        l.accepted as f64 / l.accept_calls.max(1) as f64,
        "ratio",
    );
    report.metric("fuzzer.self_us", us(traced.elapsed.saturating_sub(children), inputs), "us");
    report.metric("fuzzer.iterations", traced.iterations as f64, "count");
    report.metric("fuzzer.candidates", traced.candidates as f64, "count");
    report.metric("fuzzer.discarded", traced.discarded as f64, "count");
    report.metric(
        "ledger.explained_share.fuzz",
        children.as_secs_f64() / traced.elapsed.as_secs_f64(),
        "ratio",
    );
    let untraced = (before.candidates + after.candidates) as f64
        / (before.elapsed + after.elapsed).as_secs_f64();
    let traced_rate = traced.candidates as f64 / traced.elapsed.as_secs_f64();
    report.metric("trace.overhead", traced_rate / untraced, "ratio");
    Ok(())
}
