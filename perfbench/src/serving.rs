//! The serve half of a workload: the shipped binary under the
//! production-shaped schedule (untraced), and the same schedule driven
//! in-process through the serving layers' public calls (traced).

use crate::fixture::Scratch;
use crate::load::{issue_http, open_loop, Kind, Phase, Status, Traffic, CONNECTIONS};
use crate::report::{jnum, jobj, jstr, median, Percentile, Report};
use crate::server::{ServeConfig, ServerProcess};
use hdc::prelude::*;
use hdc_serve::{
    http, json, BatchConfig, Client, DeltaOp, DeltaRecord, Metrics, Registry, ServeError, Wal,
};
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the `low` phase (queue empty: linger and encode show).
pub const LOW_RPS: f64 = 200.0;
/// Offered rate of the `high` phase (coalescing and the predict pool show).
pub const HIGH_RPS: f64 = 2_000.0;
/// Rates of the ladder that finds `max_ok_rps`.
pub const LADDER_RPS: [f64; 4] = [1_000.0, 2_000.0, 3_000.0, 4_000.0];

/// Lengths of the serving phases.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Predicts of the checked warm phase.
    pub warm: usize,
    /// Seconds of the `low` phase.
    pub low_s: f64,
    /// Seconds of the `high` phase.
    pub high_s: f64,
    /// Seconds of each ladder rate.
    pub ladder_s: f64,
}

/// What the untraced serve run learned about the server it measured.
pub struct Served {
    /// Median process start to `/healthz` ready, in seconds.
    pub setup_s: f64,
    /// The settings the binary reported.
    pub config: ServeConfig,
    /// The server's kernel tier and CPU features, from `/metrics`.
    pub kernel: (String, String),
}

/// Starts the binary on a fresh copy of `model_file` in its own scratch
/// directory, so every start opens an empty WAL and replay never grows.
pub fn start_fresh(
    binary: &Path,
    model_file: &[u8],
) -> Result<(ServerProcess, Scratch), Box<dyn Error>> {
    let scratch = Scratch::new("serve")?;
    let path = scratch.path().join("model.hdc");
    std::fs::write(&path, model_file)?;
    Ok((ServerProcess::start(binary, &path)?, scratch))
}

fn record_phase(phase: &Phase, report: &mut Report) {
    report.lines.push(phase.line());
    report.attempt(phase.sent as u64);
    for failure in &phase.failures {
        report.fail(format!("{}: {failure}", phase.name));
    }
    let described = phase.failures.len().min(phase.failed);
    report.fail_many((phase.failed - described) as u64);
}

/// The untraced serve run: `setup_repeats` starts (the last one serves),
/// a checked warm phase, `low`, `high` and the ladder, then the
/// end-of-run durability check.
///
/// # Errors
///
/// A server that cannot start or be reached.
pub fn run(
    binary: &Path,
    model_file: &[u8],
    model: &HdcClassifier<PixelEncoder>,
    traffic: &Traffic,
    plan: ServePlan,
    setup_repeats: usize,
    report: &mut Report,
) -> Result<Served, Box<dyn Error>> {
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..setup_repeats.max(1) {
        drop(running.take());
        let (server, scratch) = start_fresh(binary, model_file)?;
        setups.push(server.setup.as_secs_f64());
        running = Some((server, scratch));
    }
    let (server, _scratch) = running.expect("at least one start");
    let addr = server.addr;

    // Warm phase (checked, not timed): served classes must equal the
    // library's on the same inputs, before any online training.
    let mut client = Client::connect(addr)?;
    for (pixels, body) in traffic.predicts.iter().cycle().take(plan.warm) {
        report.attempt(1);
        let expected = Model::predict(model, pixels.as_slice())?.class;
        let served = client
            .post("/v1/predict", body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| r.json().ok())
            .and_then(|doc| doc.get("class").and_then(|c| c.as_f64()));
        if served != Some(expected as f64) {
            report.fail(format!("warm predict served {served:?}, library says {expected}"));
        }
    }

    let mut connections =
        (0..CONNECTIONS).map(|_| Client::connect(addr)).collect::<Result<Vec<_>, _>>()?;
    let mut phase = |name: &str, rate: f64, seconds: f64, report: &mut Report| -> Phase {
        let (phase, back) =
            open_loop(name, std::mem::take(&mut connections), rate, seconds, |c, i| {
                issue_http(c, addr, traffic, i)
            });
        connections = back;
        record_phase(&phase, report);
        phase
    };
    let low = phase("low", LOW_RPS, plan.low_s, report);
    let high = phase("high", HIGH_RPS, plan.high_s, report);
    let mut acked = (low.train_us.len() + high.train_us.len()) as u64;
    let mut max_ok_rps = 0.0f64;
    for rate in LADDER_RPS {
        let step = phase(&format!("ladder_{rate}"), rate, plan.ladder_s, report);
        acked += step.train_us.len() as u64;
        if step.meets_limits() {
            max_ok_rps = max_ok_rps.max(rate);
        }
    }

    // No acked write may be lost: the model must report every acked
    // example as trained.
    report.attempt(1);
    let trained = client
        .get("/v1/models")?
        .json()?
        .get("models")
        .and_then(|m| m.as_array())
        .and_then(|models| {
            models.iter().find(|m| m.get("name").and_then(|n| n.as_str()) == Some("default"))
        })
        .and_then(|m| m.get("trained_examples"))
        .and_then(|t| t.as_f64());
    if trained != Some(acked as f64) {
        report.fail(format!("{acked} train examples acked, /v1/models reports {trained:?}"));
    }
    let metrics = client.get("/metrics")?.json()?;
    let process = metrics.get("process");
    let field = |key: &str| {
        process.and_then(|p| p.get(key)).and_then(|v| v.as_str()).unwrap_or("unreported").to_owned()
    };

    report.metric("predict_us.p50.low", Percentile::of(&low.predict_us, 0.5).value, "us");
    // The tail and high-load figures swing with the host's scheduling and
    // fsync stalls by more than any bound a regression gate could hold on
    // a shared two-core machine: they are reported, by name, ungated.
    let figure = |values: &[f64], q: f64| Percentile::of(values, q).render("us");
    report.lines.push(jobj(&[(
        "ungated",
        jobj(&[
            ("predict_us.p99.low", figure(&low.predict_us, 0.99)),
            ("predict_us.p50.high", figure(&high.predict_us, 0.5)),
            ("predict_us.p99.high", figure(&high.predict_us, 0.99)),
            ("train_us.p50.high", figure(&high.train_us, 0.5)),
            ("train_us.p99.high", figure(&high.train_us, 0.99)),
            ("max_ok_rps", jobj(&[("value", jnum(max_ok_rps)), ("unit", jstr("req/s"))])),
        ]),
    )]));
    Ok(Served {
        setup_s: median(&setups),
        config: server.config.clone(),
        kernel: (field("kernel_backend"), field("cpu_features")),
    })
}

/// Time spent in each serving layer by one generator connection.
#[derive(Debug, Default)]
struct Spans {
    http: Duration,
    json: Duration,
    whole: Duration,
    predict: Duration,
    predicts: u64,
    train: Duration,
    trains: u64,
}

fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn status_of(result: Result<(), ServeError>) -> Status {
    match result {
        Ok(()) => Status::Ok,
        Err(e) => match e.status() {
            503 => Status::Shed,
            504 => Status::Expired,
            _ => Status::Failed(e.to_string()),
        },
    }
}

/// The traced serve run: the `low` and `high` schedule driven in-process
/// by the same open loop, each request going through `http::read_request`
/// over its recorded bytes, `json::parse`, and `Batcher::predict` or
/// `Batcher::train` on a registry entry loaded (WAL attached) from a fresh
/// model copy with the binary's reported settings. Then
/// `Model::partial_fit_batch` on a clone and `Wal::append` on a scratch
/// log, one example at a time.
///
/// # Errors
///
/// Registry, WAL or model failures.
pub fn trace(
    model_file: &[u8],
    traffic: &Traffic,
    config: &ServeConfig,
    plan: ServePlan,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let scratch = Scratch::new("trace")?;
    let path = scratch.path().join("model.hdc");
    std::fs::write(&path, model_file)?;
    let batch = BatchConfig {
        max_batch: config.max_batch,
        max_linger: Duration::from_micros(config.linger_us),
        max_queue: config.max_queue,
        queue_deadline: Duration::from_millis(config.queue_deadline_ms),
        predict_workers: config.predict_workers,
    };
    let registry = Registry::new(Arc::new(Metrics::new()), batch);
    registry.load("default", &path)?;
    let entry = registry.get("default")?;
    let predicts: Vec<Vec<u8>> =
        traffic.predicts.iter().map(|(_, b)| raw_request("/v1/predict", b)).collect();
    let trains: Vec<Vec<u8>> =
        traffic.trains.iter().map(|(_, _, b)| raw_request("/v1/train", b)).collect();

    let issue = |spans: &mut Spans, i: usize| -> Status {
        let kind = Traffic::kind(i);
        let bytes = match kind {
            Kind::Predict => &predicts[i % predicts.len()],
            Kind::Train => &trains[i % trains.len()],
        };
        let started = Instant::now();
        let request = match http::read_request(&mut bytes.as_slice(), None) {
            Ok(Some(request)) => request,
            other => return Status::Failed(format!("read_request: {other:?}")),
        };
        let read = Instant::now();
        let doc = match json::parse(&request.body) {
            Ok(doc) => doc,
            Err(e) => return Status::Failed(format!("json: {e}")),
        };
        let parsed = Instant::now();
        let pixels: Vec<u8> = doc
            .get("input")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(|p| p.as_f64()).map(|p| p as u8).collect())
            .unwrap_or_default();
        let label = doc.get("label").and_then(|l| l.as_f64()).unwrap_or(0.0) as usize;
        let queued = Instant::now();
        let result = match kind {
            Kind::Predict => entry.batcher().predict(pixels).map(drop),
            Kind::Train => entry.batcher().train(vec![(pixels, label)]).map(drop),
        };
        let done = Instant::now();
        spans.http += read - started;
        spans.json += parsed - read;
        spans.whole += done - started;
        match kind {
            Kind::Predict => {
                spans.predict += done - queued;
                spans.predicts += 1;
            }
            Kind::Train => {
                spans.train += done - queued;
                spans.trains += 1;
            }
        }
        status_of(result)
    };

    let connections: Vec<Spans> = (0..CONNECTIONS).map(|_| Spans::default()).collect();
    let (low, low_spans) = open_loop("traced_low", connections, LOW_RPS, plan.low_s, issue);
    let (high, high_spans) = open_loop(
        "traced_high",
        Vec::from_iter((0..CONNECTIONS).map(|_| Spans::default())),
        HIGH_RPS,
        plan.high_s,
        issue,
    );
    for phase in [&low, &high] {
        record_phase(phase, report);
    }

    let total = |spans: &[Spans], f: fn(&Spans) -> Duration| spans.iter().map(f).sum::<Duration>();
    let count = |spans: &[Spans], f: fn(&Spans) -> u64| spans.iter().map(f).sum::<u64>();
    let explained = total(&low_spans, |s| s.http + s.json + s.predict + s.train).as_secs_f64()
        / total(&low_spans, |s| s.whole).as_secs_f64();
    let all: Vec<Spans> = low_spans.into_iter().chain(high_spans).collect();
    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let requests = count(&all, |s| s.predicts + s.trains);
    let batcher_predict = us(total(&all, |s| s.predict), count(&all, |s| s.predicts));

    // The model's own per-input predict time, to split the batcher's
    // predict into model work and waiting.
    let snapshot = entry.model();
    let sample: Vec<&[u8]> = traffic.predicts.iter().take(200).map(|(p, _)| p.as_slice()).collect();
    let started = Instant::now();
    for pixels in &sample {
        std::hint::black_box(Model::predict(&*snapshot, pixels)?);
    }
    let direct = us(started.elapsed(), sample.len() as u64);

    let mut clone: AnyModel = (*snapshot).clone();
    let examples = &traffic.trains[..traffic.trains.len().min(50)];
    let mut fit = Duration::ZERO;
    for (pixels, label, _) in examples {
        let started = Instant::now();
        Model::partial_fit_batch(&mut clone, &[(pixels.as_slice(), *label)])?;
        fit += started.elapsed();
    }
    let (mut wal, _) = Wal::open(&scratch.path().join("scratch.wal"), 0)?;
    let mut append = Duration::ZERO;
    for (version, (pixels, label, _)) in (1u64..).zip(examples) {
        let record = DeltaRecord {
            version,
            ops: vec![DeltaOp::Train { input: pixels.clone(), label: *label }],
            trace: None,
        };
        let started = Instant::now();
        wal.append(&record)?;
        append += started.elapsed();
    }

    let metrics = registry.metrics();
    report.metric("http.read_us", us(total(&all, |s| s.http), requests), "us");
    report.metric("json.parse_us", us(total(&all, |s| s.json), requests), "us");
    report.metric("batcher.predict_us", batcher_predict, "us");
    report.metric("batcher.wait_us", batcher_predict - direct, "us");
    report.metric("batcher.mean_batch", metrics.mean_batch_size(), "count");
    report.metric(
        "batcher.train_us",
        us(total(&all, |s| s.train), count(&all, |s| s.trains)),
        "us",
    );
    report.metric("model.partial_fit_us", us(fit, examples.len() as u64), "us");
    report.metric("wal.append_us", us(append, examples.len() as u64), "us");
    report.metric("wal.appends", metrics.wal_appends_total() as f64, "count");
    report.metric("loadgen.late_us.p99", Percentile::of(&high.late_us, 0.99).value, "us");
    report.metric("ledger.explained_share.serve", explained, "ratio");
    report.lines.push(jobj(&[
        ("trace", jstr("serve")),
        ("model_predict_us", jnum(direct)),
        ("requests", requests.to_string()),
    ]));
    Ok(())
}
