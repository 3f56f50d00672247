//! The repository's benchmark: the fuzzer's throughput (the paper's
//! headline, adversarial images per minute) and production-shaped
//! serving of the same model, checked for correctness, with a traced run
//! that splits both into their layers.
//!
//! A workload is one fuzz campaign strategy plus the serving traffic:
//!
//! * `rand` — campaigns with the sparse `rand` mutation (≈17 of 784
//!   pixels change per child, ≈85 candidates per input), where pixel
//!   encoding is ≈95% of a candidate;
//! * `gauss` — campaigns with the dense `gauss` mutation (≈154 pixels per
//!   child, ≈15 candidates per input), where mutation and the per-input
//!   reference predict weigh more.
//!
//! Both then run `serve_mixed`: `hdtest-cli serve` with its shipped
//! defaults, driven by an open loop over two keep-alive connections with
//! one request in ten a `/v1/train`, at 200 req/s (`low`), 2,000 req/s
//! (`high`) and a ladder of 1,000–4,000 req/s for `max_ok_rps`.
//!
//! The fuzz rates are gated scaled to a reference host speed, read by
//! the benchmark's own fixed kernel (`reference`) just before every timed
//! campaign, because the shared host's own speed drifts by more than any
//! bound; the raw rates are printed beside them.
//!
//! With `--trace 1` the same work runs through the benchmark's own
//! wrappers around each layer's public calls, and the per-layer metrics
//! replace the end-to-end ones.

pub mod fixture;
pub mod fuzz;
pub mod load;
pub mod reference;
pub mod report;
pub mod server;
pub mod serving;

use hdtest::mutation::Strategy;
use report::{jnum, jobj, jstr, median, Report};
use serving::ServePlan;
use std::error::Error;
use std::time::Instant;

/// The workloads: name and fuzz strategy.
pub const WORKLOADS: [(&str, Strategy); 2] = [("rand", Strategy::Rand), ("gauss", Strategy::Gauss)];

/// Sizes and lengths of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Training digits per class.
    pub train_per_class: usize,
    /// Test digits per class: the campaign inputs.
    pub test_per_class: usize,
    /// Seconds of back-to-back campaigns.
    pub fuzz_s: f64,
    /// Timed campaigns run at least, whatever the time, after the
    /// untimed warm-up one.
    pub min_campaigns: usize,
    /// Inputs of the traced `fuzz_one` pass.
    pub trace_inputs: usize,
    /// Fuzz set-ups and server starts, each, whose medians make
    /// `setup_s`.
    pub setup_repeats: usize,
    /// Distinct predict and train bodies the traffic cycles through.
    pub traffic_pool: usize,
    /// The serving phases.
    pub serve: ServePlan,
}

impl Plan {
    /// The measured plan for a run of `seconds`: 65% fuzzing, 12% for
    /// `low`, 11% for `high`, 3% for each ladder rate. At 55 s every
    /// serving phase holds over 1,100 predicts (and `high` over 1,200
    /// trains), so each of those p99s has ten samples beyond it.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            train_per_class: 200,
            test_per_class: 50,
            fuzz_s: 0.65 * seconds,
            min_campaigns: 3,
            trace_inputs: 200,
            setup_repeats: 5,
            traffic_pool: 256,
            serve: ServePlan {
                warm: 200,
                low_s: 0.12 * seconds,
                high_s: 0.11 * seconds,
                ladder_s: 0.03 * seconds,
            },
        }
    }

    /// A plan that exercises every path in a few seconds, for self-tests.
    pub fn tiny() -> Plan {
        Plan {
            train_per_class: 20,
            test_per_class: 3,
            fuzz_s: 0.0,
            min_campaigns: 2,
            trace_inputs: 30,
            setup_repeats: 1,
            traffic_pool: 16,
            serve: ServePlan { warm: 10, low_s: 0.3, high_s: 0.3, ladder_s: 0.1 },
        }
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .arg("--git-dir")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"))
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned())
}

/// Runs `workload` with inputs from `seed`: the end-to-end metrics, or
/// with `trace` the per-layer ones. The first report line is the config
/// header.
///
/// # Errors
///
/// An unknown workload, or a failure that stops the run (the server not
/// starting, the model rejecting an input). Failed checks do not stop
/// the run; they are counted in the report.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    plan: &Plan,
    trace: bool,
) -> Result<Report, Box<dyn Error>> {
    let (_, strategy) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    let repeats = if trace { 1 } else { plan.setup_repeats.max(1) };
    for _ in 0..repeats {
        drop(built.take());
        let started = Instant::now();
        built = Some(fixture::build(seed, plan.train_per_class, plan.test_per_class)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let fixture = built.expect("at least one set-up");
    // Zero workers: one per core, the campaign default.
    let config = fuzz::campaign_config(*strategy, seed, 0);
    let binary = server::cli_binary()?;
    let mut model_file = Vec::new();
    hdc::io::save_pixel_classifier(&fixture.model, &mut model_file)?;
    let traffic = load::Traffic::new(&fixture.test, &fixture.train, seed, plan.traffic_pool);

    let (serve_config, server_kernel) = if trace {
        let inputs = &fixture.test.images()[..plan.trace_inputs.min(fixture.test.len())];
        fuzz::trace(&fixture.model, inputs, *strategy, seed, &mut report)?;
        // Start the binary once for the settings it ships with, so the
        // in-process registry uses exactly those.
        let (server, _scratch) = serving::start_fresh(&binary, &model_file)?;
        let config = server.config.clone();
        drop(server);
        serving::trace(&model_file, &traffic, &config, plan.serve, &mut report)?;
        let shares = ["ledger.explained_share.fuzz", "ledger.explained_share.serve"];
        let least = shares.iter().filter_map(|n| report.value(n)).fold(f64::INFINITY, f64::min);
        report.metric("ledger.explained_share", least, "ratio");
        (config, None)
    } else {
        fuzz::run_campaigns(
            &fixture.model,
            fixture.test.images(),
            config,
            plan.fuzz_s,
            plan.min_campaigns,
            &mut report,
        )?;
        let served = serving::run(
            &binary,
            &model_file,
            &fixture.model,
            &traffic,
            plan.serve,
            repeats,
            &mut report,
        )?;
        report.metric("setup_s", median(&setups) + served.setup_s, "s");
        report.metric("ok_share", report.ok_share(), "ratio");
        (served.config, Some(served.kernel))
    };

    let s = plan.serve;
    let ladder: Vec<String> = serving::LADDER_RPS.iter().map(|r| jnum(*r)).collect();
    let (server_backend, server_features) = server_kernel.unwrap_or_default();
    let header = jobj(&[(
        "config",
        jobj(&[
            ("workload", jstr(workload)),
            ("seed", seed.to_string()),
            ("trace", trace.to_string()),
            ("run_seconds", jnum(seconds)),
            ("git_commit", jstr(&git_commit())),
            (
                "model",
                jobj(&[
                    ("kind", jstr("dense HdcClassifier<PixelEncoder>")),
                    ("dim", fixture::DIM.to_string()),
                    ("input", jstr(&format!("{0}x{0}", fixture::SIDE))),
                    ("levels", fixture::LEVELS.to_string()),
                    ("value_encoding", jstr("random")),
                    ("encoder_seed", fixture::ENCODER_SEED.to_string()),
                    ("train_per_class", plan.train_per_class.to_string()),
                    ("test_per_class", plan.test_per_class.to_string()),
                ]),
            ),
            (
                "fuzz",
                jobj(&[
                    ("strategy", jstr(strategy.name())),
                    ("l2_budget", jnum(fuzz::L2_BUDGET)),
                    ("workers", config.effective_workers().to_string()),
                    ("max_iterations", config.fuzz.max_iterations.to_string()),
                    ("batch_size", config.fuzz.batch_size.to_string()),
                    ("top_n", config.fuzz.top_n.to_string()),
                    ("guidance", jstr(&config.fuzz.guidance.to_string())),
                    ("seconds", jnum(plan.fuzz_s)),
                    ("min_campaigns", plan.min_campaigns.to_string()),
                    ("trace_inputs", plan.trace_inputs.to_string()),
                ]),
            ),
            (
                "serve",
                jobj(&[
                    ("reported", jstr(&serve_config.line)),
                    ("accept_pool", serve_config.accept_pool.to_string()),
                    ("max_batch", serve_config.max_batch.to_string()),
                    ("linger_us", serve_config.linger_us.to_string()),
                    ("max_queue", serve_config.max_queue.to_string()),
                    ("queue_deadline_ms", serve_config.queue_deadline_ms.to_string()),
                    ("predict_workers", serve_config.predict_workers.to_string()),
                    ("connections", load::CONNECTIONS.to_string()),
                    ("train_every", load::TRAIN_EVERY.to_string()),
                    ("warm_predicts", s.warm.to_string()),
                    ("low_rps", jnum(serving::LOW_RPS)),
                    ("low_s", jnum(s.low_s)),
                    ("high_rps", jnum(serving::HIGH_RPS)),
                    ("high_s", jnum(s.high_s)),
                    ("ladder_rps", format!("[{}]", ladder.join(", "))),
                    ("ladder_s", jnum(s.ladder_s)),
                ]),
            ),
            (
                "host",
                jobj(&[
                    ("nproc", hdc::batch::resolved_parallelism().to_string()),
                    ("kernel_backend", jstr(&hdc::kernel::backend::active().to_string())),
                    ("cpu_features", jstr(hdc::kernel::backend::cpu_features())),
                    ("server_kernel_backend", jstr(&server_backend)),
                    ("server_cpu_features", jstr(&server_features)),
                ]),
            ),
            ("repeats", jobj(&[("setup", repeats.to_string())])),
        ]),
    )]);
    report.lines.insert(0, header);
    Ok(report)
}
