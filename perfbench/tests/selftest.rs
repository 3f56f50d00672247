//! The benchmark's self-test: every workload at a tiny size, end to end
//! and traced, against the metric list `BENCHMARK.json` declares.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use hdc_serve::json::{self, Json};
use hdtest::Campaign;
use hdtest_perfbench::{fixture, fuzz, run, Plan, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, section: &str, field: &str) -> Vec<String> {
    let entries =
        doc.get(section).and_then(Json::as_array).unwrap_or_else(|| panic!("no '{section}' list"));
    entries
        .iter()
        .map(|entry| entry.get(field).and_then(Json::as_str).expect("string field").to_owned())
        .collect()
}

#[test]
fn tiny_runs_emit_every_declared_metric_and_explain_their_time() {
    let doc = benchmark_json();
    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(declared(&doc, "workloads", "name"), names);
    for workload in names {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(workload, 3, 1.0, &Plan::tiny(), trace).expect("tiny run completes");
            assert!(
                report.correct(),
                "{workload} trace={trace} failed checks: {:?}",
                report.failures
            );
            let mut want: Vec<(String, String)> = declared(&doc, section, "name")
                .into_iter()
                .zip(declared(&doc, section, "unit"))
                .collect();
            let mut got: Vec<(String, String)> = report
                .metrics()
                .iter()
                .map(|(name, _, unit)| (name.clone(), (*unit).to_owned()))
                .collect();
            want.sort();
            got.sort();
            assert_eq!(
                got, want,
                "{workload} trace={trace}: emitted metrics differ from {section}"
            );
            if trace {
                let share = report.value("ledger.explained_share").expect("ledger share");
                assert!(
                    share >= 0.9,
                    "{workload}: the traced layers explain only {share:.3} of the time"
                );
            }
        }
    }
}

#[test]
fn campaign_records_do_not_depend_on_the_worker_count() {
    let fixture = fixture::build(3, 20, 3).expect("fixture");
    for (_, strategy) in WORKLOADS {
        let digest = |workers| {
            let report = Campaign::new(&fixture.model, fuzz::campaign_config(strategy, 3, workers))
                .run(fixture.test.images())
                .expect("campaign runs");
            fuzz::record_digest(&report.records)
        };
        assert_eq!(digest(1), digest(2), "{strategy} campaign differs between 1 and 2 workers");
    }
}
