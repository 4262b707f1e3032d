//! End-to-end checks of the benchmark binary on short runs: counts repeat
//! exactly at a seed, and a traced run's stages reconcile with what the
//! client observed.

use std::process::Command;

/// Runs the benchmark and returns its result line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value is followed by its unit");
    rest[..end].parse().expect("numeric value")
}

fn field(line: &str, name: &str) -> String {
    let key = format!("\"{name}\": ");
    let at = line.find(&key).expect("field present") + key.len();
    line[at..]
        .split(',')
        .next()
        .expect("field value")
        .to_string()
}

#[test]
fn a_seed_repeats_its_counts_exactly() {
    for workload in ["wire-light", "durable-churn"] {
        let a = run(workload, 11, true);
        let b = run(workload, 11, true);
        assert_eq!(field(&a, "correct"), "true", "{a}");
        for count in [
            "interact.demos_per_session",
            "synth.pops",
            "synth.pushes",
            "synth.validations",
            "browser.actions",
        ] {
            assert_eq!(value(&a, count), value(&b, count), "{workload}: {count}");
        }
        assert_eq!(field(&a, "attempted"), field(&b, "attempted"), "{workload}");
    }
}

#[test]
fn traced_stages_reconcile_with_the_client_mean() {
    // A traced run whose replay disagrees with the server (other event
    // counts, a slower `Session::handle` than the server's
    // `ShardedManager::handle`, a negative stage) prints
    // `"correct": false` and fails in `run`.
    for workload in ["wire-light", "durable-churn"] {
        let line = run(workload, 5, true);
        assert_eq!(field(&line, "correct"), "true", "{line}");
        let client = value(&line, "trace.client_us");
        let unaccounted = value(&line, "trace.unaccounted_us");
        assert!(client > 0.0, "{line}");
        // Tolerance: RECONCILE_TOLERANCE in src/main.rs.
        assert!(
            unaccounted.abs() <= 0.1 * client,
            "{workload}: the frame loop leaves {unaccounted} of {client} us unaccounted"
        );
        for stage in [
            "self.server_us",
            "self.data_us",
            "self.service_us",
            "self.store_us",
            "self.interact_us",
            "self.synth_us",
            "self.browser_us",
        ] {
            assert!(value(&line, stage) >= 0.0, "{workload}: {stage} in {line}");
        }
    }
}

#[test]
fn end_to_end_run_prints_every_metric_with_its_unit() {
    let line = run("wire-light", 2, false);
    assert_eq!(field(&line, "correct"), "true", "{line}");
    assert_eq!(field(&line, "failed"), "0");
    for (name, unit) in [
        ("setup_s", "s"),
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("predict_p50_ms", "ms"),
        ("predict_p99_ms", "ms"),
        ("automate_p50_ms", "ms"),
        ("automate_p99_ms", "ms"),
        ("throughput_rps", "1/s"),
        ("sessions_per_s", "1/s"),
        ("ok_share", "share"),
        ("solved_share", "share"),
        ("demos_per_session", "count"),
        ("peak_rss_mb", "MiB"),
    ] {
        assert!(value(&line, name) > 0.0, "{name} in {line}");
        assert!(
            line.contains(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                {
                    let v = value(&line, name);
                    format!("{v:?}")
                }
            )),
            "{name} lacks unit {unit}"
        );
    }
}
