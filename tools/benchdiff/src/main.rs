//! `benchdiff` — the CI perf regression gate.
//!
//! Diffs a freshly emitted `BENCH_<bench>.json` (written by the vendored
//! Criterion stub on every `cargo bench` run) against the committed
//! baseline at the repo root, benchmark id by benchmark id:
//!
//! ```text
//! benchdiff <baseline.json> <fresh.json> [--max-ratio N] [--field NAME]
//! ```
//!
//! - **Hard failure** (exit 1): a pinned id — any id present in the
//!   baseline — is missing from the fresh run, or its fresh `mean_ns`
//!   regressed by more than `--max-ratio` (default 3×). The generous
//!   default exists because CI runs the stub harness with a tiny sample
//!   budget on shared runners: it catches order-of-magnitude rot, not
//!   ±15 % noise (see BENCH_NOTES.md on reading these numbers).
//! - **Advisory otherwise** (exit 0): the full table is printed either
//!   way — per-id baseline/fresh means, the ratio, and ids that are new
//!   in the fresh run (not gated; commit the refreshed baseline to pin
//!   them). Improvements beyond `--max-ratio` are also called out as
//!   *stale baseline*: they don't fail the gate, but an out-of-date
//!   committed number would hide a later regression of the same size,
//!   so the advisory asks for a `BENCH_*.json` refresh.
//! - `--field NAME` gates a different per-id metric than the default
//!   `mean_ns` — CI runs a second pass with `--field p99_ns` over the
//!   `service_latency` rows, because the quantum scheduler's promise is
//!   about tail latency, which a mean can hide.
//!
//! A second mode compares two ids *within one snapshot* — machine-speed-
//! independent, so it gates a structural property (e.g. "skewed p99 stays
//! within N× of uniform p99") on any runner:
//!
//! ```text
//! benchdiff --compare-ids <snapshot.json> <baseline-id> <subject-id> \
//!           [--max-ratio N] [--field NAME]
//! ```
//!
//! The JSON is parsed with `webrobot_data::parse_json` — the snapshots
//! are integer-only by construction, so the gate needs no dependency the
//! workspace doesn't already have.

use std::process::ExitCode;

use webrobot_data::{parse_json, Value};

/// Verdict for one benchmark id.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    /// Within the allowed ratio (or faster).
    Ok,
    /// Fresh mean exceeds baseline mean by more than the ratio cap.
    Regressed,
    /// Fresh mean *beats* the baseline by more than the ratio cap: the
    /// committed baseline no longer describes the code. Advisory (exit
    /// 0) — but refresh `BENCH_*.json`, or the stale number will mask
    /// the next real regression of the same magnitude.
    StaleBaseline,
    /// Pinned in the baseline, absent from the fresh run.
    Missing,
    /// Present only in the fresh run (not gated).
    New,
}

#[derive(Debug)]
struct RowDiff {
    id: String,
    baseline_ns: Option<i64>,
    fresh_ns: Option<i64>,
    verdict: Verdict,
}

impl RowDiff {
    fn ratio(&self) -> Option<f64> {
        match (self.baseline_ns, self.fresh_ns) {
            (Some(b), Some(f)) if b > 0 => Some(f as f64 / b as f64),
            _ => None,
        }
    }
}

/// Extracts `id → <field>` (e.g. `mean_ns`, `p99_ns`) from one
/// `BENCH_*.json` document.
fn field_by_id(doc: &Value, field: &str) -> Result<Vec<(String, i64)>, String> {
    let Value::Object(fields) = doc else {
        return Err("top level must be an object of benchmark ids".to_string());
    };
    fields
        .iter()
        .map(|(id, row)| {
            row.field(field)
                .and_then(Value::as_int)
                .map(|ns| (id.clone(), ns))
                .ok_or_else(|| format!("benchmark '{id}' has no integer '{field}'"))
        })
        .collect()
}

/// Diffs fresh means against the baseline. Baseline order first (every
/// pinned id gets a row, missing or not), then fresh-only ids.
fn diff(baseline: &[(String, i64)], fresh: &[(String, i64)], max_ratio: f64) -> Vec<RowDiff> {
    let fresh_of = |id: &str| fresh.iter().find(|(f, _)| f == id).map(|&(_, ns)| ns);
    let mut rows: Vec<RowDiff> = baseline
        .iter()
        .map(|(id, base_ns)| {
            let fresh_ns = fresh_of(id);
            let verdict = match fresh_ns {
                None => Verdict::Missing,
                Some(f) if (f as f64) > *base_ns as f64 * max_ratio => Verdict::Regressed,
                Some(f) if (f as f64) * max_ratio < *base_ns as f64 => Verdict::StaleBaseline,
                Some(_) => Verdict::Ok,
            };
            RowDiff {
                id: id.clone(),
                baseline_ns: Some(*base_ns),
                fresh_ns,
                verdict,
            }
        })
        .collect();
    for (id, ns) in fresh {
        if !baseline.iter().any(|(b, _)| b == id) {
            rows.push(RowDiff {
                id: id.clone(),
                baseline_ns: None,
                fresh_ns: Some(*ns),
                verdict: Verdict::New,
            });
        }
    }
    rows
}

fn print_table(rows: &[RowDiff], max_ratio: f64) {
    println!(
        "{:<44} {:>14} {:>14} {:>8}  verdict",
        "benchmark", "baseline(ns)", "fresh(ns)", "ratio"
    );
    for row in rows {
        let fmt_ns = |ns: Option<i64>| ns.map_or("—".to_string(), |n| n.to_string());
        let ratio = row.ratio().map_or("—".to_string(), |r| format!("{r:.2}×"));
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::StaleBaseline => "stale baseline",
            Verdict::Missing => "MISSING",
            Verdict::New => "new (unpinned)",
        };
        println!(
            "{:<44} {:>14} {:>14} {:>8}  {verdict}",
            row.id,
            fmt_ns(row.baseline_ns),
            fmt_ns(row.fresh_ns),
            ratio,
        );
    }
    let failures = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
        .count();
    let stale = rows
        .iter()
        .filter(|r| r.verdict == Verdict::StaleBaseline)
        .count();
    if stale > 0 {
        println!(
            "\nADVISORY: {stale} benchmark(s) improved beyond {max_ratio}× — \
             stale baseline, refresh BENCH_*.json so the gate keeps teeth."
        );
    }
    if failures > 0 {
        println!(
            "\nFAIL: {failures} pinned benchmark(s) regressed beyond {max_ratio}× or went missing."
        );
    } else {
        println!("\nOK: every pinned benchmark is within {max_ratio}× of its baseline.");
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    const USAGE: &str = "usage: benchdiff <baseline.json> <fresh.json> \
                         [--max-ratio N] [--field NAME]\n\
                         \u{20}      benchdiff --compare-ids <snapshot.json> \
                         <baseline-id> <subject-id> [--max-ratio N] [--field NAME]";
    // One pass so `--max-ratio`'s value is consumed as the flag's
    // argument, never mistaken for a third positional path.
    let mut positional: Vec<&String> = Vec::new();
    let mut max_ratio = 3.0;
    let mut field = "mean_ns".to_string();
    let mut compare_ids = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--compare-ids" {
            compare_ids = true;
        } else if arg == "--max-ratio" {
            max_ratio = iter
                .next()
                .and_then(|n| n.parse::<f64>().ok())
                .filter(|&r| r >= 1.0)
                .ok_or("--max-ratio takes a number ≥ 1")?;
        } else if arg == "--field" {
            field = iter
                .next()
                .filter(|name| !name.starts_with("--"))
                .ok_or("--field takes a metric name, e.g. p99_ns")?
                .clone();
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag '{arg}'\n{USAGE}"));
        } else {
            positional.push(arg);
        }
    }
    let load = |path: &str| -> Result<Vec<(String, i64)>, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = parse_json(&body).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        field_by_id(&doc, &field).map_err(|e| format!("{path}: {e}"))
    };
    if compare_ids {
        let [path, baseline_id, subject_id] = positional.as_slice() else {
            return Err(USAGE.to_string());
        };
        let table = load(path)?;
        let value_of = |id: &str| -> Result<i64, String> {
            table
                .iter()
                .find(|(row, _)| row == id)
                .map(|&(_, ns)| ns)
                .ok_or_else(|| format!("{path}: no benchmark '{id}'"))
        };
        let baseline = value_of(baseline_id)?;
        let subject = value_of(subject_id)?;
        if baseline <= 0 {
            return Err(format!(
                "'{baseline_id}' has non-positive {field} {baseline}"
            ));
        }
        let ratio = subject as f64 / baseline as f64;
        let ok = ratio <= max_ratio;
        println!(
            "benchdiff [{field}]: {subject_id} = {subject} vs {baseline_id} = {baseline} \
             → {ratio:.2}× (cap {max_ratio}×): {}",
            if ok { "OK" } else { "FAIL" }
        );
        return Ok(ok);
    }
    let [baseline_path, fresh_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no pinned benchmarks"));
    }
    let rows = diff(&baseline, &fresh, max_ratio);
    println!("benchdiff [{field}]: {baseline_path} (baseline) vs {fresh_path} (fresh)\n");
    print_table(&rows, max_ratio);
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, Verdict::Regressed | Verdict::Missing)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchdiff: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(base: &[(&str, i64)], fresh: &[(&str, i64)], max_ratio: f64) -> Vec<RowDiff> {
        let own = |v: &[(&str, i64)]| -> Vec<(String, i64)> {
            v.iter().map(|&(id, ns)| (id.to_string(), ns)).collect()
        };
        diff(&own(base), &own(fresh), max_ratio)
    }

    #[test]
    fn within_ratio_is_ok_beyond_is_regressed() {
        let out = rows(&[("g/a", 100)], &[("g/a", 299)], 3.0);
        assert_eq!(out[0].verdict, Verdict::Ok);
        let out = rows(&[("g/a", 100)], &[("g/a", 301)], 3.0);
        assert_eq!(out[0].verdict, Verdict::Regressed);
        // Moderate speedups are plain ok.
        let out = rows(&[("g/a", 100)], &[("g/a", 40)], 3.0);
        assert_eq!(out[0].verdict, Verdict::Ok);
    }

    #[test]
    fn large_improvements_flag_a_stale_baseline_without_failing() {
        // >3× faster than the pin: advisory verdict, not a failure.
        let out = rows(&[("g/a", 100)], &[("g/a", 1)], 3.0);
        assert_eq!(out[0].verdict, Verdict::StaleBaseline);
        // Exactly at the boundary (ratio == cap) stays ok on both sides.
        let out = rows(&[("g/a", 300)], &[("g/a", 100)], 3.0);
        assert_eq!(out[0].verdict, Verdict::Ok);
        let out = rows(&[("g/a", 301)], &[("g/a", 100)], 3.0);
        assert_eq!(out[0].verdict, Verdict::StaleBaseline);
        // And it must not flip the process exit: run() reports success.
        let dir = std::env::temp_dir().join(format!("benchdiff-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, r#"{"g/a": {"mean_ns": 10000}}"#).unwrap();
        std::fs::write(&fresh, r#"{"g/a": {"mean_ns": 10}}"#).unwrap();
        let args: Vec<String> = vec![
            base.to_string_lossy().into_owned(),
            fresh.to_string_lossy().into_owned(),
        ];
        assert_eq!(run(&args), Ok(true), "stale baseline is advisory");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_pinned_id_fails_and_new_id_is_advisory() {
        let out = rows(
            &[("g/a", 100), ("g/b", 100)],
            &[("g/a", 100), ("g/c", 5)],
            3.0,
        );
        assert_eq!(out[0].verdict, Verdict::Ok);
        assert_eq!(out[1].verdict, Verdict::Missing);
        assert_eq!(out[2].id, "g/c");
        assert_eq!(out[2].verdict, Verdict::New);
    }

    #[test]
    fn parses_snapshot_shape() {
        let doc = parse_json(
            r#"{"service_wire/interleaved_s8": {"mean_ns": 1131183, "min_ns": 981115, "p99_ns": 1500000, "samples": 20, "elements_per_sec": 7072}}"#,
        )
        .unwrap();
        assert_eq!(
            field_by_id(&doc, "mean_ns").unwrap(),
            vec![("service_wire/interleaved_s8".to_string(), 1_131_183)]
        );
        assert_eq!(
            field_by_id(&doc, "p99_ns").unwrap(),
            vec![("service_wire/interleaved_s8".to_string(), 1_500_000)]
        );
        assert!(field_by_id(&parse_json(r#"{"x": {"min_ns": 3}}"#).unwrap(), "mean_ns").is_err());
    }

    #[test]
    fn compare_ids_gates_a_within_snapshot_ratio() {
        let dir = std::env::temp_dir().join(format!("benchdiff-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.json");
        std::fs::write(
            &snap,
            r#"{
  "lat/uniform": {"mean_ns": 30000, "p99_ns": 100000},
  "lat/skewed": {"mean_ns": 60000, "p99_ns": 250000}
}"#,
        )
        .unwrap();
        let base: Vec<String> = vec![
            "--compare-ids".to_string(),
            snap.to_string_lossy().into_owned(),
            "lat/uniform".to_string(),
            "lat/skewed".to_string(),
        ];
        // p99 ratio 2.5× passes the default 3× cap; mean ratio 2× too.
        let p99: Vec<String> = base
            .iter()
            .cloned()
            .chain(["--field".to_string(), "p99_ns".to_string()])
            .collect();
        assert_eq!(run(&p99), Ok(true));
        assert_eq!(run(&base), Ok(true));
        // A 2× cap catches the 2.5× p99 ratio.
        let tight: Vec<String> = p99
            .iter()
            .cloned()
            .chain(["--max-ratio".to_string(), "2".to_string()])
            .collect();
        assert_eq!(run(&tight), Ok(false));
        // Unknown ids and missing positionals are errors, not verdicts.
        let unknown: Vec<String> = base[..3]
            .iter()
            .cloned()
            .chain(["nope".to_string()])
            .collect();
        assert!(run(&unknown).is_err());
        assert!(run(&base[..3]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn field_flag_selects_the_gated_metric() {
        let dir = std::env::temp_dir().join(format!("benchdiff-field-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        // Means agree; the fresh p99 blew past the cap. Only the
        // `--field p99_ns` pass may fail.
        std::fs::write(&base, r#"{"g/a": {"mean_ns": 100, "p99_ns": 200}}"#).unwrap();
        std::fs::write(&fresh, r#"{"g/a": {"mean_ns": 110, "p99_ns": 900}}"#).unwrap();
        let paths: Vec<String> = vec![
            base.to_string_lossy().into_owned(),
            fresh.to_string_lossy().into_owned(),
        ];
        assert_eq!(run(&paths), Ok(true), "mean gate passes");
        let p99: Vec<String> = ["--field".to_string(), "p99_ns".to_string()]
            .into_iter()
            .chain(paths.clone())
            .collect();
        assert_eq!(run(&p99), Ok(false), "p99 gate catches the tail blowup");
        let missing: Vec<String> = ["--field".to_string(), "--max-ratio".to_string()]
            .into_iter()
            .chain(paths)
            .collect();
        assert!(run(&missing).is_err(), "--field needs a metric name");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_against_real_files() {
        let dir = std::env::temp_dir().join(format!("benchdiff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(
            &base,
            r#"{"g/a": {"mean_ns": 100, "min_ns": 90, "samples": 5}}"#,
        )
        .unwrap();
        std::fs::write(
            &fresh,
            r#"{"g/a": {"mean_ns": 120, "min_ns": 100, "samples": 5}}"#,
        )
        .unwrap();
        let args: Vec<String> = vec![
            base.to_string_lossy().into_owned(),
            fresh.to_string_lossy().into_owned(),
        ];
        assert_eq!(run(&args), Ok(true));
        // --max-ratio's value is the flag's argument, not a positional:
        // the flag both parses and changes the verdict (120/100 > 1.1).
        let tight: Vec<String> = ["--max-ratio".to_string(), "1.1".to_string()]
            .into_iter()
            .chain(args.clone())
            .collect();
        assert_eq!(run(&tight), Ok(false), "1.2× regression under a 1.1× cap");
        std::fs::write(
            &fresh,
            r#"{"g/b": {"mean_ns": 1, "min_ns": 1, "samples": 1}}"#,
        )
        .unwrap();
        assert_eq!(run(&args), Ok(false), "missing pinned id must gate");
        let strict: Vec<String> = ["--max-ratio".to_string(), "0.5".to_string()]
            .into_iter()
            .chain(args.clone())
            .collect();
        assert!(run(&strict).is_err(), "ratios below 1 are rejected");
        let unknown: Vec<String> = ["--frobnicate".to_string()]
            .into_iter()
            .chain(args.clone())
            .collect();
        assert!(run(&unknown).is_err(), "unknown flags are rejected");
        std::fs::remove_dir_all(&dir).ok();
    }
}
