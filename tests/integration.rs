//! Cross-crate integration tests: record on the simulated browser,
//! synthesize with the engine, validate with the trace semantics, replay
//! live, and compare against the e-graph baseline.

use webrobot::{execute, record_demonstration, satisfies, RecordLimits, SynthConfig, Synthesizer};
use webrobot_bench::{evaluate_benchmark, is_intended};
use webrobot_benchmarks::{
    benchmark, generated, perturb_site, suite, Family, GenFamily, PerturbConfig,
};
use webrobot_egraph::BaselineSynthesizer;

/// One representative benchmark per family synthesizes an intended program
/// under the §7.1 protocol.
#[test]
fn representative_benchmarks_synthesize_intended_programs() {
    // (id, family) pairs covering every intended family.
    let picks = [
        (73, Family::PlainList),
        (8, Family::StyledList),
        (13, Family::Sections),
        (14, Family::PaginatedList),
        (29, Family::MasterDetail),
        (43, Family::SearchScrape),
        (63, Family::FormGenerator),
        (4, Family::InlineForm),
    ];
    for (id, family) in picks {
        let b = benchmark(id).unwrap();
        assert_eq!(b.family, family, "suite layout changed for b{id}");
        let eval = evaluate_benchmark(&b, SynthConfig::default());
        assert!(
            eval.intended,
            "b{id} ({family:?}) final program not intended: {:?}",
            eval.final_program.map(|p| p.to_string())
        );
        assert!(
            eval.accuracy() > 0.5,
            "b{id} accuracy {:.2} too low",
            eval.accuracy()
        );
    }
}

/// The designed-to-fail benchmarks never yield an intended program, but
/// the engine still predicts part of the trace (the paper's b9 behaviour).
#[test]
fn designed_failures_fail_as_designed() {
    for id in [1, 9] {
        let b = benchmark(id).unwrap();
        assert!(!b.expect_intended);
        let eval = evaluate_benchmark(&b, SynthConfig::default());
        assert!(!eval.intended, "b{id} should not be automatable");
    }
}

/// Live recording agrees with the reference trace semantics beyond the
/// pristine suite: every suite benchmark and the generated families, on
/// their own and on perturbed sites, at the paper's 500-action cap and at
/// a cap of 7. Every recording that succeeds is satisfied by its ground
/// truth (Def. 4.1), and `execute` over the recorded DOMs performs one more
/// action exactly when the live run stopped at the cap.
#[test]
fn live_recordings_agree_with_the_reference_semantics() {
    let mut benches: Vec<_> = suite()
        .into_iter()
        .map(|b| (format!("b{}", b.id), b))
        .collect();
    for seed in [1, 7, 23, 42] {
        for family in GenFamily::ALL {
            benches.push((format!("{}@{seed}", family.key()), generated(family, seed)));
        }
    }
    let (mut checked, mut truncated, mut failed) = (0, 0, 0);
    for (name, b) in &benches {
        let gt = b.ground_truth.statements();
        let mut sites = vec![("own".to_string(), b.site.clone())];
        for ops in [3, 10, 40, 200] {
            let cfg = PerturbConfig { ops_per_page: ops };
            sites.push((format!("ops={ops}"), perturb_site(&b.site, ops as u64, cfg)));
        }
        for (site_label, site) in &sites {
            for cap in [500, 7] {
                let label = format!("{name} {site_label} cap={cap}");
                let limits = RecordLimits { max_actions: cap };
                let Ok(rec) = record_demonstration(site.clone(), b.input.clone(), gt, limits)
                else {
                    failed += 1;
                    continue;
                };
                let n = rec.trace.len();
                assert!(satisfies(gt, &rec.trace), "{label}: unsatisfied recording");
                let reference = execute(gt, rec.trace.doms(), rec.trace.input()).unwrap();
                assert_eq!(
                    rec.truncated,
                    reference.actions.len() > n,
                    "{label}: live truncation disagrees with execute"
                );
                if !rec.truncated {
                    assert!(!reference.exhausted, "{label}: finished run exhausted");
                }
                checked += 1;
                truncated += usize::from(rec.truncated);
            }
        }
    }
    assert!(
        truncated > 0 && checked > truncated && failed > 0,
        "grid lost coverage: {checked} checked, {truncated} truncated, {failed} failed"
    );
}

/// WebRobot and the baseline agree on a Q4 benchmark WebRobot-style: both
/// find the intended loop, WebRobot from a shorter prefix or equal.
#[test]
fn baseline_and_webrobot_agree_on_plain_lists() {
    let b = benchmark(73).unwrap();
    let recording = b.record().unwrap();
    let trace = &recording.trace;

    // Baseline needs two full iterations (trace length 2 for 1-stmt body).
    let baseline = BaselineSynthesizer::default();
    let outcome = baseline.synthesize(&trace.prefix(2));
    let bp = outcome.program.expect("baseline solves b73 at length 2");
    assert!(is_intended(&bp, &b, &recording));

    // WebRobot solves it at the same prefix.
    let mut synth = Synthesizer::new(SynthConfig::default(), trace.prefix(2));
    let result = synth.synthesize();
    let wp = &result
        .programs
        .first()
        .expect("webrobot solves b73")
        .program;
    assert!(is_intended(wp, &b, &recording));
}

/// On a nested benchmark the baseline needs strictly more of the trace
/// than WebRobot's speculate-and-validate (the Table 2 shape).
#[test]
fn webrobot_generalizes_nested_loops_from_shorter_prefixes() {
    let b = benchmark(12).unwrap();
    let recording = b.record().unwrap();
    let trace = &recording.trace;
    let baseline = BaselineSynthesizer::default();

    let mut webrobot_len = None;
    let mut synth = Synthesizer::new(SynthConfig::default(), trace.prefix(0));
    for len in 1..=trace.len() {
        synth.observe(trace.actions()[len - 1].clone(), trace.doms()[len].clone());
        let result = synth.synthesize();
        if result
            .programs
            .iter()
            .any(|rp| is_intended(&rp.program, &b, &recording))
        {
            webrobot_len = Some(len);
            break;
        }
    }
    let mut baseline_len = None;
    for len in 1..=trace.len() {
        let outcome = baseline.synthesize(&trace.prefix(len));
        if outcome
            .program
            .is_some_and(|p| is_intended(&p, &b, &recording))
        {
            baseline_len = Some(len);
            break;
        }
    }
    let w = webrobot_len.expect("webrobot solves b12");
    let base = baseline_len.expect("baseline solves b12");
    assert!(
        w <= base,
        "webrobot needed {w} actions, baseline {base}: speculation must not lose"
    );
}

/// The interaction model completes a task end to end through the facade
/// re-exports.
#[test]
fn facade_session_completes_a_task() {
    use webrobot_interact::{drive_session, SessionConfig, UserModel};
    let b = benchmark(10).unwrap();
    let rec = b.record().unwrap();
    let report = drive_session(
        b.site.clone(),
        b.input.clone(),
        &rec.trace,
        SessionConfig::default(),
        &UserModel::default(),
        2,
    );
    assert!(report.solved, "{report:?}");
    assert!(report.automated > 0);
}
