//! Regression test for per-session DOM-resolution statistics.
//!
//! The resolution-cache hit/miss counters used to live in process-wide
//! statics and were deltaed per synthesis call; with two shards
//! synthesizing concurrently the deltas raced and misattributed counts
//! across sessions. The counters are per-thread now, and a synthesis call
//! never leaves its thread, so each call's delta must be exact no matter
//! what other threads are doing — which is what this test pins: two
//! synthesizers hammered from two threads (the shape of a two-shard
//! service) must report, call for call, the same resolution stats as an
//! isolated sequential baseline, also when both resolve against one
//! shared page DOM.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use webrobot_data::Value;
use webrobot_dom::{parse_html, Dom};
use webrobot_lang::Action;
use webrobot_semantics::Trace;
use webrobot_synth::{SynthConfig, Synthesizer};

fn anchors(n: usize) -> Arc<Dom> {
    let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
    Arc::new(parse_html(&format!("<html>{body}</html>")).unwrap())
}

/// A scrape demonstration over `total` anchors, `demonstrated` of them
/// already performed. `stride` varies the selector shape per session so
/// the two sessions do different amounts of resolution work.
fn scrape_trace(demonstrated: usize, total: usize, stride: usize) -> Trace {
    scrape_trace_on(anchors(total), demonstrated, stride)
}

/// [`scrape_trace`] over a given page: every DOM in the trace is `dom`
/// itself, as when a session only reads the site's shared page.
fn scrape_trace_on(dom: Arc<Dom>, demonstrated: usize, stride: usize) -> Trace {
    let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
    for i in 0..demonstrated {
        let idx = 1 + i * stride;
        t.push(
            Action::ScrapeText(format!("/a[{idx}]").parse().unwrap()),
            dom.clone(),
        );
    }
    t
}

/// One session's workload: synthesize over a growing demonstration and
/// collect the per-call `(hits, misses)` deltas.
fn drive(stride: usize) -> Vec<(u64, u64)> {
    drive_trace(&scrape_trace(4, 16, stride))
}

/// [`drive`] over a given four-action demonstration.
fn drive_trace(full: &Trace) -> Vec<(u64, u64)> {
    let mut synth = Synthesizer::new(SynthConfig::default(), full.prefix(2));
    let mut stats = Vec::new();
    for k in 2..=4 {
        if k > 2 {
            synth.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
        }
        let r = synth.synthesize();
        stats.push((r.stats.resolve_hits, r.stats.resolve_misses));
    }
    stats
}

/// Like [`drive`], but sliced into quanta — the shape a quantum shard
/// runs — with the same exactness requirement on the summed deltas.
fn drive_quantum(stride: usize) -> Vec<(u64, u64)> {
    let full = scrape_trace(4, 16, stride);
    let mut synth = Synthesizer::new(SynthConfig::default(), full.prefix(2));
    let mut stats = Vec::new();
    for k in 2..=4 {
        if k > 2 {
            synth.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
        }
        let (mut hits, mut misses) = (0, 0);
        loop {
            let r = synth.synthesize_quantum(Duration::ZERO);
            hits += r.stats.resolve_hits;
            misses += r.stats.resolve_misses;
            if !r.stats.parked {
                break;
            }
        }
        stats.push((hits, misses));
    }
    stats
}

#[test]
fn concurrent_sessions_report_exact_resolve_stats() {
    // Sequential baselines, one session at a time: nothing else resolves
    // while these run, so the deltas are exact by construction.
    let baseline_a = drive(1);
    let baseline_b = drive(3);
    assert!(
        baseline_a.iter().any(|&(h, m)| h + m > 0),
        "synthesis exercises the resolution cache"
    );
    assert_ne!(
        baseline_a, baseline_b,
        "the two sessions do different resolution work"
    );

    // Two shards synthesizing concurrently, many rounds to give a racy
    // counter implementation every chance to misattribute.
    for _ in 0..8 {
        let a = thread::spawn(|| drive(1));
        let b = thread::spawn(|| drive(3));
        let got_a = a.join().unwrap();
        let got_b = b.join().unwrap();
        assert_eq!(
            got_a, baseline_a,
            "session A stats drifted under concurrency"
        );
        assert_eq!(
            got_b, baseline_b,
            "session B stats drifted under concurrency"
        );
    }
}

#[test]
fn quantum_slicing_reports_the_same_resolve_totals() {
    // Summed per-quantum deltas equal the unsliced call's delta: the
    // sliced search does the same resolutions, just in pieces.
    assert_eq!(drive_quantum(1), drive(1));
    assert_eq!(drive_quantum(3), drive(3));
}

/// Per-call resolution totals (`hits + misses`) of [`drive_trace`] over
/// a demonstration on `page`.
fn totals_on(page: &Arc<Dom>, stride: usize) -> Vec<u64> {
    drive_trace(&scrape_trace_on(page.clone(), 4, stride))
        .iter()
        .map(|&(hits, misses)| hits + misses)
        .collect()
}

#[test]
fn sessions_sharing_one_page_report_exact_resolution_totals() {
    // Per-DOM counters could not attribute this case: both sessions
    // resolve against one `Arc<Dom>`, so each would count the other's
    // resolutions. With the page's cache shared, the split between hits
    // and misses depends on which thread warmed the page first, but each
    // call still resolves exactly as often as it does alone.
    let baseline_a = totals_on(&anchors(16), 1);
    let baseline_b = totals_on(&anchors(16), 3);
    assert!(baseline_a.iter().any(|&n| n > 0));
    for _ in 0..8 {
        let page = anchors(16);
        let start = Arc::new(Barrier::new(2));
        let session = |stride: usize| {
            let (page, start) = (page.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                (0..16)
                    .map(|_| totals_on(&page, stride))
                    .collect::<Vec<_>>()
            })
        };
        let (a, b) = (session(1), session(3));
        for got in a.join().unwrap() {
            assert_eq!(got, baseline_a, "session A");
        }
        for got in b.join().unwrap() {
            assert_eq!(got, baseline_b, "session B");
        }
    }
}
