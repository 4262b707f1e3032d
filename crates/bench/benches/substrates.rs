//! Criterion benches for the substrates the synthesizer leans on: trace
//! semantics execution (the reference `execute` and the `Stepper`),
//! selector resolution, alternative-selector enumeration, and ground-truth
//! recording.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use webrobot_benchmarks::benchmark;
use webrobot_dom::{alternatives, AltConfig};
use webrobot_semantics::{execute, Stepper};

/// Trace-semantics simulation of a ground truth over its own recording —
/// the inner operation of `Validate` (Alg. 3).
fn bench_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantics_execute");
    for id in [73u32, 12, 31, 59] {
        let b = benchmark(id).unwrap();
        let rec = b.record().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{id}")),
            &rec,
            |bench, r| {
                bench.iter(|| {
                    std::hint::black_box(
                        execute(b.ground_truth.statements(), r.trace.doms(), r.trace.input())
                            .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// The same recordings driven one DOM at a time through the `Stepper`, the
/// machine that validation, the incremental fast path, recording and live
/// replay run; the `semantics_execute` rows price the reference next to it.
fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantics_step");
    for id in [73u32, 12, 31, 59] {
        let b = benchmark(id).unwrap();
        let rec = b.record().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{id}")),
            &rec,
            |bench, r| {
                bench.iter(|| {
                    let mut stepper =
                        Stepper::new(b.ground_truth.statements(), r.trace.input().clone());
                    let mut actions = Vec::new();
                    for dom in r.trace.doms() {
                        match stepper.step(dom).unwrap() {
                            Some(action) => actions.push(action),
                            None => break,
                        }
                    }
                    std::hint::black_box(actions)
                });
            },
        );
    }
    group.finish();
}

/// Alternative-selector enumeration on a recorded action's node (the inner
/// operation of anti-unification and parametrization).
fn bench_alternatives(c: &mut Criterion) {
    let mut group = c.benchmark_group("alternative_selectors");
    for id in [12u32, 31] {
        let b = benchmark(id).unwrap();
        let rec = b.record().unwrap();
        let action = rec.trace.actions()[0].clone();
        let dom = rec.trace.doms()[0].clone();
        let path = action.selector().unwrap().clone();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{id}")),
            &dom,
            |bench, d| {
                let cfg = AltConfig::default();
                bench.iter(|| std::hint::black_box(alternatives(d, &path, &cfg)));
            },
        );
    }
    group.finish();
}

/// Cached vs uncached selector resolution over a recording's action
/// paths — the loop-guard hot path the per-DOM resolution cache targets.
/// The cached rows re-resolve against the same DOM snapshot (everything
/// after the first pass is a hit); the uncached rows walk the DOM every
/// time, which is what every resolution cost before the cache landed.
fn bench_path_resolution(c: &mut Criterion) {
    for cached in [true, false] {
        let mut group = c.benchmark_group(if cached {
            "path_resolve_cached"
        } else {
            "path_resolve_uncached"
        });
        for id in [12u32, 31] {
            let b = benchmark(id).unwrap();
            let rec = b.record().unwrap();
            let dom = rec.trace.doms()[0].clone();
            let paths: Vec<_> = rec
                .trace
                .actions()
                .iter()
                .filter_map(|a| a.selector().cloned())
                .collect();
            assert!(!paths.is_empty());
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("b{id}")),
                &dom,
                |bench, d| {
                    bench.iter(|| {
                        for path in &paths {
                            let hit = if cached {
                                path.resolve(d)
                            } else {
                                path.resolve_uncached(d)
                            };
                            std::hint::black_box(hit);
                        }
                    });
                },
            );
        }
        group.finish();
    }
}

/// End-to-end ground-truth recording (live execution + DOM snapshots).
fn bench_recording(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_demonstration");
    group.sample_size(20);
    for id in [73u32, 31, 59] {
        let b = benchmark(id).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{id}")),
            &b,
            |bench, b| {
                bench.iter(|| std::hint::black_box(b.record().unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_execute,
    bench_step,
    bench_alternatives,
    bench_path_resolution,
    bench_recording
);
criterion_main!(benches);
