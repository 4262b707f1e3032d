//! The in-process half of the traced run: each session's accepted events
//! are replayed through the public layer entry points — `Session::handle`
//! and `Session::restore` (interact), `Browser::perform` (browser), and
//! `Synthesizer::observe`/`synthesize`, one call per executed action as
//! `Session` makes them (synth) — with a span around each call.

use std::time::{Duration, Instant};

use webrobot_browser::Browser;
use webrobot_interact::{Session, SessionConfig};
use webrobot_semantics::Trace;
use webrobot_synth::{SynthConfig, Synthesizer};

use crate::stats::Tally;
use crate::workload::SessionRun;

/// Summed spans and counts over every replayed session.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Session::handle` by event type.
    pub handle: Tally,
    pub restore: (u64, Duration),
    pub perform: (u64, Duration),
    pub synth_calls: u64,
    pub synth_time: Duration,
    /// Search counters over the calls that concluded before the deadline
    /// (a timed-out call's counts depend on the machine's speed).
    pub pops: u64,
    pub pushes: u64,
    pub validations: u64,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
    pub fast_path: u64,
    pub timed_out: u64,
}

impl Layers {
    fn merge(&mut self, other: Layers) {
        self.handle.merge(&other.handle);
        self.restore.0 += other.restore.0;
        self.restore.1 += other.restore.1;
        self.perform.0 += other.perform.0;
        self.perform.1 += other.perform.1;
        self.synth_calls += other.synth_calls;
        self.synth_time += other.synth_time;
        self.pops += other.pops;
        self.pushes += other.pushes;
        self.validations += other.validations;
        self.resolve_hits += other.resolve_hits;
        self.resolve_misses += other.resolve_misses;
        self.fast_path += other.fast_path;
        self.timed_out += other.timed_out;
    }
}

/// Replays one session. Only events and actions past the session's
/// baseline (those it sent to the measured server) are timed; earlier
/// ones rebuild its state.
fn replay_one(run: &SessionRun) -> Layers {
    let mut layers = Layers::default();
    let plan = &run.plan;
    let cfg = SessionConfig::default();
    let mut session = Session::new(plan.site_ref.clone(), plan.input.clone(), cfg.clone());
    for (i, event) in run.events.iter().enumerate() {
        let t = Instant::now();
        let _ = session.handle(event.clone());
        if i >= run.baseline.0 {
            layers.handle.add(event.name(), 1, t.elapsed());
        }
    }
    if !session.executed().is_empty() {
        let snap = session.snapshot();
        let t = Instant::now();
        let restored = Session::restore(&snap);
        layers.restore = (1, t.elapsed());
        drop(restored);
    }

    let executed = session.executed().to_vec();
    let mut browser = Browser::new(plan.site_ref.clone(), plan.input.clone());
    let mut synth = Synthesizer::new(
        SynthConfig::default(),
        Trace::new(browser.snapshot(), plan.input.clone()),
    );
    for (i, action) in executed.into_iter().enumerate() {
        let timed = i >= run.baseline.1;
        let t = Instant::now();
        let _ = browser.perform(&action);
        let dom = browser.snapshot();
        if timed {
            layers.perform.0 += 1;
            layers.perform.1 += t.elapsed();
        }
        let t = Instant::now();
        synth.observe(action, dom);
        let result = synth.synthesize();
        if !timed {
            continue;
        }
        layers.synth_calls += 1;
        layers.synth_time += t.elapsed();
        let s = result.stats;
        layers.fast_path += u64::from(s.fast_path);
        if s.timed_out {
            layers.timed_out += 1;
        } else {
            layers.pops += s.pops as u64;
            layers.pushes += s.pushes as u64;
            layers.validations += s.validations as u64;
            layers.resolve_hits += s.resolve_hits;
            layers.resolve_misses += s.resolve_misses;
        }
    }
    layers
}

/// Replays every session on `threads` threads.
pub fn replay(runs: &[SessionRun], threads: usize) -> Layers {
    let threads = threads.max(1);
    let mut total = Layers::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut part = Layers::default();
                    for run in runs.iter().skip(k).step_by(threads) {
                        part.merge(replay_one(run));
                    }
                    part
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("replay thread panicked"));
        }
    });
    total
}
