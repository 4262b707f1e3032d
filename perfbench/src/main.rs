//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload interactive|durable-churn|wire-light --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Starts a server child (this binary, `serve` subcommand), drives it over
//! framed TCP from this one process with `nproc` connections, checks every
//! output against the ground truth, and prints one JSON result line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from a
//! traced run with `--trace 1`. Each run has an open phase (requests on a
//! fixed-rate schedule, each timed from when it was due) lasting a quarter
//! of `--seconds`, then a closed phase that runs the rest of the workload's
//! fixed session list back to back. Exits non-zero on any mismatch.
//! `perfbench/METRICS.md` documents every workload and metric.

mod load;
mod replay;
mod serve;
mod stats;
mod workload;

use std::collections::VecDeque;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};

use load::{ConnOutcome, Script, Wire, REQUEST_TIMEOUT};
use replay::Layers;
use stats::{median, percentile, result_line, Metric, Schedule};
use workload::{Class, Plan, SessionRun, Workload, CONNS};

const USAGE: &str = "usage: perfbench --workload interactive|durable-churn|wire-light \
                     --seed N --seconds S --trace 0|1";

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Events each durable-churn session runs in its first life.
const FIRST_LIFE_EVENTS: usize = 1;

/// A run whose load generator sent more than this share of its ticks late is
/// invalid: the figures would describe the load generator, not the server.
const MAX_LATE_SHARE: f64 = 0.2;

/// How far the traced run's separately measured stages may disagree, as a
/// share (see [`reconcile`]).
const RECONCILE_TOLERANCE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.unwrap_or(false),
    })
}

fn parse_serve(args: &[String]) -> Result<serve::ServeOpts, String> {
    let mut opts = serve::ServeOpts {
        workload: Workload::Interactive,
        seed: 0,
        seconds: 1.0,
        store: None,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => opts.traced = true,
            "--workload" | "--seed" | "--seconds" | "--store" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => {
                        opts.workload = Workload::parse(value).ok_or("unknown workload")?
                    }
                    "--seed" => opts.seed = value.parse().map_err(|_| "--seed needs a u64")?,
                    "--seconds" => {
                        opts.seconds = value.parse().map_err(|_| "--seconds needs a number")?
                    }
                    _ => opts.store = Some(PathBuf::from(value)),
                }
            }
            other => return Err(format!("serve: unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match parse_serve(&args[1..]).and_then(|opts| serve::serve(&opts)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("perfbench: {problem}");
            }
            let correct = report.problems.is_empty();
            println!(
                "{}",
                result_line(correct, report.attempted, report.failed, &report.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A server child process. Dropping it kills it.
struct Child {
    proc: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Child {
    fn spawn(run: &Args, store: Option<&Path>, traced: bool) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", run.workload.name()]);
        cmd.args(["--seed", &run.seed.to_string()]);
        cmd.args(["--seconds", &run.seconds.to_string()]);
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        if traced {
            cmd.arg("--traced");
        }
        let mut proc = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = proc.stdout.take().ok_or("server stdout not captured")?;
        let mut child = Child {
            proc,
            stdout: std::io::BufReader::new(stdout),
            addr: String::new(),
        };
        let banner = child.line()?;
        child.addr = banner
            .strip_prefix("listening ")
            .ok_or(format!("unexpected server banner {banner:?}"))?
            .trim()
            .to_string();
        Ok(child)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read server stdout: {e}")),
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))
            .ok()
            .and_then(|status| {
                status.lines().find_map(|line| {
                    line.strip_prefix("VmHWM:")?
                        .split_whitespace()
                        .next()?
                        .parse::<f64>()
                        .ok()
                })
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL, and wait for the process to end.
    fn kill(&mut self) {
        self.proc.kill().ok();
        self.proc.wait().ok();
    }

    /// Drains the server and waits for it to exit; returns its `trace`
    /// line when it printed one.
    fn drain(&mut self) -> Result<Option<String>, String> {
        let reply = Wire::connect(&self.addr)
            .and_then(|mut w| w.call(r#"{"v":1,"kind":"drain"}"#))
            .map_err(|e| format!("drain: {e}"))?;
        if !reply.contains(r#""kind":"drained""#) {
            return Err(format!("drain refused: {reply}"));
        }
        let mut trace = None;
        while let Ok(line) = self.line() {
            if let Some(body) = line.strip_prefix("trace ") {
                trace = Some(body.trim().to_string());
            }
        }
        let status = self.proc.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(trace)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            self.kill();
        }
    }
}

fn call(wire: &mut Wire, request: &str) -> Result<String, String> {
    wire.call(request)
        .map_err(|e| format!("{e} (request {request})"))
}

const METRICS: &str = r#"{"v":1,"kind":"metrics"}"#;

/// Starts the server `repeats` times, each until it answers a `metrics`
/// request, and keeps the last; returns it with every start's duration.
fn start_server(
    run: &Args,
    store: Option<&Path>,
    traced: bool,
    repeats: usize,
) -> Result<(Child, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let mut child = Child::spawn(run, store, traced)?;
        let mut wire = Wire::connect(&child.addr).map_err(|e| format!("connect: {e}"))?;
        let reply = call(&mut wire, METRICS)?;
        if !reply.contains(r#""status":"ok""#) {
            return Err(format!("server not ready: {reply}"));
        }
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= repeats {
            return Ok((child, times));
        }
        child.kill();
    }
}

/// A scratch directory under the working directory (the checkout).
fn scratch_dir(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{}-{seed}-{}", w.name(), std::process::id()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Durable churn's untimed first life: create every session, run a few
/// events each, checkpoint, read every session's outputs, then SIGKILL
/// the server. Returns the client-side sessions and the outputs replies
/// the recovered server must repeat byte for byte. (Events after the
/// checkpoint would make the recovered state depend on which evictions
/// reached the log before the kill, so there are none.)
fn first_life(
    dir: &Path,
    run: &Args,
    plans: &[Arc<Plan>],
) -> Result<(Vec<SessionRun>, Vec<String>), String> {
    let mut child = Child::spawn(run, Some(dir), false)?;
    let mut wire = Wire::connect(&child.addr).map_err(|e| format!("connect: {e}"))?;
    let mut runs: Vec<SessionRun> = plans.iter().map(|p| SessionRun::new(p.clone())).collect();
    for run in &mut runs {
        step(&mut wire, run)?;
    }
    for _ in 0..FIRST_LIFE_EVENTS {
        for run in &mut runs {
            step(&mut wire, run)?;
        }
    }
    let reply = call(&mut wire, r#"{"v":1,"kind":"checkpoint"}"#)?;
    if !reply.contains(r#""kind":"checkpointed""#) {
        return Err(format!("checkpoint failed: {reply}"));
    }
    let mut committed = Vec::new();
    for run in &mut runs {
        let reply = call(&mut wire, &run.outputs_request())?;
        run.check_outputs(&reply)?;
        run.mark_baseline();
        committed.push(reply);
    }
    child.kill();
    Ok((runs, committed))
}

/// Sends a session's next request and applies the reply.
fn step(wire: &mut Wire, run: &mut SessionRun) -> Result<(), String> {
    let (text, _) = run
        .next_request()
        .ok_or("session ended in its first life")?;
    let reply = call(wire, &text)?;
    run.on_reply(&reply)
}

/// Deals round-robin sessions to connections, longest remaining work
/// first onto the least-loaded connection, so the connections finish
/// together whatever the seed's order.
fn deal(runs: &[SessionRun], conns: usize) -> Vec<Vec<SessionRun>> {
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(runs[i].remaining()), i));
    let mut dealt: Vec<Vec<SessionRun>> = vec![Vec::new(); conns];
    let mut load = vec![0usize; conns];
    for i in order {
        let k = (0..conns).min_by_key(|&k| (load[k], k)).unwrap_or(0);
        load[k] += runs[i].remaining();
        dealt[k].push(runs[i].clone());
    }
    dealt
}

/// The per-connection scripts of one pass.
fn scripts(w: Workload, plans: &[Arc<Plan>], churn: &[SessionRun], conns: usize) -> Vec<Script> {
    match w {
        Workload::DurableChurn => deal(churn, conns)
            .into_iter()
            .map(Script::round_robin)
            .collect(),
        _ => {
            let queue: VecDeque<SessionRun> =
                plans.iter().map(|p| SessionRun::new(p.clone())).collect();
            let queue = Arc::new(Mutex::new(queue));
            (0..conns).map(|_| Script::queue(queue.clone())).collect()
        }
    }
}

/// Runs the open phase (and, when `closed`, the closed phase) of one pass.
fn phases(addr: &str, scripts: Vec<Script>, rate: f64, open_s: f64, closed: bool) -> Pass {
    let schedule = Schedule::new(rate, open_s, scripts.len());
    let barrier = Barrier::new(scripts.len());
    // Leave the connections time to open before the first tick is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let conns = std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(k, script)| {
                let barrier = &barrier;
                scope.spawn(move || load::drive(addr, script, k, schedule, t0, barrier, closed))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread panicked"))
            .collect()
    });
    Pass { conns, open_s }
}

/// Everything one pass observed.
struct Pass {
    conns: Vec<ConnOutcome>,
    open_s: f64,
}

impl Pass {
    fn samples(&self) -> impl Iterator<Item = &load::Sample> {
        self.conns.iter().flat_map(|c| c.samples.iter())
    }

    fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    /// Latencies (ms) of the samples `keep` selects, ascending. A failed
    /// request misses every limit: it counts as the client timeout.
    fn latencies(&self, keep: impl Fn(&load::Sample) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples()
            .filter(|s| keep(s))
            .map(|s| {
                let latency = if s.ok { s.latency } else { REQUEST_TIMEOUT };
                latency.as_secs_f64() * 1e3
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Closed-phase requests per second: the phase's fixed work over its
    /// wall time.
    fn throughput(&self) -> f64 {
        let start = self.conns.iter().filter_map(|c| c.closed_start).min();
        let end = self.conns.iter().filter_map(|c| c.closed_end).max();
        let (Some(start), Some(end)) = (start, end) else {
            return f64::NAN;
        };
        let requests = self.samples().filter(|s| !s.open).count() as f64;
        requests / end.duration_since(start).as_secs_f64()
    }

    fn sessions(&self) -> Vec<SessionRun> {
        self.conns
            .iter()
            .flat_map(|c| c.script.sessions())
            .collect()
    }

    fn late_share(&self) -> f64 {
        let ticks: u64 = self.conns.iter().map(|c| c.ticks).sum();
        let late: u64 = self.conns.iter().map(|c| c.late).sum();
        late as f64 / ticks.max(1) as f64
    }

    fn open_mean_ms(&self) -> f64 {
        let v = self.latencies(|s| s.open);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    fn problems(&self, expected_sessions: usize) -> Vec<String> {
        let mut problems: Vec<String> = self
            .conns
            .iter()
            .flat_map(|c| c.errors.iter().cloned())
            .collect();
        let sessions = self.sessions();
        let unfinished = sessions.iter().filter(|r| !r.finished()).count();
        if sessions.len() != expected_sessions || unfinished > 0 {
            problems.push(format!(
                "{} of {expected_sessions} sessions ran, {unfinished} unfinished",
                sessions.len()
            ));
        }
        let late = self.late_share();
        if late > MAX_LATE_SHARE {
            problems.push(format!(
                "invalid run: the load generator sent {:.0}% of its ticks late",
                late * 100.0
            ));
        }
        problems
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let plans = workload::plans(w, args.seed, &w.params(args.seconds));
    let open_s = args.seconds / 4.0;
    let dir = scratch_dir(w, args.seed);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(args, &plans, open_s, &dir);
    std::fs::remove_dir_all(&dir).ok();
    if let Some(parent) = dir.parent() {
        // Removes the scratch root only when no other run is using it.
        std::fs::remove_dir(parent).ok();
    }
    result
}

fn run_in(args: &Args, plans: &[Arc<Plan>], open_s: f64, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let params = w.params(args.seconds);
    let (churn, committed) = if params.store {
        first_life(&dir.join("first"), args, plans)?
    } else {
        (Vec::new(), Vec::new())
    };
    let store_for = |name: &str| -> Result<Option<PathBuf>, String> {
        if !params.store {
            return Ok(None);
        }
        let to = dir.join(name);
        copy_dir(&dir.join("first"), &to)?;
        Ok(Some(to))
    };

    // With tracing, an untraced open phase first: the baseline the
    // tracing overhead is measured against.
    let untraced_open_ms = if args.trace {
        let store = store_for("baseline")?;
        let (mut child, _) = start_server(args, store.as_deref(), false, 1)?;
        let pass = phases(
            &child.addr,
            scripts(w, plans, &churn, CONNS),
            params.rate,
            open_s,
            false,
        );
        child.drain()?;
        Some(pass.open_mean_ms())
    } else {
        None
    };

    let store = store_for("run")?;
    let repeats = if args.trace { 1 } else { SETUPS };
    let (mut child, setups) = start_server(args, store.as_deref(), args.trace, repeats)?;
    let mut problems = Vec::new();
    // The recovered server must serve every checkpointed session's
    // outputs byte for byte.
    if !committed.is_empty() {
        let mut wire = Wire::connect(&child.addr).map_err(|e| format!("connect: {e}"))?;
        for (run, before) in churn.iter().zip(&committed) {
            let after = call(&mut wire, &run.outputs_request())?;
            if &after != before {
                problems.push(format!(
                    "outputs changed across the SIGKILL recovery:\n  before: {before}\n  after:  {after}"
                ));
            }
        }
    }
    let pass = phases(
        &child.addr,
        scripts(w, plans, &churn, CONNS),
        params.rate,
        open_s,
        true,
    );
    let rss_mb = child.peak_rss_mb();
    let server_metrics = {
        let mut wire = Wire::connect(&child.addr).map_err(|e| format!("connect: {e}"))?;
        call(&mut wire, METRICS)?
    };
    let trace_line = child.drain()?;
    problems.extend(pass.problems(plans.len()));

    let metrics = match (args.trace, trace_line) {
        (false, _) => end_to_end(&pass, &setups, rss_mb),
        (true, Some(line)) => {
            let traced = Traced::parse(&line, &server_metrics)?;
            let layers = replay::replay(&pass.sessions(), CONNS);
            problems.extend(reconcile(&pass, &traced, &layers));
            per_layer(&pass, &traced, &layers, untraced_open_ms.unwrap_or(0.0))
        }
        (true, None) => return Err("the traced server printed no trace line".to_string()),
    };
    Ok(Report {
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics,
        problems,
    })
}

fn end_to_end(pass: &Pass, setups: &[f64], rss_mb: f64) -> Vec<Metric> {
    let all = pass.latencies(|_| true);
    let predict = pass.latencies(|s| s.class == Class::Predict);
    let automate = pass.latencies(|s| s.class == Class::Automate);
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(f64::NAN);
    let throughput = pass.throughput();
    let closed_requests = pass.samples().filter(|s| !s.open).count() as f64;
    let closed_sessions: u64 = pass.conns.iter().map(|c| c.closed_sessions).sum();
    let sessions = pass.sessions();
    let n = sessions.len().max(1) as f64;
    let solved = sessions.iter().filter(|r| r.solved == Some(true)).count() as f64;
    let demos: usize = sessions.iter().map(|r| r.demonstrated).sum();
    let attempted = pass.attempted().max(1) as f64;
    vec![
        metric("setup_s", median(setups).unwrap_or(f64::NAN), "s"),
        metric("latency_p50_ms", pct(&all, 50.0), "ms"),
        metric("latency_p99_ms", pct(&all, 99.0), "ms"),
        metric("predict_p50_ms", pct(&predict, 50.0), "ms"),
        metric("predict_p99_ms", pct(&predict, 99.0), "ms"),
        metric("automate_p50_ms", pct(&automate, 50.0), "ms"),
        metric("automate_p99_ms", pct(&automate, 99.0), "ms"),
        metric("throughput_rps", throughput, "1/s"),
        metric(
            "sessions_per_s",
            throughput * closed_sessions as f64 / closed_requests,
            "1/s",
        ),
        metric(
            "ok_share",
            (attempted - pass.failed() as f64) / attempted,
            "share",
        ),
        metric("solved_share", solved / n, "share"),
        metric("demos_per_session", demos as f64 / n, "count"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// The value at `path` in a JSON object.
fn at<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.field(key))
}

/// An integer at `path`, or 0.
fn int_at(value: &Value, path: &[&str]) -> f64 {
    at(value, path).and_then(Value::as_int).unwrap_or(0) as f64
}

/// `(calls, nanoseconds)` of a span in the server's trace line.
fn span(trace: &Value, path: &[&str]) -> (f64, f64) {
    let pair = at(trace, path).and_then(Value::as_array).unwrap_or(&[]);
    let int = |i: usize| pair.get(i).and_then(Value::as_int).unwrap_or(0) as f64;
    (int(0), int(1))
}

/// Mean microseconds of a span; 0 when it never ran.
fn mean_us((calls, ns): (f64, f64)) -> f64 {
    if calls > 0.0 {
        ns / calls / 1e3
    } else {
        0.0
    }
}

/// Mean microseconds of an in-process span; 0 when it never ran.
fn dur_us((calls, d): (u64, Duration)) -> f64 {
    mean_us((calls as f64, d.as_secs_f64() * 1e9))
}

/// Event types the oracle user sends.
const EVENTS: [&str; 6] = [
    "demonstrate",
    "accept",
    "reject_all",
    "automate_step",
    "interrupt",
    "finish",
];

/// What the traced server reported: its `trace` line and a `metrics`
/// reply taken after the run.
struct Traced {
    trace: Value,
    metrics: Value,
}

impl Traced {
    fn parse(trace_line: &str, metrics_reply: &str) -> Result<Traced, String> {
        let trace = parse_json(trace_line).map_err(|e| format!("trace line: {e}"))?;
        let reply = parse_json(metrics_reply).map_err(|e| format!("metrics reply: {e}"))?;
        let metrics = reply
            .field("metrics")
            .ok_or("metrics reply without metrics")?
            .clone();
        Ok(Traced { trace, metrics })
    }

    fn span(&self, path: &[&str]) -> (f64, f64) {
        span(&self.trace, path)
    }

    /// Requests the traced frame loop served.
    fn requests(&self) -> f64 {
        self.span(&["transport"]).0.max(1.0)
    }

    /// Summed nanoseconds of a server span, per served request, in µs.
    fn per_request_us(&self, ns: f64) -> f64 {
        ns / self.requests() / 1e3
    }

    fn store_ns(&self) -> f64 {
        ["put", "get", "remove", "flush"]
            .iter()
            .map(|k| self.span(&[k]).1)
            .sum()
    }
}

/// Mean client-observed time from send to reply, in µs.
fn client_us(pass: &Pass) -> f64 {
    let (n, sum) = pass.samples().fold((0usize, 0.0), |(n, sum), s| {
        (n + 1, sum + s.service.as_secs_f64())
    });
    sum * 1e6 / n.max(1) as f64
}

/// Self time per request along the blocking path, in µs. `wire`,
/// `service` and `interact` are differences of nested spans; the others
/// are spans.
fn stages(pass: &Pass, traced: &Traced, layers: &Layers) -> [(&'static str, f64); 8] {
    let per_req = |ns: f64| traced.per_request_us(ns);
    let replay_ns = layers
        .handle
        .iter()
        .map(|(_, _, d)| d)
        .sum::<Duration>()
        .as_secs_f64()
        * 1e9;
    let synth_ns = layers.synth_time.as_secs_f64() * 1e9;
    let browser_ns = layers.perform.1.as_secs_f64() * 1e9;
    let store_ns = traced.store_ns();
    let (decode, handle) = (traced.span(&["decode"]).1, traced.span(&["handle"]).1);
    let (encode, write) = (traced.span(&["encode"]).1, traced.span(&["write"]).1);
    [
        (
            "self.wire_us",
            client_us(pass) - per_req(traced.span(&["transport"]).1),
        ),
        ("self.server_us", per_req(write)),
        ("self.data_us", per_req(decode + encode)),
        ("self.service_us", per_req(handle - replay_ns - store_ns)),
        ("self.store_us", per_req(store_ns)),
        (
            "self.interact_us",
            per_req(replay_ns - synth_ns - browser_ns),
        ),
        ("self.synth_us", per_req(synth_ns)),
        ("self.browser_us", per_req(browser_ns)),
    ]
}

/// The frame span's time outside the spans inside it, per request, in µs.
fn unaccounted_us(traced: &Traced) -> f64 {
    let inner: f64 = ["decode", "handle", "encode", "write"]
        .iter()
        .map(|k| traced.span(&[k]).1)
        .sum();
    traced.per_request_us(traced.span(&["transport"]).1 - inner)
}

/// Checks that the traced run's stages fit together; returns what does
/// not. The in-process replay and the server measured the same events
/// separately, so these can fail:
///
/// - the replay ran exactly the events the server carried out, type by
///   type;
/// - per event type, `Session::handle` in the replay takes no longer
///   than `ShardedManager::handle` on the server, which wraps it, within
///   [`RECONCILE_TOLERANCE`];
/// - no self-time stage is negative by more than the tolerance of the
///   client-observed mean, which a replay that did more than the server
///   would make it;
/// - the frame loop's time outside its spans stays within the tolerance
///   of the client-observed mean.
fn reconcile(pass: &Pass, traced: &Traced, layers: &Layers) -> Vec<String> {
    let mut problems = Vec::new();
    let client = client_us(pass);
    for name in EVENTS {
        let (calls, ns) = traced.span(&["events", name]);
        let (replayed, time) = layers.handle.get(name);
        if replayed as f64 != calls {
            problems.push(format!(
                "the replay ran {replayed} {name} events, the server {calls}"
            ));
        } else if calls > 0.0 {
            let (replay_us, server_us) = (dur_us((replayed, time)), mean_us((calls, ns)));
            if replay_us > server_us * (1.0 + RECONCILE_TOLERANCE) {
                problems.push(format!(
                    "{name}: Session::handle replayed in {replay_us:.1} us, \
                     more than the server's ShardedManager::handle ({server_us:.1} us)"
                ));
            }
        }
    }
    for (name, v) in stages(pass, traced, layers) {
        if v < -RECONCILE_TOLERANCE * client {
            problems.push(format!(
                "stage {name} is {v:.1} us (client mean {client:.1} us)"
            ));
        }
    }
    let unaccounted = unaccounted_us(traced);
    if unaccounted.abs() > RECONCILE_TOLERANCE * client {
        problems.push(format!(
            "the frame loop leaves {unaccounted:.1} of {client:.1} us outside its spans"
        ));
    }
    problems
}

fn per_layer(pass: &Pass, traced: &Traced, layers: &Layers, untraced_open_ms: f64) -> Vec<Metric> {
    let (trace, m) = (&traced.trace, &traced.metrics);
    let sessions = pass.sessions();
    let transport = traced.span(&["transport"]);
    let client = client_us(pass);
    let (mut ev_calls, mut ev_ns) = (0.0, 0.0);
    for name in EVENTS {
        let (c, ns) = traced.span(&["events", name]);
        ev_calls += c;
        ev_ns += ns;
    }
    let replay_calls: u64 = layers.handle.iter().map(|(_, c, _)| c).sum();
    let replay_time: Duration = layers.handle.iter().map(|(_, _, d)| d).sum();
    let queue_wait_us = if ev_calls > 0.0 && replay_calls > 0 {
        mean_us((ev_calls, ev_ns)) - dur_us((replay_calls, replay_time))
    } else {
        0.0
    };

    let refused: f64 = at(m, &["requests"])
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .flat_map(|r| r.field("errors").and_then(Value::as_array).unwrap_or(&[]))
        .filter(|e| {
            matches!(
                e.field("code").and_then(Value::as_str),
                Some("overloaded" | "too_many_sessions")
            )
        })
        .map(|e| int_at(e, &["count"]))
        .fold(0.0, |a, b| a + b);
    let shard_max = |key: &str| -> f64 {
        at(m, &["shards"])
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|s| int_at(s, &[key]))
            .fold(0.0, f64::max)
    };
    let (puts, put_ns) = traced.span(&["put"]);
    let record_bytes = int_at(trace, &["record_bytes"]);
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ticks: u64 = pass.conns.iter().map(|c| c.ticks).sum();

    let mut out = vec![
        metric("server.transport_us", mean_us(transport), "us"),
        metric("server.wire_us", client - mean_us(transport), "us"),
        metric("data.decode_us", mean_us(traced.span(&["decode"])), "us"),
        metric("data.encode_us", mean_us(traced.span(&["encode"])), "us"),
        metric(
            "data.reply_bytes",
            int_at(trace, &["reply_bytes"]) / traced.requests(),
            "bytes",
        ),
        metric("service.queue_wait_us", queue_wait_us, "us"),
        metric(
            "service.quanta",
            int_at(m, &["scheduler", "quanta"]),
            "count",
        ),
        metric("service.parks", int_at(m, &["scheduler", "parks"]), "count"),
        metric("service.refused", refused, "count"),
        metric(
            "service.evictions",
            int_at(m, &["lifecycle", "evict", "count"]),
            "count",
        ),
        metric(
            "service.evict_us",
            int_at(m, &["lifecycle", "evict", "mean_ns"]) / 1e3,
            "us",
        ),
        metric(
            "service.restores",
            int_at(m, &["lifecycle", "restore", "count"]),
            "count",
        ),
        metric(
            "service.restore_us",
            int_at(m, &["lifecycle", "restore", "mean_ns"]) / 1e3,
            "us",
        ),
        metric(
            "service.checkpoint_us",
            int_at(m, &["lifecycle", "checkpoint", "mean_ns"]) / 1e3,
            "us",
        ),
        metric("metrics.scrape_us", mean_us(traced.span(&["scrape"])), "us"),
        metric(
            "interact.demonstrate_us",
            dur_us(layers.handle.get("demonstrate")),
            "us",
        ),
        metric(
            "interact.accept_us",
            dur_us(layers.handle.get("accept")),
            "us",
        ),
        metric(
            "interact.automate_us",
            dur_us(layers.handle.get("automate_step")),
            "us",
        ),
        metric("interact.restore_us", dur_us(layers.restore), "us"),
        metric(
            "interact.demos_per_session",
            sessions.iter().map(|r| r.demonstrated).sum::<usize>() as f64
                / sessions.len().max(1) as f64,
            "count",
        ),
        metric(
            "synth.synthesize_us",
            dur_us((layers.synth_calls, layers.synth_time)),
            "us",
        ),
        metric("synth.busy_s", layers.synth_time.as_secs_f64(), "s"),
        metric("synth.pops", layers.pops as f64, "count"),
        metric("synth.pushes", layers.pushes as f64, "count"),
        metric("synth.validations", layers.validations as f64, "count"),
        metric(
            "synth.validation_yield",
            share(layers.pushes as f64, layers.validations as f64),
            "share",
        ),
        metric(
            "synth.fast_path_share",
            share(layers.fast_path as f64, layers.synth_calls as f64),
            "share",
        ),
        metric("synth.timed_out", layers.timed_out as f64, "count"),
        metric(
            "synth.resolve_hit_share",
            share(
                layers.resolve_hits as f64,
                (layers.resolve_hits + layers.resolve_misses) as f64,
            ),
            "share",
        ),
        metric("browser.perform_us", dur_us(layers.perform), "us"),
        metric("browser.actions", layers.perform.0 as f64, "count"),
        metric("store.put_us", mean_us((puts, put_ns)), "us"),
        metric("store.get_us", mean_us(traced.span(&["get"])), "us"),
        metric("store.flush_us", mean_us(traced.span(&["flush"])), "us"),
        metric("store.puts", puts, "count"),
        metric("store.fsyncs", shard_max("store_fsyncs"), "count"),
        metric("store.bytes_per_put", share(record_bytes, puts), "bytes"),
        metric(
            "store.write_amp",
            share(shard_max("store_bytes"), record_bytes),
            "ratio",
        ),
        metric("store.compactions", shard_max("store_compactions"), "count"),
        metric("store.open_s", int_at(trace, &["open_ns"]) / 1e9, "s"),
        metric("loadgen.late_share", pass.late_share(), "share"),
        metric("loadgen.offered_rps", ticks as f64 / pass.open_s, "1/s"),
        metric("trace.client_us", client, "us"),
        metric("trace.unaccounted_us", unaccounted_us(traced), "us"),
        metric(
            "trace.overhead_ms",
            pass.open_mean_ms() - untraced_open_ms,
            "ms",
        ),
    ];
    out.extend(
        stages(pass, traced, layers)
            .iter()
            .map(|(name, v)| metric(name, *v, "us")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass of ten requests the client saw take 12 µs each.
    fn pass() -> Pass {
        let mut conn = ConnOutcome::new(Script::round_robin(Vec::new()));
        let sample = load::Sample {
            latency: Duration::from_micros(12),
            service: Duration::from_micros(12),
            class: Class::Predict,
            open: false,
            ok: true,
        };
        conn.samples = vec![sample; 10];
        Pass {
            conns: vec![conn],
            open_s: 1.0,
        }
    }

    /// A server that spent 10 µs per frame, 9 of them in
    /// `ShardedManager::handle`, on `demonstrate` events as given.
    fn traced(demonstrate: &str) -> Traced {
        let trace = format!(
            r#"{{"transport": [10, 100000], "decode": [10, 1000], "handle": [10, 90000],
                "encode": [10, 1000], "write": [10, 1000],
                "events": {{"demonstrate": {demonstrate}}}}}"#
        );
        Traced::parse(
            &trace,
            r#"{"v":1,"status":"ok","kind":"metrics","metrics":{}}"#,
        )
        .expect("valid trace")
    }

    fn replayed(each_us: u64) -> Layers {
        let mut layers = Layers::default();
        layers
            .handle
            .add("demonstrate", 10, Duration::from_micros(10 * each_us));
        layers
    }

    #[test]
    fn reconcile_accepts_stages_that_fit() {
        assert_eq!(
            reconcile(&pass(), &traced("[10, 90000]"), &replayed(5)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn reconcile_flags_a_replay_that_differs_from_the_server() {
        // The replay ran one event more than the server.
        let problems = reconcile(&pass(), &traced("[9, 90000]"), &replayed(5));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("10 demonstrate events"),
            "{problems:?}"
        );
        // `Session::handle` took longer than the server's call that wraps
        // it, which also drives the service stage negative.
        let problems = reconcile(&pass(), &traced("[10, 90000]"), &replayed(11));
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("demonstrate: Session::handle"));
        assert!(problems[1].contains("self.service_us"));
    }
}
