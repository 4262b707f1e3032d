//! `loadgen` — open-loop load, reliability and resilience harness for
//! `webrobot-server`.
//!
//! ```text
//! loadgen [--rate RPS] [--duration SECS] [--conns N]
//!         [--server PATH] [--out PATH]
//!         [--workload anchors|generated:<seed>] [--skip-resilience]
//! ```
//!
//! Spawns `webrobot-server` (a sibling binary by default, `--server` to
//! override) and drives it over real TCP with an **open-loop** arrival
//! process: request number `n` is due at `start + n / rate`, shared
//! across `--conns` connections, independent of when earlier replies
//! arrive — so queueing delay shows up as latency instead of silently
//! reducing the offered load. Ticks whose connection is still busy well
//! past their due time are sent late and counted (`late_ticks`).
//!
//! Each connection drives its own sessions through a scripted
//! create → demonstrate ×2 → accept → outputs → close loop on the
//! built-in `anchors` site, with `metrics` scrapes mixed in (1/8 of
//! ticks). `--workload generated:<seed>` swaps the anchor script
//! for the procedural benchmark families (`webrobot_benchmarks::gen`):
//! the server is spawned with `--gen-sites <seed>`, and each connection
//! cycles through one session per family, demonstrating a prefix of the
//! family's pristine recording (real `EnterData`/`Click`/scrape wire
//! actions) before finishing and scraping outputs — a deterministic,
//! seed-named load far richer than the single anchor page. Every reply is classified: `ok`, `overloaded` (a
//! correct backpressure answer, not a failure) or a *hard error*
//! (anything else).
//!
//! Four axes are measured and written to `--out` (default
//! `BENCH_load.json`) in the same integer-only shape the vendored
//! Criterion stub emits, so `tools/benchdiff` can diff and gate them:
//!
//! - `load_success_speed/request` — latency percentiles, achieved
//!   throughput (`elements_per_sec`) and the server's peak RSS
//!   (`max_rss_kb`) at 4 shards;
//! - `load_reliability/requests` — `ok` / `overloaded` / `hard_errors`
//!   / `late_ticks` counts for the same run;
//! - `load_resilience/kill9` — a store-backed server is loaded,
//!   checkpointed, killed with SIGKILL mid-load, restarted on the same
//!   store, and checked for **zero post-checkpoint loss**
//!   (`sessions_lost`, `post_restart_errors`), with a post-restart
//!   `metrics` scrape proving the observability surface survives
//!   recovery;
//! - `load_scalability/shards{1,4}` — the same open-loop run at 1 and 4
//!   shards, so the shard speedup is one `--compare-ids` away.
//!
//! Exits non-zero when any session data committed by a checkpoint is
//! missing after the kill, or when a phase fails outright. See
//! `BENCH_NOTES.md` for how CI consumes the snapshot.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};
use webrobot_server::Client;

/// Which scripted session mix the connections drive.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    /// The built-in single-page `anchors` site (the default).
    Anchors,
    /// One session per generated family (`webrobot_benchmarks::gen`),
    /// against sites the server registers under `--gen-sites <seed>`.
    Generated { seed: u64 },
}

struct Options {
    rate: u64,
    duration_s: u64,
    conns: usize,
    server: Option<PathBuf>,
    out: PathBuf,
    workload: Workload,
    skip_resilience: bool,
}

const USAGE: &str = "usage: loadgen [--rate RPS] [--duration SECS] [--conns N] \
                     [--server PATH] [--out PATH] \
                     [--workload anchors|generated:<seed>] [--skip-resilience]";

fn positive(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .ok_or(format!("{name} needs a positive number"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        rate: 200,
        duration_s: 3,
        conns: 8,
        server: None,
        out: PathBuf::from("BENCH_load.json"),
        workload: Workload::Anchors,
        skip_resilience: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rate" => opts.rate = positive(&mut it, "--rate")?,
            "--duration" => opts.duration_s = positive(&mut it, "--duration")?,
            "--conns" => opts.conns = positive(&mut it, "--conns")? as usize,
            "--server" => {
                opts.server = Some(PathBuf::from(it.next().ok_or("--server needs a path")?))
            }
            "--out" => opts.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--workload" => {
                let workload = it.next().ok_or("--workload needs a value")?;
                opts.workload = match workload.as_str() {
                    "anchors" => Workload::Anchors,
                    spec => match spec.strip_prefix("generated:").and_then(|s| s.parse().ok()) {
                        Some(seed) => Workload::Generated { seed },
                        None => {
                            return Err(format!(
                                "unknown workload '{spec}' (expected anchors|generated:<seed>)"
                            ))
                        }
                    },
                };
            }
            "--skip-resilience" => opts.skip_resilience = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Where the server binary lives: `--server`, or a sibling of this
/// binary (both land in the same Cargo target directory).
fn server_path(opts: &Options) -> Result<PathBuf, String> {
    if let Some(path) = &opts.server {
        return Ok(path.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or("loadgen binary has no parent directory")?;
    let sibling = dir.join("webrobot-server");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "no webrobot-server next to loadgen ({}); pass --server PATH",
            sibling.display()
        ))
    }
}

/// Spawns `webrobot-server` on an ephemeral port and returns the child
/// plus the address it printed in its banner.
fn spawn_server(
    exe: &Path,
    shards: usize,
    store: Option<&Path>,
    workload: Workload,
) -> Result<(std::process::Child, String), String> {
    use std::io::BufRead as _;

    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--addr", "127.0.0.1:0", "--shards", &shards.to_string()]);
    if let Some(dir) = store {
        cmd.arg("--store").arg(dir);
    }
    if let Workload::Generated { seed } = workload {
        cmd.args(["--gen-sites", &seed.to_string()]);
    }
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().ok_or("server stdout not captured")?;
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .map_err(|e| format!("read server banner: {e}"))?;
    // "webrobot-server listening on 127.0.0.1:PORT (N shards)"
    match banner.split_whitespace().nth(3) {
        Some(addr) => Ok((child, addr.to_string())),
        None => {
            child.kill().ok();
            child.wait().ok();
            Err(format!("unexpected server banner: {banner:?}"))
        }
    }
}

/// One site's scripted session: the create request, then per-session
/// event objects (demonstrates, accepts, finishes), then outputs and
/// close. Built once per workload and shared read-only by every
/// connection.
struct SitePlan {
    site: String,
    /// Wire event objects (`{"type": ...}`) sent in order, one per tick.
    events: Vec<String>,
}

/// The always-valid session mix: anchors is the classic
/// create → demonstrate ×2 → accept 0 → outputs → close loop; generated
/// workloads demonstrate a prefix of each family's pristine recording
/// and `finish` instead of accepting (predictions on the hostile
/// families may legitimately fail, and the load script must stay
/// all-`"status":"ok"` so hard errors keep meaning *server* trouble).
fn build_plans(workload: Workload) -> Vec<SitePlan> {
    match workload {
        Workload::Anchors => vec![SitePlan {
            site: "anchors".to_string(),
            events: vec![
                r#"{"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[1]"}}"#
                    .to_string(),
                r#"{"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[2]"}}"#
                    .to_string(),
                r#"{"type": "accept", "index": 0}"#.to_string(),
            ],
        }],
        Workload::Generated { seed } => webrobot_benchmarks::GenFamily::ALL
            .into_iter()
            .map(|family| {
                let b = webrobot_benchmarks::generated(family, seed);
                let rec = b.record().expect("generated ground truths record");
                let mut events: Vec<String> = rec
                    .trace
                    .actions()
                    .iter()
                    .take(4)
                    .map(|action| {
                        format!(
                            r#"{{"type": "demonstrate", "action": {}}}"#,
                            webrobot_service::action_to_value(action)
                        )
                    })
                    .collect();
                events.push(r#"{"type": "finish"}"#.to_string());
                SitePlan {
                    site: format!("gen-{}-{seed}", family.key()),
                    events,
                }
            })
            .collect(),
    }
}

/// The scripted session loop one connection drives: each [`SitePlan`] in
/// turn, create → events → outputs → close, then the next plan — so a
/// healthy server answers every request with `"status":"ok"`.
struct SessionScript<'p> {
    plans: &'p [SitePlan],
    plan: usize,
    session: Option<String>,
    step: usize,
}

impl<'p> SessionScript<'p> {
    fn new(plans: &'p [SitePlan]) -> SessionScript<'p> {
        assert!(!plans.is_empty(), "a workload needs at least one plan");
        SessionScript {
            plans,
            plan: 0,
            session: None,
            step: 0,
        }
    }

    /// The next request in the script.
    fn next_request(&self) -> String {
        let plan = &self.plans[self.plan];
        let Some(session) = &self.session else {
            return format!(r#"{{"v": 1, "kind": "create", "site": "{}"}}"#, plan.site);
        };
        match self.step {
            s if s <= plan.events.len() => format!(
                r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {}}}"#,
                plan.events[s - 1]
            ),
            s if s == plan.events.len() + 1 => {
                format!(r#"{{"v": 1, "kind": "outputs", "session": "{session}"}}"#)
            }
            _ => format!(r#"{{"v": 1, "kind": "close", "session": "{session}"}}"#),
        }
    }

    /// Advances the script given the reply to [`SessionScript::next_request`].
    fn advance(&mut self, reply: &str) {
        if self.session.is_none() {
            // Adopt whatever id the create returned; on failure (e.g. a
            // `too_many_sessions` backpressure reply) stay at the create
            // step and retry next tick.
            if let Some(id) = parse_json(reply).ok().and_then(|v| {
                v.field("session")
                    .and_then(|s| s.as_str().map(String::from))
            }) {
                self.session = Some(id);
                self.step = 1;
            }
            return;
        }
        if self.step >= self.plans[self.plan].events.len() + 2 {
            self.session = None;
            self.step = 0;
            self.plan = (self.plan + 1) % self.plans.len();
        } else {
            self.step += 1;
        }
    }
}

/// What one open-loop run observed.
#[derive(Default)]
struct RunReport {
    latencies_ns: Vec<u64>,
    ok: u64,
    overloaded: u64,
    hard_errors: u64,
    late_ticks: u64,
}

impl RunReport {
    fn merge(&mut self, other: RunReport) {
        self.latencies_ns.extend(other.latencies_ns);
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.hard_errors += other.hard_errors;
        self.late_ticks += other.late_ticks;
    }
}

/// A tick counts as late when its connection was still busy this long
/// past the tick's due time.
const LATE_BY: Duration = Duration::from_millis(100);

/// Drives the open-loop arrival process: workers claim ticks from a
/// shared counter, sleep until the tick is due, send, and measure.
/// Replies never gate arrivals.
fn open_loop(
    addr: &str,
    rate: u64,
    duration: Duration,
    conns: usize,
    plans: &[SitePlan],
) -> Result<RunReport, String> {
    let total_ticks = rate * duration.as_secs().max(1);
    let interval_ns = 1_000_000_000 / rate.max(1);
    let next_tick = AtomicU64::new(0);
    let start = Instant::now();

    let mut report = RunReport::default();
    let mut failure = None;
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(conns);
        for _ in 0..conns {
            let next_tick = &next_tick;
            workers.push(scope.spawn(move || -> Result<RunReport, String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let mut script = SessionScript::new(plans);
                let mut local = RunReport::default();
                loop {
                    let tick = next_tick.fetch_add(1, Ordering::Relaxed);
                    if tick >= total_ticks {
                        break;
                    }
                    let due = Duration::from_nanos(interval_ns * tick);
                    let elapsed = start.elapsed();
                    if elapsed < due {
                        std::thread::sleep(due - elapsed);
                    } else if elapsed > due + LATE_BY {
                        local.late_ticks += 1;
                    }
                    // 1/8 of ticks scrape `metrics` instead of advancing
                    // the session script.
                    let scrape = tick % 8 == 7;
                    let request = if scrape {
                        r#"{"v": 1, "kind": "metrics"}"#.to_string()
                    } else {
                        script.next_request()
                    };
                    let sent = Instant::now();
                    let reply = client.call(&request).map_err(|e| format!("call: {e}"))?;
                    local.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                    if reply.contains(r#""status":"ok""#) {
                        local.ok += 1;
                    } else if reply.contains(r#""code":"overloaded""#)
                        || reply.contains(r#""code":"too_many_sessions""#)
                    {
                        local.overloaded += 1;
                    } else {
                        local.hard_errors += 1;
                    }
                    if !scrape {
                        script.advance(&reply);
                    }
                }
                Ok(local)
            }));
        }
        for worker in workers {
            match worker.join() {
                Ok(Ok(local)) => report.merge(local),
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some("worker panicked".to_string()),
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Nearest-rank percentile over a sorted latency vector.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One `BENCH_*.json` row in the Criterion-stub shape, plus
/// axis-specific extra integer fields.
fn row(latencies: &mut [u64], extra: &[(&str, i64)]) -> Value {
    latencies.sort_unstable();
    let count = latencies.len() as u64;
    let sum: u64 = latencies.iter().sum();
    let mut fields = vec![
        (
            "mean_ns".to_string(),
            Value::Int(sum.checked_div(count).unwrap_or(0) as i64),
        ),
        (
            "min_ns".to_string(),
            Value::Int(latencies.first().copied().unwrap_or(0) as i64),
        ),
        (
            "p99_ns".to_string(),
            Value::Int(percentile(latencies, 99) as i64),
        ),
        ("samples".to_string(), Value::Int(count as i64)),
    ];
    for (name, value) in extra {
        fields.push((name.to_string(), Value::Int(*value)));
    }
    Value::Object(fields)
}

/// Requests per second of measured wall time, from the merged report.
fn achieved_per_sec(report: &RunReport, wall: Duration) -> i64 {
    let nanos = wall.as_nanos().max(1);
    ((report.latencies_ns.len() as u128 * 1_000_000_000) / nanos) as i64
}

/// The server's peak resident set (`VmHWM`, in KiB) from procfs; 0 when
/// unavailable (non-Linux, or racing the child's exit).
fn peak_rss_kb(pid: u32) -> i64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

fn drain(addr: &str) {
    if let Ok(mut client) = Client::connect(addr) {
        client.drain().ok();
    }
}

/// One open-loop measurement at a given shard count against a fresh
/// storeless server. Returns the merged report, the wall time the load
/// took, and the server's peak RSS.
fn measure_shards(
    exe: &Path,
    opts: &Options,
    shards: usize,
    plans: &[SitePlan],
) -> Result<(RunReport, Duration, i64), String> {
    let (mut child, addr) = spawn_server(exe, shards, None, opts.workload)?;
    let started = Instant::now();
    let run = open_loop(
        &addr,
        opts.rate,
        Duration::from_secs(opts.duration_s),
        opts.conns,
        plans,
    );
    let wall = started.elapsed();
    let rss = peak_rss_kb(child.id());
    drain(&addr);
    let reaped = child.wait();
    let report = run?;
    reaped.map_err(|e| format!("reap server: {e}"))?;
    Ok((report, wall, rss))
}

fn checked_call(client: &mut Client, request: &str, expect: &str) -> Result<String, String> {
    let reply = client.call(request).map_err(|e| format!("call: {e}"))?;
    if reply.contains(expect) {
        Ok(reply)
    } else {
        Err(format!(
            "expected '{expect}' in reply to {request}, got {reply}"
        ))
    }
}

/// What the resilience phase proved.
struct ResilienceReport {
    run: RunReport,
    sessions_lost: i64,
    post_restart_errors: i64,
}

/// Kill-9-under-load: load a store-backed server, checkpoint a ledger
/// session, keep loading, SIGKILL the server, restart it on the same
/// store, and verify the checkpointed outputs survived byte-for-byte —
/// then scrape `metrics` from the recovered server to prove the
/// observability surface is back too.
fn resilience(exe: &Path, opts: &Options, plans: &[SitePlan]) -> Result<ResilienceReport, String> {
    let dir = std::env::temp_dir().join(format!("webrobot-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // First life: background load, then a ledger session that is
    // explicitly checkpointed — its outputs are the loss oracle.
    let (mut child, addr) = spawn_server(exe, 2, Some(&dir), opts.workload)?;
    let phase = Duration::from_secs(opts.duration_s.div_ceil(2));
    let mut run = open_loop(&addr, opts.rate, phase, opts.conns, plans)?;

    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let create = checked_call(
        &mut client,
        r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
        r#""session":"#,
    )?;
    let ledger = parse_json(&create)
        .ok()
        .and_then(|v| {
            v.field("session")
                .and_then(|s| s.as_str().map(String::from))
        })
        .ok_or("create reply carried no session id")?;
    for i in 1..=2 {
        checked_call(
            &mut client,
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "{ledger}", "event": {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
            ),
            r#""outcome":"recorded""#,
        )?;
    }
    checked_call(
        &mut client,
        &format!(
            r#"{{"v": 1, "kind": "event", "session": "{ledger}", "event": {{"type": "accept", "index": 0}}}}"#
        ),
        r#""status":"ok""#,
    )?;
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "checkpoint"}"#,
        r#""kind":"checkpointed""#,
    )?;
    let outputs_committed = checked_call(
        &mut client,
        &format!(r#"{{"v": 1, "kind": "outputs", "session": "{ledger}"}}"#),
        r#""kind":"outputs""#,
    )?;
    // More uncheckpointed churn, then the axe falls mid-load.
    run.merge(open_loop(&addr, opts.rate, phase, opts.conns, plans)?);
    child.kill().map_err(|e| format!("kill -9 server: {e}"))?;
    child.wait().map_err(|e| format!("reap server: {e}"))?;

    // Second life: everything the checkpoint committed must be there.
    let (mut child, addr) = spawn_server(exe, 2, Some(&dir), opts.workload)?;
    let mut post_restart_errors = 0i64;
    let mut sessions_lost = 0i64;
    let verdict = (|| -> Result<(), String> {
        let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let outputs_after = client
            .call(&format!(
                r#"{{"v": 1, "kind": "outputs", "session": "{ledger}"}}"#
            ))
            .map_err(|e| format!("call: {e}"))?;
        if outputs_after != outputs_committed {
            sessions_lost = 1;
            eprintln!(
                "loadgen: post-checkpoint loss!\n  committed: {outputs_committed}\n  recovered: {outputs_after}"
            );
        }
        // The recovered server must still serve the observability
        // surface: a metrics scrape with real percentiles in it.
        let metrics = client
            .call(r#"{"v": 1, "kind": "metrics"}"#)
            .map_err(|e| format!("call: {e}"))?;
        for (reply, label) in [(&outputs_after, "outputs"), (&metrics, "metrics")] {
            if !reply.contains(r#""status":"ok""#) {
                post_restart_errors += 1;
                eprintln!("loadgen: post-restart {label} request failed: {reply}");
            }
        }
        if !metrics.contains(r#""p99_ns""#) {
            post_restart_errors += 1;
            eprintln!("loadgen: post-restart metrics reply has no percentiles: {metrics}");
        }
        Ok(())
    })();
    drain(&addr);
    if verdict.is_err() {
        child.kill().ok();
    }
    child.wait().map_err(|e| format!("reap server: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    verdict?;
    Ok(ResilienceReport {
        run,
        sessions_lost,
        post_restart_errors,
    })
}

fn run(opts: &Options) -> Result<bool, String> {
    let exe = server_path(opts)?;
    let plans = build_plans(opts.workload);

    println!(
        "loadgen: open loop at {} req/s for {}s over {} connections ({:?} workload)",
        opts.rate, opts.duration_s, opts.conns, opts.workload
    );
    let (mut shards4, wall4, rss4) = measure_shards(&exe, opts, 4, &plans)?;
    let (mut shards1, wall1, _) = measure_shards(&exe, opts, 1, &plans)?;

    let resilience = if opts.skip_resilience {
        None
    } else {
        Some(resilience(&exe, opts, &plans)?)
    };

    let per_sec4 = achieved_per_sec(&shards4, wall4);
    let per_sec1 = achieved_per_sec(&shards1, wall1);
    let mut rows = Vec::new();
    rows.push((
        "load_success_speed/request".to_string(),
        row(
            &mut shards4.latencies_ns.clone(),
            &[("elements_per_sec", per_sec4), ("max_rss_kb", rss4)],
        ),
    ));
    rows.push((
        "load_reliability/requests".to_string(),
        row(
            &mut shards4.latencies_ns.clone(),
            &[
                ("ok", shards4.ok as i64),
                ("overloaded", shards4.overloaded as i64),
                ("hard_errors", shards4.hard_errors as i64),
                ("late_ticks", shards4.late_ticks as i64),
            ],
        ),
    ));
    if let Some(res) = &resilience {
        rows.push((
            "load_resilience/kill9".to_string(),
            row(
                &mut res.run.latencies_ns.clone(),
                &[
                    ("sessions_lost", res.sessions_lost),
                    ("post_restart_errors", res.post_restart_errors),
                    ("hard_errors", res.run.hard_errors as i64),
                ],
            ),
        ));
    }
    rows.push((
        "load_scalability/shards4".to_string(),
        row(&mut shards4.latencies_ns, &[("elements_per_sec", per_sec4)]),
    ));
    rows.push((
        "load_scalability/shards1".to_string(),
        row(&mut shards1.latencies_ns, &[("elements_per_sec", per_sec1)]),
    ));

    let snapshot = Value::Object(rows);
    std::fs::write(&opts.out, snapshot.to_json())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("loadgen: wrote {}", opts.out.display());
    if let Value::Object(rows) = &snapshot {
        for (id, row) in rows {
            let get = |f: &str| row.field(f).and_then(Value::as_int).unwrap_or(0);
            println!(
                "  {id:<28} mean {:>9}ns  p99 {:>9}ns  samples {:>6}",
                get("mean_ns"),
                get("p99_ns"),
                get("samples"),
            );
        }
    }

    let lost = resilience.as_ref().is_some_and(|r| r.sessions_lost > 0);
    if lost {
        eprintln!("loadgen: FAIL — checkpointed session data lost across kill -9");
    } else if resilience.is_some() {
        println!("loadgen: resilience ok — zero post-checkpoint loss across kill -9");
    }
    Ok(!lost)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_cycles_through_a_valid_session() {
        let plans = build_plans(Workload::Anchors);
        let mut s = SessionScript::new(&plans);
        assert!(s.next_request().contains(r#""kind": "create""#));
        s.advance(r#"{"v":1,"status":"ok","kind":"created","session":"s-7","mode":"demonstrate"}"#);
        assert!(s.next_request().contains("/a[1]"));
        assert!(s.next_request().contains("s-7"));
        s.advance("ok");
        assert!(s.next_request().contains("/a[2]"));
        s.advance("ok");
        assert!(s.next_request().contains(r#""type": "accept""#));
        s.advance("ok");
        assert!(s.next_request().contains(r#""kind": "outputs""#));
        s.advance("ok");
        assert!(s.next_request().contains(r#""kind": "close""#));
        s.advance("ok");
        assert!(s.next_request().contains(r#""kind": "create""#));
    }

    #[test]
    fn failed_create_retries_instead_of_wedging() {
        let plans = build_plans(Workload::Anchors);
        let mut s = SessionScript::new(&plans);
        s.advance(r#"{"v":1,"status":"error","error":{"code":"too_many_sessions","message":"x"}}"#);
        assert!(s.next_request().contains(r#""kind": "create""#));
    }

    #[test]
    fn generated_plans_cover_every_family_and_cycle() {
        let plans = build_plans(Workload::Generated { seed: 42 });
        assert_eq!(plans.len(), webrobot_benchmarks::GenFamily::ALL.len());
        for plan in &plans {
            assert!(plan.site.starts_with("gen-") && plan.site.ends_with("-42"));
            // 4 demonstrates from the pristine recording, then a finish.
            assert_eq!(plan.events.len(), 5);
            assert!(plan.events[0].contains(r#""type": "demonstrate""#));
            assert!(plan.events[4].contains(r#""type": "finish""#));
        }
        // The mixed family's recording opens with a real data-entry
        // action — the wire codec's enter_data path is on the script.
        assert!(
            plans.iter().any(|p| p.events[0].contains("enter_data")),
            "expected an EnterData demonstrate in some plan"
        );

        // The script walks a whole plan, then advances to the next site.
        let mut s = SessionScript::new(&plans);
        assert!(s.next_request().contains(&plans[0].site));
        s.advance(r#"{"v":1,"status":"ok","kind":"created","session":"s-1","mode":"demonstrate"}"#);
        for _ in 0..plans[0].events.len() + 2 {
            s.advance("ok");
        }
        assert!(s.next_request().contains(&plans[1].site));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn rows_carry_the_criterion_stub_shape_plus_extras() {
        let mut lat = vec![300, 100, 200];
        let row = row(&mut lat, &[("sessions_lost", 0)]);
        assert_eq!(row.field("mean_ns").and_then(Value::as_int), Some(200));
        assert_eq!(row.field("min_ns").and_then(Value::as_int), Some(100));
        assert_eq!(row.field("p99_ns").and_then(Value::as_int), Some(300));
        assert_eq!(row.field("samples").and_then(Value::as_int), Some(3));
        assert_eq!(row.field("sessions_lost").and_then(Value::as_int), Some(0));
    }
}
