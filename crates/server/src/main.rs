//! `webrobot-server` — the WebRobot session service on a TCP socket.
//!
//! ```text
//! webrobot-server [--addr 127.0.0.1:7411] [--shards N] [--store DIR]
//!                 [--gen-sites SEED] [--smoke] [--resilience]
//! ```
//!
//! Speaks the v1 JSON protocol with 4-byte big-endian length-prefixed
//! frames (`PROTOCOL.md` § Transport). A built-in demo site `"anchors"`
//! is registered so the server is drivable out of the box, and
//! `--gen-sites SEED` additionally registers one procedurally generated
//! site per [`webrobot_benchmarks::GenFamily`] (named
//! `gen-<family>-<seed>`), giving load harnesses richer workloads than
//! the anchor page. `--store DIR` attaches a persistent store rooted at
//! `DIR`, making sessions survive a restart: one log-structured
//! [`webrobot_service::SegmentStore`] shared by all shards (a directory
//! of `<key>.json` records, as earlier releases wrote it, is imported on
//! open). `--smoke` runs an end-to-end self-check (bind an ephemeral
//! port, drive one session over real TCP, drain); `--resilience` goes
//! further — it spawns *this binary* as a store-backed child server,
//! checkpoints a session over TCP, kills the child with SIGKILL, restarts
//! it on the same store and asserts the session's outputs are
//! byte-identical across the kill. Both exit non-zero on any mismatch —
//! the forms CI runs.

use std::process::ExitCode;
use std::sync::Arc;

use webrobot_browser::{Site, SiteBuilder};
use webrobot_data::Value;
use webrobot_dom::parse_html;
use webrobot_server::{Client, Server};
use webrobot_service::{SegmentStore, ServiceConfig, ShardedManager, SnapshotStore};

struct Options {
    addr: String,
    shards: usize,
    store: Option<String>,
    gen_sites: Option<u64>,
    smoke: bool,
    resilience: bool,
}

const USAGE: &str = "usage: webrobot-server [--addr HOST:PORT] [--shards N] [--store DIR] \
                     [--gen-sites SEED] [--smoke] [--resilience]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7411".to_string(),
        shards: 2,
        store: None,
        gen_sites: None,
        smoke: false,
        resilience: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--shards" => {
                opts.shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "--shards needs a number".to_string())?
            }
            "--store" => opts.store = Some(it.next().ok_or("--store needs a value")?.clone()),
            "--gen-sites" => {
                opts.gen_sites = Some(
                    it.next()
                        .ok_or("--gen-sites needs a value")?
                        .parse()
                        .map_err(|_| "--gen-sites needs a u64 seed".to_string())?,
                )
            }
            "--smoke" => opts.smoke = true,
            "--resilience" => opts.resilience = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The demo site: one page of anchors, enough to demonstrate, authorize
/// and automate a scrape loop over the wire.
fn anchor_site() -> Arc<Site> {
    let body: String = (1..=8).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://anchors.test/",
        parse_html(&format!("<html>{body}</html>")).expect("demo site parses"),
    );
    Arc::new(b.start_at(home).finish())
}

fn build_manager(opts: &Options) -> Result<ShardedManager, String> {
    let cfg = ServiceConfig::builder()
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let manager = match &opts.store {
        Some(dir) => {
            // One log for the whole deployment; the shards share it
            // through cloned handles.
            let handle = SegmentStore::open(dir)
                .map_err(|e| format!("open store '{dir}': {e}"))?
                .into_shared();
            let stores: Vec<Box<dyn SnapshotStore>> = (0..opts.shards.max(1))
                .map(|_| Box::new(handle.clone()) as Box<dyn SnapshotStore>)
                .collect();
            ShardedManager::with_stores(cfg, stores)
                .map_err(|e| format!("reopen store '{dir}': {e}"))?
        }
        None => ShardedManager::new(cfg, opts.shards),
    };
    manager.register_site("anchors", anchor_site(), Value::Object(vec![]));
    if let Some(seed) = opts.gen_sites {
        for family in webrobot_benchmarks::GenFamily::ALL {
            let b = webrobot_benchmarks::generated(family, seed);
            manager.register_site(format!("gen-{}-{seed}", family.key()), b.site, b.input);
        }
    }
    Ok(manager)
}

fn serve(opts: &Options) -> Result<(), String> {
    let manager = build_manager(opts)?;
    let server =
        Server::bind(manager, &opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "webrobot-server listening on {addr} ({} shards)",
        opts.shards
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

/// End-to-end self-check over real TCP: create → demonstrate ×2 →
/// accept → outputs → drain, asserting each reply.
fn smoke(opts: &Options) -> Result<(), String> {
    let manager = build_manager(opts)?;
    let server = Server::bind(manager, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let serving = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut call = |request: &str, expect: &str| -> Result<(), String> {
        let reply = client.call(request).map_err(|e| format!("call: {e}"))?;
        if reply.contains(expect) {
            Ok(())
        } else {
            Err(format!(
                "expected '{expect}' in reply to {request}, got {reply}"
            ))
        }
    };
    call(
        r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
        r#""session":"s-1""#,
    )?;
    for i in 1..=2 {
        call(
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "s-1", "event":
                   {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
            ),
            r#""outcome":"recorded""#,
        )?;
    }
    call(
        r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
        r#""outputs":3"#,
    )?;
    call(r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#, "item 3")?;
    let drained = Client::connect(addr)
        .and_then(|mut c| c.drain())
        .map_err(|e| format!("drain: {e}"))?;
    if !drained.contains(r#""kind":"drained""#) {
        return Err(format!("expected drained reply, got {drained}"));
    }
    match serving.join() {
        Ok(Ok(())) => {
            println!("smoke ok: session driven and drained on {addr}");
            Ok(())
        }
        Ok(Err(e)) => Err(format!("server exited with {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

/// Spawns this binary as a store-backed child server on an ephemeral
/// port and returns the child plus the address it printed in its banner.
fn spawn_child_server(dir: &std::path::Path) -> Result<(std::process::Child, String), String> {
    use std::io::BufRead as _;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir_arg = dir.to_string_lossy().into_owned();
    let mut child = std::process::Command::new(exe)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--store",
            dir_arg.as_str(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child server: {e}"))?;
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .map_err(|e| format!("read child banner: {e}"))?;
    // "webrobot-server listening on 127.0.0.1:PORT (2 shards)"
    match banner.split_whitespace().nth(3) {
        Some(addr) => Ok((child, addr.to_string())),
        None => {
            child.kill().ok();
            child.wait().ok();
            Err(format!("unexpected child banner: {banner:?}"))
        }
    }
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

/// First life of the child: drive a session to having outputs, checkpoint
/// it (which flushes the store), and return the outputs reply verbatim.
fn resilience_before_kill(addr: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
        r#""session":"s-1""#,
    )?;
    for i in 1..=2 {
        checked_call(
            &mut client,
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "s-1", "event":
                   {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
            ),
            r#""outcome":"recorded""#,
        )?;
    }
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
        r#""outputs":3"#,
    )?;
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "checkpoint"}"#,
        r#""kind":"checkpointed""#,
    )?;
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#,
        "item 3",
    )
}

/// Second life: the restarted child must serve the exact same outputs,
/// continue the workflow, and drain cleanly.
fn resilience_after_restart(addr: &str, outputs_before: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let outputs_after = checked_call(
        &mut client,
        r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#,
        "item 3",
    )?;
    if outputs_before != outputs_after {
        return Err(format!(
            "outputs diverged across the kill:\n  before: {outputs_before}\n  after:  {outputs_after}"
        ));
    }
    checked_call(
        &mut client,
        r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
        r#""outcome":"recorded""#,
    )?;
    let drained = Client::connect(addr)
        .and_then(|mut c| c.drain())
        .map_err(|e| format!("drain: {e}"))?;
    if !drained.contains(r#""kind":"drained""#) {
        return Err(format!("expected drained reply, got {drained}"));
    }
    Ok(())
}

/// Crash-resilience self-check: child server, TCP load, checkpoint, kill
/// -9, restart on the same store, byte-identity. Exercises the real
/// recovery path — no drop-flush, no in-process shortcuts.
fn resilience() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("webrobot-resilience-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let (mut child, addr) = spawn_child_server(&dir)?;
    let before = resilience_before_kill(&addr);
    // SIGKILL, deliberately while the server is live: only what the
    // checkpoint committed may survive — and everything it committed must.
    child.kill().map_err(|e| format!("kill child: {e}"))?;
    child.wait().map_err(|e| format!("reap child: {e}"))?;
    let before = before?;

    let (mut child, addr) = spawn_child_server(&dir)?;
    let verdict = resilience_after_restart(&addr, &before);
    if verdict.is_err() {
        child.kill().ok();
    }
    child.wait().map_err(|e| format!("reap child: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    verdict?;

    println!("resilience ok: session survived kill -9 byte-identically");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = if opts.resilience {
        resilience()
    } else if opts.smoke {
        smoke(&opts)
    } else {
        serve(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("webrobot-server: {message}");
            ExitCode::FAILURE
        }
    }
}
