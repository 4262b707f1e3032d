//! `webrobot-server` — the WebRobot session service on a TCP socket.
//!
//! ```text
//! webrobot-server [--addr 127.0.0.1:7411] [--shards N] [--store DIR]
//! ```
//!
//! Speaks the v1 JSON protocol with 4-byte big-endian length-prefixed
//! frames (`PROTOCOL.md` § Transport). A built-in demo site `"anchors"`
//! is registered so the server is drivable out of the box. `--store DIR`
//! attaches a persistent store rooted at `DIR`, making sessions survive
//! a restart: one log-structured [`webrobot_service::SegmentStore`]
//! shared by all shards. Once bound, the server prints
//! `webrobot-server listening on <addr> (<n> shards)` and serves until a
//! client sends the drain frame. `crates/server/tests/binary.rs` drives
//! this binary end to end, including a SIGKILL and restart on one store.

use std::process::ExitCode;
use std::sync::Arc;

use webrobot_browser::{Site, SiteBuilder};
use webrobot_data::Value;
use webrobot_dom::parse_html;
use webrobot_server::Server;
use webrobot_service::{SegmentStore, ServiceConfig, ShardedManager, SnapshotStore};

struct Options {
    addr: String,
    shards: usize,
    store: Option<String>,
}

const USAGE: &str = "usage: webrobot-server [--addr HOST:PORT] [--shards N] [--store DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7411".to_string(),
        shards: 2,
        store: None,
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match serve(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("webrobot-server: {message}");
            ExitCode::FAILURE
        }
    }
}
