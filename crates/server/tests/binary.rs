//! The `webrobot-server` binary end to end: its command line, recovery
//! from a SIGKILL on a segment store, and an accept loop that outlives
//! running out of descriptors. Every test spawns the real binary.

#![cfg(unix)]

use std::io::{BufRead as _, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

use webrobot_server::Client;

const EXE: &str = env!("CARGO_BIN_EXE_webrobot-server");

/// A store directory for one test, removed when the test ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(name: &str) -> TempDir {
    let name = format!("webrobot-binary-{name}-{}", std::process::id());
    TempDir(std::env::temp_dir().join(name))
}

/// A running server child. Dropping it kills the child with SIGKILL: no
/// destructors run and nothing is flushed on the way out.
struct Served {
    child: Child,
    /// The address the banner names.
    addr: String,
    /// The child's stderr, one line at a time, and the thread reading it.
    stderr: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Served {
    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the server")
    }
}

/// Spawns the server with two shards on an ephemeral port and a segment
/// store at `store`, under `ulimit -n nofile` when given, and reads the
/// bound address from its banner.
fn spawn(store: &TempDir, nofile: Option<u32>) -> Served {
    let mut command = match nofile {
        None => Command::new(EXE),
        Some(limit) => {
            let mut sh = Command::new("sh");
            // `$0` is the binary and `$@` its arguments: nothing to quote.
            let script = format!("ulimit -n {limit} && exec \"$0\" \"$@\"");
            sh.args(["-c", &script, EXE]);
            sh
        }
    };
    let mut child = command
        .args(["--addr", "127.0.0.1:0", "--shards", "2", "--store"])
        .arg(&store.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn webrobot-server");
    let (lines, stderr) = mpsc::channel();
    let pipe = child.stderr.take().expect("stderr is piped");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            lines.send(line).ok();
        }
    });
    // "webrobot-server listening on 127.0.0.1:PORT (2 shards)"
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut banner)
        .expect("read the banner");
    let addr = banner.split_whitespace().nth(3).map(str::to_string);
    let served = Served {
        child,
        addr: addr.unwrap_or_default(),
        stderr,
        reader: Some(reader),
    };
    assert!(!served.addr.is_empty(), "unexpected banner {banner:?}");
    served
}

/// Sends `request` and asserts that the reply contains `expect`.
fn call(client: &mut Client, request: &str, expect: &str) -> String {
    let reply = client
        .call(request)
        .unwrap_or_else(|e| panic!("{request}: {e}"));
    assert!(
        reply.contains(expect),
        "expected {expect} in the reply to {request}, got {reply}"
    );
    reply
}

fn accept(session: &str) -> String {
    format!(
        r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {{"type": "accept", "index": 0}}}}"#
    )
}

/// Creates `session` on the anchor site and drives it to its first
/// output: demonstrate the first two anchors, accept the third.
fn drive_to_outputs(client: &mut Client, session: &str) {
    call(
        client,
        r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
        &format!(r#""session":"{session}""#),
    );
    for i in 1..=2 {
        call(
            client,
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "{session}", "event":
                   {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
            ),
            r#""outcome":"recorded""#,
        );
    }
    call(client, &accept(session), r#""outputs":3"#);
}

fn outputs(client: &mut Client, session: &str) -> String {
    call(
        client,
        &format!(r#"{{"v": 1, "kind": "outputs", "session": "{session}"}}"#),
        "item 3",
    )
}

/// Drains the server over `client` and asserts the child exits 0.
fn drain_and_exit(mut served: Served, client: &mut Client) {
    let drained = client.drain().expect("drain");
    assert!(drained.contains(r#""kind":"drained""#), "{drained}");
    let status = served.child.wait().expect("reap the server");
    let stderr: Vec<String> = served.stderr.iter().collect();
    let reader = served.reader.take().expect("joined only here");
    reader.join().expect("the stderr reader finishes at EOF");
    assert!(status.success(), "{status}: {}", stderr.join("\n"));
}

#[test]
fn the_command_line_is_the_serving_path_only() {
    let out = Command::new(EXE).arg("--smoke").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument '--smoke'"), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l == "usage: webrobot-server [--addr HOST:PORT] [--shards N] [--store DIR]"),
        "{stderr}"
    );
}

/// Everything a `checkpoint` acknowledged survives a SIGKILL and a
/// restart on the same store byte for byte, and the sessions carry on.
/// There are two sessions because the segment store commits a write by
/// itself once its commit interval has passed since the last commit, so
/// on a slow run the checkpoint's first record is durable even without
/// the checkpoint's final flush; the second record is not.
#[test]
fn checkpointed_sessions_survive_kill_9_byte_identically() {
    let store = temp_dir("kill9");
    let sessions = ["s-1", "s-2"];
    let served = spawn(&store, None);
    let mut client = served.client();
    for session in sessions {
        drive_to_outputs(&mut client, session);
    }
    call(
        &mut client,
        r#"{"v": 1, "kind": "checkpoint"}"#,
        r#""kind":"checkpointed""#,
    );
    let before = sessions.map(|session| outputs(&mut client, session));
    // Killed while live: only what the checkpoint committed may
    // survive, and all of it must.
    drop(served);

    let served = spawn(&store, None);
    let mut client = served.client();
    for (session, before) in sessions.iter().zip(&before) {
        assert_eq!(
            &outputs(&mut client, session),
            before,
            "{session}'s outputs diverged across the kill"
        );
    }
    call(&mut client, &accept("s-1"), r#""outcome":"recorded""#);
    drain_and_exit(served, &mut client);
}

/// Running out of descriptors fails one `accept`, not the server. Under
/// `ulimit -n 32`, 64 idle connections (fewer than the listen backlog,
/// so every connect completes) exhaust the descriptors; the server logs
/// the failure, keeps serving the session it has, and accepts again once
/// the idle connections close.
#[cfg(target_os = "linux")]
#[test]
fn running_out_of_descriptors_never_ends_the_server() {
    let store = temp_dir("nofile");
    let mut served = spawn(&store, Some(32));
    let mut client = served.client();
    drive_to_outputs(&mut client, "s-1");
    let before = outputs(&mut client, "s-1");

    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&served.addr).expect("connect an idle client"))
        .collect();
    let logged = served
        .stderr
        .recv_timeout(Duration::from_secs(30))
        .expect("the server logs the failed accept");
    assert!(logged.contains("Too many open files"), "{logged}");
    assert_eq!(outputs(&mut client, "s-1"), before);
    assert!(
        served.child.try_wait().unwrap().is_none(),
        "the server exited"
    );

    drop(idle);
    call(
        &mut served.client(),
        r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
        r#""session":"s-2""#,
    );
    drain_and_exit(served, &mut client);
}
