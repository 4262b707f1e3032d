//! A connection costs the server one descriptor while it is open, and
//! none once it has ended. This is its own test binary because the
//! open-descriptor count it measures is process-wide; its tests take
//! [`SERIAL`] so neither counts the other's descriptors.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use webrobot_server::{Client, Server};
use webrobot_service::{ServiceConfig, ShardedManager};

/// Descriptors the test process holds open right now.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd lists this process's descriptors")
        .count()
}

/// How far above the starting count the process may end: a few
/// descriptors for whatever connection threads are still winding down.
const SLACK: usize = 16;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn connect_close_cycles_leave_the_descriptor_count_flat() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::bind(
        ShardedManager::new(ServiceConfig::default(), 1),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run());
    // One full request first, so every lazily opened descriptor exists
    // before the baseline is taken.
    let reply = Client::connect(addr)
        .unwrap()
        .call(r#"{"v": 1, "kind": "metrics"}"#)
        .unwrap();
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    let baseline = open_fds();

    for _ in 0..2000 {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Each connection thread sees its EOF on its own schedule; give them
    // a bounded while to finish.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut open = open_fds();
    while open > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_fds();
    }
    assert!(
        open <= baseline + SLACK,
        "2000 closed connections left {} descriptors open (baseline {baseline})",
        open - baseline
    );

    let drained = Client::connect(addr).unwrap().drain().unwrap();
    assert!(drained.contains(r#""kind":"drained""#), "{drained}");
    serving.join().unwrap().unwrap();
}

#[test]
fn an_open_connection_costs_one_server_descriptor() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::bind(
        ShardedManager::new(ServiceConfig::default(), 1),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run());
    let metrics = r#"{"v": 1, "kind": "metrics"}"#;
    let reply = Client::connect(addr).unwrap().call(metrics).unwrap();
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    let baseline = open_fds();

    // A reply proves the connection's thread is serving it, so every
    // descriptor the server will hold for it is open.
    const CONNECTIONS: usize = 50;
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    for client in &mut clients {
        let reply = client.call(metrics).unwrap();
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    // One descriptor is the client's and one the server's.
    let open = open_fds();
    assert!(
        open <= baseline + 2 * CONNECTIONS + SLACK,
        "{CONNECTIONS} open connections hold {} descriptors (baseline {baseline})",
        open - baseline
    );

    drop(clients);
    let drained = Client::connect(addr).unwrap().drain().unwrap();
    assert!(drained.contains(r#""kind":"drained""#), "{drained}");
    serving.join().unwrap().unwrap();
}
