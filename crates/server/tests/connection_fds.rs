//! Closed connections give their resources back: the server keeps no
//! descriptor for a connection that has ended. This is its own test
//! binary because the open-descriptor count it measures is process-wide.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
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

#[test]
fn connect_close_cycles_leave_the_descriptor_count_flat() {
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
