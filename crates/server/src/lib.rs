//! TCP front end for the WebRobot session service.
//!
//! [`webrobot_service::ShardedManager`] is transport-agnostic: strings in,
//! strings out. This crate puts it on a socket — the `webrobot-server`
//! binary listens on TCP loopback and speaks the v1 JSON protocol with
//! **length-prefixed framing** (see `PROTOCOL.md` § Transport):
//!
//! * every frame is a 4-byte big-endian payload length followed by that
//!   many bytes of UTF-8 JSON — hand-rolled, no new dependencies, the
//!   same discipline as the `webrobot_data` codec;
//! * each connection is served by its own thread, all threads sharing one
//!   [`ShardedManager`] (it is `Sync` by design), so any number of
//!   clients multiplex onto the shard workers;
//! * requests on one connection are answered in order; concurrency comes
//!   from opening multiple connections;
//! * overload is a *typed reply*, not a hang: when a shard's admission
//!   queue is full the client receives the protocol's `overloaded` error
//!   and is expected to back off;
//! * the transport-level `{"v": 1, "kind": "drain"}` frame triggers a
//!   graceful shutdown: the listener stops accepting, live sessions are
//!   checkpointed (when a store is attached), every idle connection is
//!   closed, and the draining client receives
//!   `{"v": 1, "kind": "drained", "sessions": n}` before its connection
//!   closes too.
//!
//! The [`Server`]/[`Client`] pair is the embeddable form used by the
//! integration tests; the repository benchmark (`perfbench/`) serves
//! through [`Server`] too, and `src/main.rs` wraps it in a binary.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};
use webrobot_service::{Request, Response, ShardedManager};

/// Hard cap on a single frame's payload (16 MiB). A length prefix beyond
/// this is treated as a corrupt stream and the connection is dropped —
/// a misbehaving client must not make the server allocate unboundedly.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// How long the accept loop waits after a failed `accept` before it
/// tries again. The usual cause, running out of descriptors, clears only
/// when some connection closes, so retrying at once would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Writes one length-prefixed frame: 4-byte big-endian payload length,
/// then the payload, then a flush.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when `payload` exceeds [`MAX_FRAME`];
/// otherwise any I/O error from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean close
/// (EOF on a frame boundary).
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-frame,
/// [`io::ErrorKind::InvalidData`] when the announced length exceeds
/// [`MAX_FRAME`]; otherwise any I/O error from the underlying reader.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Connection-shared server state.
struct Shared {
    manager: ShardedManager,
    draining: AtomicBool,
    addr: SocketAddr,
    /// Every open connection's stream, keyed by its accept number and
    /// shared with the thread serving it (one descriptor per connection),
    /// so a drain can close idle connections that are blocked reading
    /// their next frame. Each connection removes its own entry when it
    /// ends, so the registry holds open connections only.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
}

/// A connection's entry in [`Shared::conns`], removed when the
/// connection ends — normally or by unwinding.
struct Registration<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

impl Shared {
    /// Executes a drain: stop accepting, checkpoint what can be
    /// checkpointed, close every other connection, wake the accept loop.
    /// Returns the JSON reply owed to the draining client.
    fn drain(&self) -> String {
        self.draining.store(true, Ordering::SeqCst);
        let reply = match self.manager.handle(Request::Checkpoint) {
            Response::Checkpointed { sessions } => drained_reply(sessions),
            // A storeless deployment has nothing to flush; the drain
            // still succeeds (sessions simply end with the process).
            Response::Error { ref code, .. } if code == "no_store" => drained_reply(0),
            error => error.to_json(),
        };
        // Close the *read* side of every connection: threads blocked in
        // `read_frame` see EOF and exit after finishing their current
        // request; replies already in flight still go out.
        for (_, conn) in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
        {
            conn.shutdown(Shutdown::Read).ok();
        }
        // Wake the accept loop so `run` can return.
        TcpStream::connect(self.addr).ok();
        reply
    }
}

/// The `{"v": 1, "kind": "drained", "sessions": n}` reply frame.
fn drained_reply(sessions: usize) -> String {
    Value::Object(vec![
        ("v".to_string(), Value::Int(1)),
        ("kind".to_string(), Value::str("drained")),
        ("sessions".to_string(), Value::Int(sessions as i64)),
    ])
    .to_json()
}

/// `true` for the transport-level drain frame, which is intercepted
/// before [`Request::from_json`] ever sees it.
fn is_drain(text: &str) -> bool {
    matches!(
        parse_json(text).ok().as_ref().and_then(|v| v.field("kind")),
        Some(Value::Str(kind)) if kind == "drain"
    )
}

/// A TCP listener bound to a [`ShardedManager`]: accepts connections and
/// serves length-prefixed v1 JSON frames until drained.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    /// Register the sites the manager should serve *before* calling
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn bind(manager: ShardedManager, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                manager,
                draining: AtomicBool::new(false),
                addr,
                conns: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any I/O error from querying the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The manager behind the socket, e.g. to register sites.
    pub fn manager(&self) -> &ShardedManager {
        &self.shared.manager
    }

    /// Accepts and serves connections until a client sends the drain
    /// frame, then joins every connection thread and returns. Dropping
    /// the returned server flushes store-backed sessions (the manager's
    /// flush-on-drop contract).
    ///
    /// # Errors
    ///
    /// Returns no error of its own. A failed `accept` (for example EMFILE
    /// when the process is out of descriptors) is logged once per run of
    /// consecutive failures and retried after a 50 ms back-off, so it
    /// never ends the server or an open connection. Per-connection errors
    /// (and panics) only terminate that connection.
    pub fn run(self) -> io::Result<()> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut accept_failing = false;
        for (id, conn) in (0u64..).zip(self.listener.incoming()) {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    if !accept_failing {
                        eprintln!("webrobot-server: accept failed, retrying: {e}");
                    }
                    accept_failing = true;
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
            };
            accept_failing = false;
            // A frame is two small writes (header + payload); without
            // TCP_NODELAY, Nagle holding the second write for the peer's
            // delayed ACK adds ~40ms per round trip on loopback.
            stream.set_nodelay(true).ok();
            // Finished connections need no join: drop their handles, so
            // the list only ever tracks open connections.
            workers.retain(|worker| !worker.is_finished());
            let shared = self.shared.clone();
            workers.push(std::thread::spawn(move || {
                serve_connection(id, stream, &shared)
            }));
        }
        for worker in workers {
            worker.join().ok();
        }
        Ok(())
    }
}

/// One connection: frames in, frames out, in order, until the client
/// closes, a framing error occurs, or a drain ends the world.
fn serve_connection(id: u64, stream: TcpStream, shared: &Shared) {
    let stream = Arc::new(stream);
    shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(id, stream.clone());
    let _registration = Registration { shared, id };
    // `&TcpStream` reads and writes, so the registry's handle and this
    // thread's are one socket.
    let mut stream = &*stream;
    // A clean close, a truncated frame, and a drain-initiated shutdown
    // all end the connection the same way: stop reading.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let started = Instant::now();
        let text = String::from_utf8_lossy(&frame);
        if is_drain(&text) {
            let reply = shared.drain();
            write_frame(&mut stream, reply.as_bytes()).ok();
            break;
        }
        let reply = shared.manager.handle_json(&text);
        let written = write_frame(&mut stream, reply.as_bytes());
        // The transport histogram spans frame-received → reply-written:
        // service handling plus reply serialization and socket write,
        // but never the idle wait for the client's next frame.
        shared.manager.metrics().record_transport(started.elapsed());
        if written.is_err() {
            break;
        }
    }
    stream.shutdown(Shutdown::Both).ok();
}

/// A blocking client for the framed protocol — one request, one reply,
/// in order. Used by the integration tests and any Rust-side tooling
/// that wants to drive a running server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Any I/O error from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Mirror of the server side: the header/payload write pair must
        // not wait out Nagle + delayed ACK.
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sends one JSON request frame and awaits the reply frame.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the server closes before
    /// replying; otherwise any I/O error from the socket.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        write_frame(&mut self.stream, request.as_bytes())?;
        match read_frame(&mut self.stream)? {
            Some(reply) => Ok(String::from_utf8_lossy(&reply).into_owned()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )),
        }
    }

    /// Asks the server to drain and returns its `drained` reply.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn drain(&mut self) -> io::Result<String> {
        self.call(r#"{"v": 1, "kind": "drain"}"#)
    }
}
