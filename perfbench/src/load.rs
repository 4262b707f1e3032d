//! The client side of the wire: a framed client with a per-request
//! timeout, the per-connection scripts, and the open and closed phases.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use webrobot_server::{read_frame, write_frame};

use crate::stats::{sender_lag, Schedule};
use crate::workload::{refusal, Class, SessionRun};

/// A request that takes longer than this counts as failed, and its
/// connection is abandoned: a hang is counted, not waited out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A tick the load generator itself sent this much later than it could have is
/// late (see [`sender_lag`]).
pub const LATE_BY: Duration = Duration::from_millis(2);

/// A connection whose requests the server refuses this many times in a row
/// gives up, so that a server that refuses forever ends the run.
const MAX_REFUSED_IN_A_ROW: u64 = 1000;

/// Round-robin connections read one session's outputs every this many
/// requests...
const PROBE_EVERY: u64 = 8;
/// ...and checkpoint the store every this many. A checkpoint writes every
/// dirty live session and syncs the disk, stalling both shards for tens of
/// milliseconds; this rare, the requests it stalls stay well under 1% of a
/// run, so the p99 measures eviction and restore, not the disk's sync.
const CHECKPOINT_EVERY: u64 = 2048;

/// One framed connection with a read timeout.
pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Wire { stream })
    }

    /// Sends one request frame and waits for its reply.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        write_frame(&mut self.stream, request.as_bytes())?;
        match read_frame(&mut self.stream)? {
            Some(reply) => Ok(String::from_utf8_lossy(&reply).into_owned()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

/// What a request is for, so its reply reaches the right check.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// The script's current session (queue) or session `i` (round robin).
    Session(usize),
    /// An outputs read of round-robin session `i`.
    Probe(usize),
    Checkpoint,
}

pub struct Outgoing {
    pub text: String,
    pub class: Class,
    target: Target,
}

/// The request stream of one connection.
#[derive(Clone)]
pub enum Script {
    /// Sessions one at a time, taken from a queue shared by every
    /// connection, each driven to its end.
    Queue {
        queue: Arc<Mutex<VecDeque<SessionRun>>>,
        current: Option<Box<SessionRun>>,
        done: Vec<SessionRun>,
    },
    /// A fixed set of open sessions, one request each in turn, with an
    /// outputs read every [`PROBE_EVERY`] requests and a checkpoint every
    /// [`CHECKPOINT_EVERY`].
    RoundRobin {
        sessions: Vec<SessionRun>,
        cursor: usize,
        sent: u64,
    },
}

impl Script {
    pub fn queue(queue: Arc<Mutex<VecDeque<SessionRun>>>) -> Script {
        Script::Queue {
            queue,
            current: None,
            done: Vec::new(),
        }
    }

    pub fn round_robin(sessions: Vec<SessionRun>) -> Script {
        Script::RoundRobin {
            sessions,
            cursor: 0,
            sent: 0,
        }
    }

    /// The next request, or `None` when the connection's work is done.
    pub fn next(&mut self) -> Option<Outgoing> {
        match self {
            Script::Queue {
                queue,
                current,
                done,
            } => loop {
                if current.is_none() {
                    *current = queue
                        .lock()
                        .expect("session queue lock")
                        .pop_front()
                        .map(Box::new);
                }
                let run = current.as_mut()?;
                if let Some((text, class)) = run.next_request() {
                    return Some(Outgoing {
                        text,
                        class,
                        target: Target::Session(0),
                    });
                }
                done.extend(current.take().map(|run| *run));
            },
            Script::RoundRobin {
                sessions,
                cursor,
                sent,
            } => {
                let n = sessions.len();
                let next = (0..n)
                    .map(|k| (*cursor + k) % n)
                    .find(|&i| !sessions[i].finished())?;
                *sent += 1;
                if *sent % CHECKPOINT_EVERY == 0 {
                    return Some(Outgoing {
                        text: r#"{"v":1,"kind":"checkpoint"}"#.to_string(),
                        class: Class::Other,
                        target: Target::Checkpoint,
                    });
                }
                if *sent % PROBE_EVERY == 0 {
                    return Some(Outgoing {
                        text: sessions[next].outputs_request(),
                        class: Class::Other,
                        target: Target::Probe(next),
                    });
                }
                *cursor = (next + 1) % n;
                let (text, class) = sessions[next].next_request()?;
                Some(Outgoing {
                    text,
                    class,
                    target: Target::Session(next),
                })
            }
        }
    }

    /// Checks and applies the reply to `out`. Returns whether a session
    /// finished with it.
    pub fn reply(&mut self, out: &Outgoing, reply: &str) -> Result<bool, String> {
        match (self, out.target) {
            (Script::Queue { current, done, .. }, Target::Session(_)) => {
                let run = current.as_mut().ok_or("reply with no current session")?;
                let result = run.on_reply(reply);
                if result.is_err() {
                    // The session cannot continue; keep it for the tally.
                    done.extend(current.take().map(|run| *run));
                    return result.map(|()| false);
                }
                Ok(run.finished())
            }
            (Script::RoundRobin { sessions, .. }, Target::Session(i)) => {
                sessions[i].on_reply(reply)?;
                Ok(sessions[i].finished())
            }
            (Script::RoundRobin { sessions, .. }, Target::Probe(i)) => {
                let checked = sessions[i].check_outputs(reply);
                if checked.is_err() {
                    sessions[i].abandon();
                }
                checked.map(|()| false)
            }
            (_, Target::Checkpoint) if reply.contains(r#""kind":"checkpointed""#) => Ok(false),
            (_, target) => Err(format!("unexpected reply for {target:?}: {reply}")),
        }
    }

    /// Every session this connection ran.
    pub fn sessions(&self) -> Vec<SessionRun> {
        match self {
            Script::Queue { current, done, .. } => {
                done.iter().chain(current.as_deref()).cloned().collect()
            }
            Script::RoundRobin { sessions, .. } => sessions.clone(),
        }
    }
}

/// One answered (or failed) request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From due time (open phase) or send time (closed phase) to reply.
    pub latency: Duration,
    /// From send time to reply.
    pub service: Duration,
    pub class: Class,
    pub open: bool,
    pub ok: bool,
}

/// What one connection did.
pub struct ConnOutcome {
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
    /// Open-phase ticks sent, and how many the load generator sent late.
    pub ticks: u64,
    pub late: u64,
    pub closed_start: Option<Instant>,
    pub closed_end: Option<Instant>,
    pub closed_sessions: u64,
    pub script: Script,
    refused_in_a_row: u64,
}

impl ConnOutcome {
    /// A connection that has sent nothing yet.
    pub fn new(script: Script) -> ConnOutcome {
        ConnOutcome {
            samples: Vec::new(),
            errors: Vec::new(),
            ticks: 0,
            late: 0,
            closed_start: None,
            closed_end: None,
            closed_sessions: 0,
            script,
            refused_in_a_row: 0,
        }
    }
}

/// Drives one connection: its share of the open-phase ticks on the
/// schedule, then (when `closed`) the rest of its script back to back.
/// Every connection meets the others at `barrier` between the phases.
pub fn drive(
    addr: &str,
    script: Script,
    conn: usize,
    schedule: Schedule,
    t0: Instant,
    barrier: &Barrier,
    closed: bool,
) -> ConnOutcome {
    let mut out = ConnOutcome::new(script);
    let mut wire = match Wire::connect(addr) {
        Ok(wire) => Some(wire),
        Err(e) => {
            out.errors.push(format!("connect {addr}: {e}"));
            None
        }
    };
    let mut prev_reply = Duration::ZERO;
    for tick in schedule.ticks_of(conn) {
        let Some(w) = wire.as_mut() else { break };
        let due = schedule.due(tick);
        let now = t0.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let Some(req) = out.script.next() else { break };
        let sent = t0.elapsed();
        out.ticks += 1;
        if sender_lag(due, prev_reply, sent) > LATE_BY {
            out.late += 1;
        }
        let result = exchange(w, &req, &mut out);
        let done = Instant::now();
        prev_reply = done.saturating_duration_since(t0);
        let sample = Sample {
            latency: prev_reply.saturating_sub(due),
            service: prev_reply.saturating_sub(sent),
            class: req.class,
            open: true,
            ok: result.is_ok(),
        };
        out.samples.push(sample);
        if result == Err(Failure::Dropped) {
            wire = None;
        }
    }
    barrier.wait();
    if !closed {
        return out;
    }
    let start = Instant::now();
    out.closed_start = Some(start);
    while let Some(w) = wire.as_mut() {
        let Some(req) = out.script.next() else { break };
        let sent = Instant::now();
        let result = exchange(w, &req, &mut out);
        let done = Instant::now();
        let took = done - sent;
        out.samples.push(Sample {
            latency: took,
            service: took,
            class: req.class,
            open: false,
            ok: result.is_ok(),
        });
        match result {
            Ok(true) => out.closed_sessions += 1,
            Err(Failure::Dropped) => wire = None,
            _ => {}
        }
    }
    out.closed_end = Some(Instant::now());
    out
}

/// Why a request failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Failure {
    /// The server refused it (see [`refusal`]); the script sends it again.
    Refused,
    /// The reply was wrong; the reason is in `errors`.
    Reply,
    /// The connection failed, timed out or kept being refused, and is
    /// abandoned; the reason is in `errors`.
    Dropped,
}

/// Sends one request and applies its reply; on success, whether a session
/// finished with it. A refusal leaves the script where it was and is not
/// an error: it counts as a failed request, not as a wrong output.
fn exchange(wire: &mut Wire, req: &Outgoing, out: &mut ConnOutcome) -> Result<bool, Failure> {
    let reply = wire.call(&req.text).map_err(|e| {
        out.errors.push(format!("io: {e} (request {})", req.text));
        Failure::Dropped
    })?;
    if let Some(code) = refusal(&reply) {
        out.refused_in_a_row += 1;
        if out.refused_in_a_row >= MAX_REFUSED_IN_A_ROW {
            out.errors.push(format!(
                "{MAX_REFUSED_IN_A_ROW} refusals in a row ({code}); connection abandoned"
            ));
            return Err(Failure::Dropped);
        }
        return Err(Failure::Refused);
    }
    out.refused_in_a_row = 0;
    out.script.reply(req, &reply).map_err(|e| {
        out.errors.push(format!("{e} (request {})", req.text));
        Failure::Reply
    })
}
