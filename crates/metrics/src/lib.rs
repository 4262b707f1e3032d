//! Lock-free service metrics for the WebRobot reproduction.
//!
//! This crate is deliberately tiny and dependency-free: every recording
//! point is a handful of `Relaxed` atomic adds, so instrumentation can sit
//! on the hot request path of the sharded service without perturbing the
//! latencies it measures. Three primitives are provided:
//!
//! - [`Histogram`]: a fixed-bucket log2 latency histogram (nanoseconds).
//!   Buckets double in width, so 40 buckets span 1 ns to ~18 minutes with
//!   bounded relative error, and recording is two shifts plus four atomic
//!   adds — no allocation, no locks, no floating point.
//! - per-request-kind counters ([`RequestKind`]): ok count plus an
//!   error-by-code breakdown over the service's closed set of wire error
//!   codes ([`ERROR_CODES`]).
//! - per-shard gauges ([`ShardGauges`]): queue depth, in-flight, parked /
//!   live / evicted / dirty sessions, and store I/O totals.
//!
//! Everything hangs off one [`Metrics`] registry, shared by `Arc` between
//! the shard workers, the session managers, and the TCP front end.
//! [`Metrics::snapshot`] copies the counters into plain-data
//! [`MetricsSnapshot`] structs cheap enough to scrape under load; the wire
//! encoding lives in `webrobot_service`, which keeps this crate free of
//! protocol concerns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Version stamp for the snapshot shape; bump on incompatible change.
pub const METRICS_VERSION: u64 = 1;

/// Number of log2 histogram buckets. Bucket `i` covers durations whose
/// nanosecond count has highest set bit `i`, i.e. `[2^i, 2^(i+1))`, except
/// bucket 0 which also absorbs 0 ns and the last bucket which is open-ended
/// (everything at or above `2^(BUCKETS-1)` ns, ~9.2 minutes).
pub const BUCKETS: usize = 40;

/// The closed set of wire error codes the service can emit, plus a trailing
/// `"other"` catch-all so an unknown code can never be dropped. Order is
/// part of the snapshot shape.
pub const ERROR_CODES: [&str; 15] = [
    "bad_request",
    "unsupported_version",
    "unknown_site",
    "unknown_session",
    "too_many_sessions",
    "invalid_prediction",
    "session_closed",
    "wrong_mode",
    "browser_error",
    "no_store",
    "store_io",
    "snapshot_corrupt",
    "overloaded",
    "shard_down",
    "other",
];

/// Index of a wire error code in [`ERROR_CODES`]; unknown codes map to the
/// trailing `"other"` slot.
pub fn error_code_index(code: &str) -> usize {
    ERROR_CODES
        .iter()
        .position(|c| *c == code)
        .unwrap_or(ERROR_CODES.len() - 1)
}

/// The request kinds the service distinguishes when counting, mirroring the
/// v1 wire protocol plus a `Malformed` bucket for frames that fail to
/// decode into any request at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `{"kind":"create"}` — open a session.
    Create,
    /// `{"kind":"event"}` — drive a session event.
    Event,
    /// `{"kind":"outputs"}` — read a session's output log.
    Outputs,
    /// `{"kind":"metrics"}` — versioned observability snapshot.
    Metrics,
    /// `{"kind":"close"}` — close a session.
    Close,
    /// `{"kind":"checkpoint"}` — force a durable checkpoint.
    Checkpoint,
    /// `{"kind":"recover"}` — reload sessions from the store.
    Recover,
    /// A frame that failed to decode as any v1 request.
    Malformed,
}

impl RequestKind {
    /// Every kind, in snapshot order.
    pub const ALL: [RequestKind; 8] = [
        RequestKind::Create,
        RequestKind::Event,
        RequestKind::Outputs,
        RequestKind::Metrics,
        RequestKind::Close,
        RequestKind::Checkpoint,
        RequestKind::Recover,
        RequestKind::Malformed,
    ];

    /// Stable lowercase name used on the wire and in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Create => "create",
            RequestKind::Event => "event",
            RequestKind::Outputs => "outputs",
            RequestKind::Metrics => "metrics",
            RequestKind::Close => "close",
            RequestKind::Checkpoint => "checkpoint",
            RequestKind::Recover => "recover",
            RequestKind::Malformed => "malformed",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).unwrap_or(0)
    }
}

/// Returns the bucket index for a duration of `ns` nanoseconds.
fn bucket_of(ns: u64) -> usize {
    // `ns | 1` makes 0 land in bucket 0 without a branch; the last bucket
    // is open-ended so indices clamp there.
    ((63 - (ns | 1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Nominal inclusive upper bound (ns) of bucket `idx`. The last bucket is
/// open-ended; its nominal bound is simply the top of its first octave,
/// callers should clamp reported quantiles to the observed max.
pub fn bucket_bound(idx: usize) -> u64 {
    let shift = (idx as u32 + 1).min(63);
    (1u64 << shift) - 1
}

/// A lock-free fixed-bucket log2 latency histogram.
///
/// All counters are `Relaxed` atomics: totals are exact (every `record` is
/// counted exactly once), but a concurrent `snapshot` may observe a state
/// where `count` and the bucket totals differ transiently by in-flight
/// recordings. Quiescent snapshots are exact.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, all-zero histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one duration. Saturates at `u64::MAX` nanoseconds (~584
    /// years), far beyond any real request.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`Histogram`] at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded events.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded duration, nanoseconds.
    pub max_ns: u64,
    /// Per-bucket counts; `buckets.len() == BUCKETS`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank percentile estimate in nanoseconds.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// requested rank and reports that bucket's nominal upper bound,
    /// clamped to the observed maximum (so `percentile(100) <= max_ns`
    /// always holds). Relative error is bounded by the octave bucket width.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = pct.min(100);
        // Nearest-rank: ceil(count * pct / 100), at least 1.
        let rank = self.count.saturating_mul(pct).div_ceil(100);
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*bucket);
            if seen >= rank {
                return bucket_bound(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Counters for one request kind: successes, error-by-code, and a latency
/// histogram over all responses of that kind (ok and error alike).
#[derive(Debug)]
struct KindCell {
    ok: AtomicU64,
    errors: [AtomicU64; ERROR_CODES.len()],
    latency: Histogram,
}

impl KindCell {
    fn new() -> KindCell {
        KindCell {
            ok: AtomicU64::new(0),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Histogram::new(),
        }
    }
}

/// Per-shard point-in-time gauges, refreshed by the shard's worker thread
/// (or, for queue depth, overwritten by the front end from its own
/// in-flight accounting at scrape time).
#[derive(Debug, Default)]
pub struct ShardGauges {
    queue_depth: AtomicU64,
    parked_sessions: AtomicU64,
    live_sessions: AtomicU64,
    evicted_sessions: AtomicU64,
    dirty_sessions: AtomicU64,
    store_puts: AtomicU64,
    store_removes: AtomicU64,
    store_bytes: AtomicU64,
    store_fsyncs: AtomicU64,
    store_compactions: AtomicU64,
}

impl ShardGauges {
    /// Sets the queued + in-flight request count for the shard.
    pub fn set_queue_depth(&self, v: u64) {
        self.queue_depth.store(v, Ordering::Relaxed);
    }

    /// Sets the number of sessions parked mid-event awaiting a new quantum.
    pub fn set_parked_sessions(&self, v: u64) {
        self.parked_sessions.store(v, Ordering::Relaxed);
    }

    /// Sets the session residency gauges.
    pub fn set_sessions(&self, live: u64, evicted: u64, dirty: u64) {
        self.live_sessions.store(live, Ordering::Relaxed);
        self.evicted_sessions.store(evicted, Ordering::Relaxed);
        self.dirty_sessions.store(dirty, Ordering::Relaxed);
    }

    /// Sets the cumulative store I/O totals as observed by this shard.
    pub fn set_store_io(&self, puts: u64, removes: u64, bytes: u64, fsyncs: u64, compactions: u64) {
        self.store_puts.store(puts, Ordering::Relaxed);
        self.store_removes.store(removes, Ordering::Relaxed);
        self.store_bytes.store(bytes, Ordering::Relaxed);
        self.store_fsyncs.store(fsyncs, Ordering::Relaxed);
        self.store_compactions.store(compactions, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ShardGaugesSnapshot {
        ShardGaugesSnapshot {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            parked_sessions: self.parked_sessions.load(Ordering::Relaxed),
            live_sessions: self.live_sessions.load(Ordering::Relaxed),
            evicted_sessions: self.evicted_sessions.load(Ordering::Relaxed),
            dirty_sessions: self.dirty_sessions.load(Ordering::Relaxed),
            store_puts: self.store_puts.load(Ordering::Relaxed),
            store_removes: self.store_removes.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            store_fsyncs: self.store_fsyncs.load(Ordering::Relaxed),
            store_compactions: self.store_compactions.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of one shard's gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardGaugesSnapshot {
    /// Requests queued or in flight on the shard.
    pub queue_depth: u64,
    /// Sessions parked mid-event awaiting their next quantum.
    pub parked_sessions: u64,
    /// Sessions with a live in-memory `Session`.
    pub live_sessions: u64,
    /// Sessions evicted to snapshots.
    pub evicted_sessions: u64,
    /// Sessions with unsynced changes since the last checkpoint.
    pub dirty_sessions: u64,
    /// Cumulative store record writes.
    pub store_puts: u64,
    /// Cumulative store record removals.
    pub store_removes: u64,
    /// Cumulative bytes handed to the store.
    pub store_bytes: u64,
    /// Cumulative durability syncs issued by the store.
    pub store_fsyncs: u64,
    /// Cumulative segment compactions.
    pub store_compactions: u64,
}

/// The shared metrics registry: one per service (standalone manager or
/// sharded front end), shared by `Arc` with every component that records.
#[derive(Debug)]
pub struct Metrics {
    requests: [KindCell; RequestKind::ALL.len()],
    evict: Histogram,
    restore: Histogram,
    checkpoint: Histogram,
    transport: Histogram,
    quanta: AtomicU64,
    parks: AtomicU64,
    shards: Vec<ShardGauges>,
}

impl Metrics {
    /// A fresh registry with gauge slots for `shards` shards (min 1).
    pub fn new(shards: usize) -> Metrics {
        Metrics {
            requests: std::array::from_fn(|_| KindCell::new()),
            evict: Histogram::new(),
            restore: Histogram::new(),
            checkpoint: Histogram::new(),
            transport: Histogram::new(),
            quanta: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            shards: (0..shards.max(1)).map(|_| ShardGauges::default()).collect(),
        }
    }

    /// Number of shard gauge slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The gauge slot for shard `index` (clamped to the last slot).
    pub fn shard(&self, index: usize) -> &ShardGauges {
        &self.shards[index.min(self.shards.len() - 1)]
    }

    /// Records one completed request: its kind, the error code if the
    /// response was an error, and the observed latency.
    pub fn record_request(&self, kind: RequestKind, error_code: Option<&str>, elapsed: Duration) {
        let cell = &self.requests[kind.index()];
        match error_code {
            None => {
                cell.ok.fetch_add(1, Ordering::Relaxed);
            }
            Some(code) => {
                cell.errors[error_code_index(code)].fetch_add(1, Ordering::Relaxed);
            }
        }
        cell.latency.record(elapsed);
    }

    /// Records one session eviction (live → snapshot).
    pub fn record_evict(&self, elapsed: Duration) {
        self.evict.record(elapsed);
    }

    /// Records one session restore (snapshot → live).
    pub fn record_restore(&self, elapsed: Duration) {
        self.restore.record(elapsed);
    }

    /// Records one durable checkpoint.
    pub fn record_checkpoint(&self, elapsed: Duration) {
        self.checkpoint.record(elapsed);
    }

    /// Records one TCP read→reply span.
    pub fn record_transport(&self, elapsed: Duration) {
        self.transport.record(elapsed);
    }

    /// Counts one scheduler quantum granted to a session event.
    pub fn record_quantum(&self) {
        self.quanta.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one park (an event exhausted its quantum and yielded).
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every counter, histogram, and gauge into a plain-data
    /// snapshot. Cost is a fixed ~600 relaxed loads — cheap enough to
    /// scrape at high frequency under load.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            version: METRICS_VERSION,
            requests: RequestKind::ALL
                .iter()
                .map(|kind| {
                    let cell = &self.requests[kind.index()];
                    RequestStats {
                        kind: kind.name(),
                        ok: cell.ok.load(Ordering::Relaxed),
                        errors: ERROR_CODES
                            .iter()
                            .zip(cell.errors.iter())
                            .map(|(code, n)| (*code, n.load(Ordering::Relaxed)))
                            .filter(|(_, n)| *n > 0)
                            .collect(),
                        latency: cell.latency.snapshot(),
                    }
                })
                .collect(),
            evict: self.evict.snapshot(),
            restore: self.restore.snapshot(),
            checkpoint: self.checkpoint.snapshot(),
            transport: self.transport.snapshot(),
            quanta: self.quanta.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            shards: self.shards.iter().map(ShardGauges::snapshot).collect(),
        }
    }
}

/// Counters for one request kind at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Stable kind name (`"create"`, `"event"`, …).
    pub kind: &'static str,
    /// Requests answered with `"status":"ok"`.
    pub ok: u64,
    /// Non-zero error counts as `(code, count)` pairs, in [`ERROR_CODES`]
    /// order.
    pub errors: Vec<(&'static str, u64)>,
    /// Latency over all responses of this kind (ok and error alike).
    pub latency: HistogramSnapshot,
}

impl RequestStats {
    /// Total error count across all codes.
    pub fn errors_total(&self) -> u64 {
        self.errors.iter().map(|(_, n)| n).sum()
    }
}

/// Plain-data copy of the whole registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Snapshot shape version ([`METRICS_VERSION`]).
    pub version: u64,
    /// One entry per [`RequestKind`], in [`RequestKind::ALL`] order.
    pub requests: Vec<RequestStats>,
    /// Latency of session evictions.
    pub evict: HistogramSnapshot,
    /// Latency of session restores.
    pub restore: HistogramSnapshot,
    /// Latency of durable checkpoints.
    pub checkpoint: HistogramSnapshot,
    /// Latency of TCP read→reply spans.
    pub transport: HistogramSnapshot,
    /// Scheduler quanta granted.
    pub quanta: u64,
    /// Scheduler parks (quantum exhausted mid-event).
    pub parks: u64,
    /// One gauge set per shard.
    pub shards: Vec<ShardGaugesSnapshot>,
}

impl MetricsSnapshot {
    /// The per-kind stats for `kind`, if present.
    pub fn request(&self, kind: RequestKind) -> Option<&RequestStats> {
        self.requests.iter().find(|r| r.kind == kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_of_is_log2_with_zero_in_bucket_zero() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_cover_their_buckets() {
        for idx in 0..BUCKETS {
            let bound = bucket_bound(idx);
            if idx + 1 < BUCKETS {
                assert!(bucket_of(bound) == idx, "bound {bound} not in bucket {idx}");
                assert!(bucket_bound(idx + 1) > bound);
            }
        }
    }

    #[test]
    fn histogram_counts_and_percentiles() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 4, 100] {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 5);
        assert_eq!(snap.max_ns, 100_000_000);
        assert!(snap.mean_ns() >= 1_000_000);
        // p50 falls in the 2–4 ms octaves; p100 clamps to the max.
        assert!(snap.percentile(50) < 100_000_000);
        assert_eq!(snap.percentile(100), 100_000_000);
        assert_eq!(HistogramSnapshot::default().percentile(99), 0);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn request_counters_split_ok_and_error_by_code() {
        let m = Metrics::new(2);
        m.record_request(RequestKind::Event, None, Duration::from_micros(10));
        m.record_request(RequestKind::Event, None, Duration::from_micros(20));
        m.record_request(
            RequestKind::Event,
            Some("unknown_session"),
            Duration::from_micros(5),
        );
        m.record_request(
            RequestKind::Event,
            Some("not-a-real-code"),
            Duration::from_micros(5),
        );
        let snap = m.snapshot();
        let event = snap.request(RequestKind::Event).unwrap();
        assert_eq!(event.ok, 2);
        assert_eq!(event.errors, vec![("unknown_session", 1), ("other", 1)]);
        assert_eq!(event.errors_total(), 2);
        assert_eq!(event.latency.count, 4);
        assert_eq!(snap.request(RequestKind::Create).unwrap().ok, 0);
        assert_eq!(snap.shards.len(), 2);
    }

    #[test]
    fn gauges_round_trip_and_shard_index_clamps() {
        let m = Metrics::new(1);
        m.shard(0).set_queue_depth(7);
        m.shard(0).set_parked_sessions(2);
        m.shard(0).set_sessions(3, 4, 5);
        m.shard(0).set_store_io(10, 1, 2048, 6, 1);
        // Out-of-range shard indices clamp instead of panicking.
        m.shard(99).set_queue_depth(9);
        let snap = m.snapshot();
        assert_eq!(
            snap.shards[0],
            ShardGaugesSnapshot {
                queue_depth: 9,
                parked_sessions: 2,
                live_sessions: 3,
                evicted_sessions: 4,
                dirty_sessions: 5,
                store_puts: 10,
                store_removes: 1,
                store_bytes: 2048,
                store_fsyncs: 6,
                store_compactions: 1,
            }
        );
    }

    #[test]
    fn scheduler_counters_accumulate() {
        let m = Metrics::new(1);
        m.record_quantum();
        m.record_quantum();
        m.record_park();
        let snap = m.snapshot();
        assert_eq!(snap.quanta, 2);
        assert_eq!(snap.parks, 1);
    }
}
