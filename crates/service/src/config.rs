//! Service tuning: [`ServiceConfig`], its validating [`builder`] and the
//! typed [`ConfigError`] the builder rejects nonsense with.
//!
//! [`ServiceConfig::builder`]: ServiceConfig::builder

use std::fmt;
use std::time::Duration;

use webrobot_interact::SessionConfig;

/// Service tuning.
///
/// Construct via [`ServiceConfig::builder`] (validated) or
/// [`ServiceConfig::default`]; struct literals with field update syntax
/// remain possible for tests that deliberately need out-of-envelope
/// values (e.g. a zero quantum to exercise maximal slicing).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-session configuration template. A `create` request's
    /// `deadline_ms` overrides `session.synth.timeout` for that session
    /// only (the per-session synthesis deadline).
    pub session: SessionConfig,
    /// How many sessions may be *live* (holding a browser + synthesizer)
    /// at once. The least-recently-used live session beyond this cap is
    /// evicted to a compact snapshot and transparently restored on its
    /// next event.
    pub max_live_sessions: usize,
    /// Hard cap on tracked sessions, live + evicted. Further `create`
    /// requests fail with `too_many_sessions`.
    pub max_sessions: usize,
    /// Synthesis work-quantum for the sharded scheduler: each scheduling
    /// turn runs at most this much synthesis for one session before
    /// round-robining to the next ready session, so one pathological
    /// worklist degrades only its own session's latency, not the whole
    /// shard's. Quantum-sliced synthesis is exactly equal to unsliced
    /// synthesis (pinned by the 76-benchmark differential), so this knob
    /// is invisible on the wire — it only redistributes latency. A
    /// quantum of `Duration::MAX` never parks.
    pub quantum: Duration,
    /// Bound on in-flight jobs per shard (queued in the channel, waiting
    /// in a run queue, or being processed). Jobs beyond the bound are
    /// rejected with the `overloaded` error code instead of growing the
    /// queue without limit.
    pub max_queued_per_shard: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            session: SessionConfig::default(),
            max_live_sessions: 64,
            max_sessions: 4096,
            quantum: Duration::from_millis(5),
            max_queued_per_shard: 256,
        }
    }
}

impl ServiceConfig {
    /// Starts a validating builder seeded with [`ServiceConfig::default`]
    /// — so `ServiceConfig::builder().build()` is exactly the default
    /// config, and each setter overrides one knob.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig::default(),
        }
    }
}

/// Why [`ServiceConfigBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_sessions` was zero — the service could never create a
    /// session.
    ZeroMaxSessions,
    /// `max_live_sessions` was zero — every session would thrash through
    /// an eviction/restore cycle per event. (The manager internally
    /// clamps this to 1; the builder rejects it outright.)
    ZeroMaxLiveSessions,
    /// `max_queued_per_shard` was zero — every sharded request would be
    /// rejected as `overloaded`.
    ZeroQueueBound,
    /// A synthesis quantum below one millisecond: slicing overhead would
    /// dominate useful synthesis work.
    SubMillisecondQuantum {
        /// The rejected quantum.
        quantum: Duration,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxSessions => write!(f, "max_sessions must be at least 1"),
            ConfigError::ZeroMaxLiveSessions => write!(f, "max_live_sessions must be at least 1"),
            ConfigError::ZeroQueueBound => write!(f, "max_queued_per_shard must be at least 1"),
            ConfigError::SubMillisecondQuantum { quantum } => write!(
                f,
                "quantum {quantum:?} is below 1ms; slicing overhead would dominate synthesis"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ServiceConfig`], created by
/// [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the per-session configuration template.
    pub fn session(mut self, session: SessionConfig) -> Self {
        self.cfg.session = session;
        self
    }

    /// Sets the live-session cap (LRU eviction beyond it).
    pub fn max_live_sessions(mut self, max: usize) -> Self {
        self.cfg.max_live_sessions = max;
        self
    }

    /// Sets the hard cap on tracked sessions.
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.cfg.max_sessions = max;
        self
    }

    /// Sets the synthesis work-quantum.
    pub fn quantum(mut self, quantum: Duration) -> Self {
        self.cfg.quantum = quantum;
        self
    }

    /// Sets the per-shard in-flight job bound.
    pub fn max_queued_per_shard(mut self, max: usize) -> Self {
        self.cfg.max_queued_per_shard = max;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] naming the offending knob; see each
    /// variant for the rule it enforces.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        if self.cfg.max_sessions == 0 {
            return Err(ConfigError::ZeroMaxSessions);
        }
        if self.cfg.max_live_sessions == 0 {
            return Err(ConfigError::ZeroMaxLiveSessions);
        }
        if self.cfg.max_queued_per_shard == 0 {
            return Err(ConfigError::ZeroQueueBound);
        }
        if self.cfg.quantum < Duration::from_millis(1) {
            return Err(ConfigError::SubMillisecondQuantum {
                quantum: self.cfg.quantum,
            });
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_default_matches_default() {
        let built = ServiceConfig::builder().build().unwrap();
        let default = ServiceConfig::default();
        assert_eq!(built.max_live_sessions, default.max_live_sessions);
        assert_eq!(built.max_sessions, default.max_sessions);
        assert_eq!(built.quantum, default.quantum);
        assert_eq!(built.max_queued_per_shard, default.max_queued_per_shard);
    }

    #[test]
    fn builder_overrides_individual_knobs() {
        let cfg = ServiceConfig::builder()
            .max_sessions(7)
            .max_live_sessions(2)
            .quantum(Duration::from_millis(10))
            .max_queued_per_shard(16)
            .build()
            .unwrap();
        assert_eq!(cfg.max_sessions, 7);
        assert_eq!(cfg.max_live_sessions, 2);
        assert_eq!(cfg.quantum, Duration::from_millis(10));
        assert_eq!(cfg.max_queued_per_shard, 16);
    }

    #[test]
    fn builder_rejects_nonsense_with_typed_errors() {
        assert_eq!(
            ServiceConfig::builder()
                .max_sessions(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxSessions
        );
        assert_eq!(
            ServiceConfig::builder()
                .max_live_sessions(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxLiveSessions
        );
        assert_eq!(
            ServiceConfig::builder()
                .max_queued_per_shard(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroQueueBound
        );
        let err = ServiceConfig::builder()
            .quantum(Duration::from_micros(250))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::SubMillisecondQuantum {
                quantum: Duration::from_micros(250)
            }
        );
        assert!(err.to_string().contains("below 1ms"), "{err}");
    }
}
