//! **WebRobot**: web robotic process automation using interactive
//! programming-by-demonstration — a from-scratch Rust reproduction of the
//! PLDI 2022 paper by Dong, Huang, Lam, Chen and Wang.
//!
//! WebRobot watches a user demonstrate a web task (entering data, scraping,
//! navigating, paginating) and synthesizes a program in an expressive web
//! RPA DSL that *generalizes* the demonstration: it reproduces every
//! recorded action and predicts what comes next. The synthesizer is built
//! on **speculative rewriting** — guess loops from their first two
//! iterations, then validate them against a formal *trace semantics*.
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`webrobot_dom`] | DOM trees, XPath-subset selectors, alternative-selector search |
//! | [`webrobot_data`] | JSON-like data sources and value paths |
//! | [`webrobot_lang`] | The web RPA DSL (paper Fig. 6) and action language |
//! | [`webrobot_semantics`] | Trace semantics (Figs. 7–9), satisfaction & generalization |
//! | [`webrobot_synth`] | Speculate + validate synthesis engine (paper §5) |
//! | [`webrobot_browser`] | Simulated websites, live execution, trace recording |
//! | [`webrobot_interact`] | Demo/authorize/automate sessions (paper §6): typed [`Event`]/[`SessionError`] state machine, snapshot/restore |
//! | [`webrobot_service`] | Multi-tenant [`SessionManager`], sharding, persistent [`SnapshotStore`]s + the v1 JSON wire protocol (`PROTOCOL.md`) |
//!
//! This facade re-exports the most important types and offers [`WebRobot`],
//! a batteries-included entry point.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use webrobot::{Action, Value, WebRobot};
//! use webrobot_dom::parse_html;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A page with five headlines; the user scrapes the first two.
//! let page = Arc::new(parse_html(
//!     "<html><h3>A</h3><h3>B</h3><h3>C</h3><h3>D</h3><h3>E</h3></html>",
//! )?);
//! let mut robot = WebRobot::on_page(page.clone(), Value::Object(vec![]));
//! robot.observe(Action::ScrapeText("/h3[1]".parse()?), page.clone());
//! robot.observe(Action::ScrapeText("/h3[2]".parse()?), page);
//!
//! let result = robot.synthesize();
//! let best = result.programs.first().expect("a loop generalizes");
//! assert_eq!(best.program.loop_depth(), 1);
//! assert_eq!(best.prediction.to_string(), "ScrapeText(/h3[3])");
//! # Ok(())
//! # }
//! ```
//!
//! # Serving sessions over the wire protocol
//!
//! The same workflow is available as a multi-tenant service: a
//! [`SessionManager`] owns many concurrent sessions and speaks the
//! versioned v1 JSON protocol (string in, string out — see `PROTOCOL.md`
//! for the full shapes and error codes):
//!
//! ```
//! use std::sync::Arc;
//! use webrobot::{ServiceConfig, SessionManager, SiteBuilder, Value};
//! use webrobot_dom::parse_html;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SiteBuilder::new();
//! let home = b.add_page("https://x.test/", parse_html(
//!     "<html><h3>A</h3><h3>B</h3><h3>C</h3></html>")?);
//! let mut manager = SessionManager::new(ServiceConfig::default());
//! manager.register_site("news", Arc::new(b.start_at(home).finish()),
//!     Value::Object(vec![]));
//!
//! let reply = manager.handle_json(r#"{"v": 1, "kind": "create", "site": "news"}"#);
//! assert!(reply.contains(r#""session":"s-1""#), "{reply}");
//! let reply = manager.handle_json(
//!     r#"{"v": 1, "kind": "event", "session": "s-1", "event":
//!        {"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/h3[1]"}}}"#,
//! );
//! assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use webrobot_dom::Dom;

pub use webrobot_browser::{
    record_demonstration, run_program, Browser, BrowserError, Output, RecordLimits, Recording,
    Site, SiteBuilder,
};
pub use webrobot_interact::{
    Event, Mode, Session, SessionConfig, SessionError, SessionSnapshot, StepOutcome,
};
pub use webrobot_lang::{parse_program, Action, Program, Selector, Statement, Value, ValuePath};
pub use webrobot_semantics::{
    action_consistent, execute, generalizes, satisfies, trace_consistent, Stepper, Trace,
};
pub use webrobot_service::{
    ConfigError, MemoryStore, Metrics, MetricsSnapshot, Request, Response, SegmentConfig,
    SegmentHandle, SegmentStore, ServiceConfig, ServiceConfigBuilder, ServiceError, SessionId,
    SessionManager, ShardedManager, SnapshotStore, StatsV2, StoreError, PROTOCOL_VERSION,
};
pub use webrobot_synth::{EngineDigest, RankedProgram, SynthConfig, SynthResult, Synthesizer};

/// High-level synthesizer handle: observe demonstrated actions, ask for
/// generalizing programs and predictions.
///
/// This is a thin, ergonomic wrapper over [`Synthesizer`]; use the latter
/// directly for fine-grained control (custom deadlines, worklist
/// inspection).
#[derive(Debug)]
pub struct WebRobot {
    synth: Synthesizer,
}

impl WebRobot {
    /// Starts a robot from a demonstration beginning on `initial_page`,
    /// with data source `input`, using the default configuration.
    pub fn on_page(initial_page: Arc<Dom>, input: Value) -> WebRobot {
        WebRobot::with_config(SynthConfig::default(), initial_page, input)
    }

    /// Starts a robot with an explicit configuration.
    pub fn with_config(cfg: SynthConfig, initial_page: Arc<Dom>, input: Value) -> WebRobot {
        WebRobot {
            synth: Synthesizer::new(cfg, Trace::new(initial_page, input)),
        }
    }

    /// Wraps an existing synthesizer.
    pub fn from_synthesizer(synth: Synthesizer) -> WebRobot {
        WebRobot { synth }
    }

    /// Records one demonstrated (or authorized) action and the DOM the
    /// page transitioned to.
    pub fn observe(&mut self, action: Action, resulting_dom: Arc<Dom>) {
        self.synth.observe(action, resulting_dom);
    }

    /// Runs (incremental) synthesis and returns generalizing programs with
    /// their predictions, best first.
    pub fn synthesize(&mut self) -> SynthResult {
        self.synth.synthesize()
    }

    /// The demonstration observed so far.
    pub fn trace(&self) -> &Trace {
        self.synth.trace()
    }

    /// Access to the underlying engine.
    pub fn synthesizer(&mut self) -> &mut Synthesizer {
        &mut self.synth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_dom::parse_html;

    #[test]
    fn facade_round_trip() {
        let page = Arc::new(parse_html("<html><a>1</a><a>2</a><a>3</a></html>").unwrap());
        let mut robot = WebRobot::on_page(page.clone(), Value::Object(vec![]));
        robot.observe(Action::ScrapeText("/a[1]".parse().unwrap()), page.clone());
        robot.observe(Action::ScrapeText("/a[2]".parse().unwrap()), page);
        let result = robot.synthesize();
        assert!(!result.programs.is_empty());
        assert_eq!(robot.trace().len(), 2);
    }

    #[test]
    fn ablation_configs_are_reachable() {
        let page = Arc::new(parse_html("<html><a>1</a></html>").unwrap());
        let robot = WebRobot::with_config(SynthConfig::no_selector(), page, Value::Object(vec![]));
        assert!(!robot.synth.config().alternative_selectors);
    }
}
