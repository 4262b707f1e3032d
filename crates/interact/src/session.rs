//! Demo/authorize/automate sessions.
//!
//! A [`Session`] is a *total, typed state machine*: every input is an
//! [`Event`] dispatched through [`Session::handle`], every invalid input is
//! a [`SessionError`] (never a panic), and nothing executes after the
//! session reaches [`Mode::Done`].
//!
//! Sessions can be suspended and resumed: [`Session::snapshot`] captures a
//! compact, replayable description (no synthesizer worklists, no live DOM)
//! and [`Session::restore`] rebuilds an equivalent live session from it —
//! the mechanism behind `webrobot_service`'s eviction of idle sessions.

use std::sync::Arc;
use std::time::Duration;

use webrobot_browser::{Browser, BrowserError, Site};
use webrobot_data::Value;
use webrobot_lang::Action;
use webrobot_semantics::{satisfies, Trace};
use webrobot_synth::{EngineDigest, SynthConfig, Synthesizer};

use crate::error::SessionError;

/// Session phase (paper §6 "Demo-auth-auto workflow").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The user performs actions manually.
    Demonstrate,
    /// Predictions await user approval.
    Authorize,
    /// The synthesized program executes without confirmation.
    Automate,
    /// The session has ended.
    Done,
}

impl Mode {
    /// Stable lowercase rendering (the wire protocol's `mode` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Demonstrate => "demonstrate",
            Mode::Authorize => "authorize",
            Mode::Automate => "automate",
            Mode::Done => "done",
        }
    }
}

/// One user input to the session state machine.
///
/// The event/mode validity table (rows are events, columns the mode the
/// session is in when the event arrives; `✓` = accepted):
///
/// | Event          | Demonstrate | Authorize | Automate | Done |
/// |----------------|-------------|-----------|----------|------|
/// | `Demonstrate`  | ✓           | ✓ (keeps demonstrating past the predictions) | `WrongMode` | `SessionClosed` |
/// | `Accept`       | `WrongMode` | ✓ (index must be in range) | `WrongMode` | `SessionClosed` |
/// | `RejectAll`    | `WrongMode` | ✓         | `WrongMode` | `SessionClosed` |
/// | `AutomateStep` | `WrongMode` | `WrongMode` | ✓      | `SessionClosed` |
/// | `Interrupt`    | ✓ (still discards the cached program) | ✓ | ✓ | `SessionClosed` |
/// | `Finish`       | ✓           | ✓         | ✓        | `SessionClosed` |
///
/// `Interrupt` is the user's emergency stop (paper §2: "if at any point the
/// user spots anything abnormal, they can interrupt"), so it is accepted in
/// every open mode. Like `RejectAll`, it *discards* the cached
/// last-generalizing program: a program the user interrupted must not
/// resurface through [`Session::current_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The user demonstrates one action (step 1 of Fig. 3).
    Demonstrate(Action),
    /// The user accepts prediction `index` (step 4 of Fig. 3).
    Accept {
        /// Index into [`Session::predictions`].
        index: usize,
    },
    /// The user rejects all current predictions (back to demonstration).
    RejectAll,
    /// Execute the best program's next predicted action without
    /// confirmation (step 6 of Fig. 3).
    AutomateStep,
    /// Emergency stop: abandon predictions and the cached program.
    Interrupt,
    /// End the session.
    Finish,
}

impl Event {
    /// Stable lowercase name (the wire protocol's `event.type` field and
    /// the `WrongMode` error payload).
    pub fn name(&self) -> &'static str {
        match self {
            Event::Demonstrate(_) => "demonstrate",
            Event::Accept { .. } => "accept",
            Event::RejectAll => "reject_all",
            Event::AutomateStep => "automate_step",
            Event::Interrupt => "interrupt",
            Event::Finish => "finish",
        }
    }
}

/// Consecutive accepted predictions before switching to automation (the
/// paper's "after a couple of rounds, WebRobot takes over").
const ACCEPTS_BEFORE_AUTOMATION: usize = 2;

/// Hard cap on automated actions (runaway protection). Reaching the cap
/// finishes the session.
const MAX_AUTOMATION_STEPS: usize = 10_000;

/// Session tuning.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Synthesizer configuration.
    pub synth: SynthConfig,
}

/// What a session step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The action was executed and recorded; predictions may be available.
    Recorded,
    /// Automation executed this action.
    Automated(Action),
    /// No program generalizes: the ball is back in the user's court.
    NeedDemonstration,
    /// The current program produced no further action (task segment done).
    ProgramFinished,
    /// The user interrupted; predictions and the cached program are gone.
    Interrupted,
    /// The session ended.
    Finished,
}

/// A step whose action has been performed and recorded, waiting on
/// synthesis: the prediction refresh and the mode transition run when the
/// search concludes (at once in [`Session::handle`], after however many
/// quanta in [`Session::handle_quantum`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum PendingStep {
    /// A demonstration (outcome [`StepOutcome::Recorded`]).
    Demonstrated,
    /// An accepted prediction — `Recorded` plus the authorize→automate
    /// transition check on completion.
    Accepted,
    /// An automated action (outcome [`StepOutcome::Automated`]).
    Automated(Action),
}

impl StepOutcome {
    /// Stable lowercase rendering (the wire protocol's `outcome` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            StepOutcome::Recorded => "recorded",
            StepOutcome::Automated(_) => "automated",
            StepOutcome::NeedDemonstration => "need_demonstration",
            StepOutcome::ProgramFinished => "program_finished",
            StepOutcome::Interrupted => "interrupted",
            StepOutcome::Finished => "finished",
        }
    }
}

/// A compact, replayable description of a [`Session`] — everything needed
/// to rebuild an equivalent live session, and nothing else (no synthesizer
/// worklists, no memo tables, no live DOM copy).
///
/// Produced by [`Session::snapshot`], consumed by [`Session::restore`].
/// Restoration replays the executed actions through a fresh browser and
/// synthesizer, observe-only, then adopts the synthesizer's search state
/// from [`SessionSnapshot::engine`]; since replay is deterministic, the
/// restored session produces the same predictions and outputs as the
/// original (see the snapshot round-trip tests and `tests/service.rs`).
///
/// The fields are public so `webrobot_service` can persist snapshots in
/// the wire JSON subset and rebuild them when a store is reopened. There
/// is no hidden invariant to break: [`Session::restore`] re-validates a
/// snapshot by replaying it, so a hand-built (or tampered-with) snapshot
/// surfaces as a typed [`SessionError`], never a panic.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The site the session runs on.
    pub site: Arc<Site>,
    /// The session's data source.
    pub input: Value,
    /// The session's configuration (including its synthesis deadline).
    pub cfg: SessionConfig,
    /// Every action executed so far, in absolute-XPath form — what
    /// restoration replays.
    pub executed: Vec<Action>,
    /// The mode the session was in when snapshotted.
    pub mode: Mode,
    /// The predictions on offer when snapshotted.
    pub predictions: Vec<Action>,
    /// Consecutive accepted predictions at snapshot time.
    pub consecutive_accepts: usize,
    /// Automated actions executed at snapshot time.
    pub automated_steps: usize,
    /// The cached last-generalizing program, if any.
    pub last_program: Option<webrobot_lang::Program>,
    /// The synthesizer's stored search state (worklist, processed
    /// rewrites, generalizing programs), captured as an adoptable
    /// [`EngineDigest`]: restoration replays the history observe-only
    /// and *adopts* it, so a restore costs replay and no synthesis.
    /// `None` (an empty history, or a record written before digests
    /// existed) restores with one full synthesis over the replayed
    /// trace.
    pub engine: Option<EngineDigest>,
}

impl SessionSnapshot {
    /// The actions executed so far (what restoration replays).
    pub fn executed(&self) -> &[Action] {
        &self.executed
    }

    /// The mode the session was in when snapshotted.
    pub fn mode(&self) -> Mode {
        self.mode
    }
}

/// An interactive programming-by-demonstration session over a simulated
/// website.
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use webrobot_browser::SiteBuilder;
/// # use webrobot_dom::parse_html;
/// # use webrobot_interact::{Event, Mode, Session, SessionConfig};
/// # use webrobot_lang::{Action, Value};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SiteBuilder::new();
/// let home = b.add_page("https://x.test/", parse_html(
///     "<html><a>1</a><a>2</a><a>3</a></html>")?);
/// let site = Arc::new(b.start_at(home).finish());
/// let mut session = Session::new(site, Value::Object(vec![]), SessionConfig::default());
/// session.handle(Event::Demonstrate(Action::ScrapeText("/a[1]".parse()?)))?;
/// session.handle(Event::Demonstrate(Action::ScrapeText("/a[2]".parse()?)))?;
/// assert_eq!(session.mode(), Mode::Authorize);
/// assert!(!session.predictions().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    cfg: SessionConfig,
    site: Arc<Site>,
    input: Value,
    browser: Browser,
    synth: Synthesizer,
    mode: Mode,
    predictions: Vec<Action>,
    consecutive_accepts: usize,
    executed: Vec<Action>,
    automated_steps: usize,
    last_program: Option<webrobot_lang::Program>,
    /// The step waiting on synthesis; between events `Some` only while a
    /// sliced search is parked (see [`Session::handle_quantum`]).
    pending: Option<PendingStep>,
}

// One session = one browser + one synthesizer, share-nothing, so a whole
// session can be owned by (and moved between) shard worker threads.
// Compile-time enforced — regressing any layer back to `Rc`/`RefCell`
// fails `cargo check` here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl Session {
    /// Opens a session on the site's start page.
    pub fn new(site: Arc<Site>, input: Value, cfg: SessionConfig) -> Session {
        let browser = Browser::new(site.clone(), input.clone());
        let trace = Trace::new(browser.snapshot(), input.clone());
        let synth = Synthesizer::new(cfg.synth.clone(), trace);
        Session {
            cfg,
            site,
            input,
            browser,
            synth,
            mode: Mode::Demonstrate,
            predictions: Vec::new(),
            consecutive_accepts: 0,
            executed: Vec::new(),
            automated_steps: 0,
            last_program: None,
            pending: None,
        }
    }

    /// Current phase.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The site this session runs on.
    pub fn site(&self) -> &Arc<Site> {
        &self.site
    }

    /// The live browser (current page, outputs scraped so far).
    pub fn browser(&self) -> &Browser {
        &self.browser
    }

    /// Every action executed so far (demonstrated, authorized, automated),
    /// in absolute-XPath form.
    pub fn executed(&self) -> &[Action] {
        &self.executed
    }

    /// Current predictions, best first (paper §6 "Navigating across
    /// multiple predictions").
    pub fn predictions(&self) -> &[Action] {
        &self.predictions
    }

    /// The best generalizing program, if any. Once the task has run to
    /// completion nothing generalizes the finished trace any more (Def. 4.2
    /// demands one further action), so this falls back to the most recent
    /// generalizing program — but only while it still *satisfies* the
    /// trace (Def. 4.1); a cached program invalidated by a later
    /// demonstration, or discarded by an explicit rejection or interrupt,
    /// is not returned.
    pub fn current_program(&self) -> Option<webrobot_lang::Program> {
        self.synth
            .best_program()
            .map(webrobot_lang::Program::new)
            .or_else(|| {
                self.last_program
                    .clone()
                    .filter(|p| satisfies(p.statements(), self.synth.trace()))
            })
    }

    /// Dispatches one event through the state machine; the validity table
    /// lives on [`Event`].
    ///
    /// # Errors
    ///
    /// - [`SessionError::SessionClosed`] for any event once the session is
    ///   [`Mode::Done`];
    /// - [`SessionError::WrongMode`] when the event is not valid in the
    ///   current mode;
    /// - [`SessionError::InvalidPrediction`] for an out-of-range accept;
    /// - [`SessionError::Browser`] when an action fails to replay.
    pub fn handle(&mut self, event: Event) -> Result<StepOutcome, SessionError> {
        if let Some(outcome) = self.begin(event)? {
            return Ok(outcome);
        }
        let result = self.synth.synthesize();
        Ok(self.conclude(result))
    }

    /// Dispatches one event like [`Session::handle`], but bounds the
    /// synthesis work to `budget` of wall-clock time.
    ///
    /// Returns `Ok(Some(outcome))` when the step completed within the
    /// budget — with an outcome identical to what `handle` would have
    /// produced, since quantum-sliced synthesis is exactly equal to
    /// unsliced synthesis — and `Ok(None)` when the action was performed
    /// but the synthesis search parked mid-worklist. A parked session
    /// ([`Session::has_pending`]) must be driven to completion with
    /// [`Session::continue_quantum`] before the next event; the quantum
    /// scheduler in `webrobot_service` round-robins these continuations
    /// across a shard's ready sessions.
    ///
    /// Events that never synthesize (`RejectAll`, `Interrupt`, `Finish`,
    /// and the error paths) always complete immediately.
    ///
    /// # Errors
    ///
    /// Same as [`Session::handle`]; errors only surface before any
    /// synthesis starts, so a failed event never leaves a pending step.
    pub fn handle_quantum(
        &mut self,
        event: Event,
        budget: Duration,
    ) -> Result<Option<StepOutcome>, SessionError> {
        debug_assert!(
            self.pending.is_none(),
            "finish the parked step before dispatching the next event"
        );
        match self.begin(event)? {
            Some(outcome) => Ok(Some(outcome)),
            None => Ok(self.run_quantum(budget)),
        }
    }

    /// Continues a parked step with another `budget` of synthesis work.
    /// Returns the completed outcome, or `None` if the search parked
    /// again. A no-op (returning `None`) when nothing is pending; the
    /// scheduler checks [`Session::has_pending`] before calling.
    pub fn continue_quantum(&mut self, budget: Duration) -> Option<StepOutcome> {
        debug_assert!(self.pending.is_some(), "no parked step to continue");
        self.run_quantum(budget)
    }

    /// `true` while a sliced step is parked mid-synthesis: the action
    /// was performed, but predictions and the mode transition are still
    /// pending. A pending session must not be snapshotted or receive
    /// further events until [`Session::continue_quantum`] completes it.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// One synthesis quantum for the pending step, concluding it once the
    /// search completes.
    fn run_quantum(&mut self, budget: Duration) -> Option<StepOutcome> {
        self.pending.as_ref()?;
        let result = self.synth.synthesize_quantum(budget);
        if result.stats.parked {
            return None;
        }
        Some(self.conclude(result))
    }

    /// The event × mode table up to synthesis: checks the event against
    /// the mode and performs its action. Returns the outcome of an event
    /// that needs no synthesis, or `None` once a step is pending.
    fn begin(&mut self, event: Event) -> Result<Option<StepOutcome>, SessionError> {
        if self.mode == Mode::Done {
            return Err(SessionError::SessionClosed);
        }
        let name = event.name();
        let step = match (event, self.mode) {
            (Event::Demonstrate(action), Mode::Demonstrate | Mode::Authorize) => {
                self.perform_and_record(action)?;
                self.consecutive_accepts = 0;
                PendingStep::Demonstrated
            }
            (Event::Accept { index }, Mode::Authorize) => {
                let Some(action) = self.predictions.get(index).cloned() else {
                    return Err(SessionError::InvalidPrediction {
                        index,
                        available: self.predictions.len(),
                    });
                };
                self.perform_and_record(action)?;
                self.consecutive_accepts += 1;
                PendingStep::Accepted
            }
            (Event::RejectAll, Mode::Authorize) => {
                return Ok(Some(self.discard(StepOutcome::NeedDemonstration)));
            }
            (Event::AutomateStep, Mode::Automate) => {
                if self.automated_steps >= MAX_AUTOMATION_STEPS {
                    self.mode = Mode::Done;
                    return Ok(Some(StepOutcome::ProgramFinished));
                }
                let Some(action) = self.predictions.first().cloned() else {
                    self.mode = Mode::Demonstrate;
                    self.consecutive_accepts = 0;
                    return Ok(Some(StepOutcome::ProgramFinished));
                };
                self.perform_and_record(action.clone())?;
                self.automated_steps += 1;
                PendingStep::Automated(action)
            }
            (Event::Interrupt, _) => return Ok(Some(self.discard(StepOutcome::Interrupted))),
            (Event::Finish, _) => {
                self.mode = Mode::Done;
                return Ok(Some(StepOutcome::Finished));
            }
            (_, mode) => return Err(SessionError::WrongMode { event: name, mode }),
        };
        self.pending = Some(step);
        Ok(None)
    }

    /// The shared tail of every synthesis, sliced or not: cached program,
    /// predictions, the demonstrate/authorize split, and the pending
    /// step's own mode transition.
    fn conclude(&mut self, result: webrobot_synth::SynthResult) -> StepOutcome {
        let Some(step) = self.pending.take() else {
            unreachable!("a synthesis concludes only a pending step");
        };
        if let Some(best) = result.programs.first() {
            self.last_program = Some(best.program.clone());
        }
        self.predictions = result.predictions;
        self.mode = if self.predictions.is_empty() {
            Mode::Demonstrate
        } else {
            Mode::Authorize
        };
        match step {
            PendingStep::Demonstrated => StepOutcome::Recorded,
            PendingStep::Accepted => {
                if self.mode == Mode::Authorize
                    && self.consecutive_accepts >= ACCEPTS_BEFORE_AUTOMATION
                {
                    self.mode = Mode::Automate;
                }
                StepOutcome::Recorded
            }
            PendingStep::Automated(action) => {
                if self.mode == Mode::Authorize {
                    // Stay in automation while predictions keep coming.
                    self.mode = Mode::Automate;
                }
                StepOutcome::Automated(action)
            }
        }
    }

    /// Executes `action` on the browser and records it in the trace.
    fn perform_and_record(&mut self, action: Action) -> Result<(), BrowserError> {
        let absolute = self.browser.absolutize(action)?;
        self.browser.perform(&absolute)?;
        self.synth
            .observe(absolute.clone(), self.browser.snapshot());
        self.executed.push(absolute);
        Ok(())
    }

    /// `RejectAll` and `Interrupt`. Interrupt semantics (pinned by
    /// `interrupt_discards_cached_program`): an interrupt is a rejection
    /// of the *running program*, not just of the pending predictions, so
    /// the cached last-generalizing program is discarded too — it must not
    /// resurface via [`Session::current_program`].
    fn discard(&mut self, outcome: StepOutcome) -> StepOutcome {
        self.predictions.clear();
        self.consecutive_accepts = 0;
        self.last_program = None;
        self.mode = Mode::Demonstrate;
        outcome
    }

    // ───────────────────── snapshot / restore ─────────────────────

    /// Captures a compact, replayable snapshot of this session (site
    /// handle, input, config, executed actions, the engine digest, and
    /// the user-visible state: mode, predictions, accept/automation
    /// counters, cached program).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            site: self.site.clone(),
            input: self.input.clone(),
            cfg: self.cfg.clone(),
            executed: self.executed.clone(),
            mode: self.mode,
            predictions: self.predictions.clone(),
            consecutive_accepts: self.consecutive_accepts,
            automated_steps: self.automated_steps,
            last_program: self.last_program.clone(),
            // An empty history needs no digest: restoration builds a
            // fresh synthesizer, which *is* the state at trace length 0.
            // (`digest()` itself returns `None` only for a parked sliced
            // search, which the service never snapshots.)
            engine: if self.executed.is_empty() {
                None
            } else {
                self.synth.digest()
            },
        }
    }

    /// Rebuilds a live session from a snapshot, then restores the
    /// user-visible state. Browser and synthesizer are deterministic, so
    /// the restored session behaves like the original (modulo synthesis
    /// deadline truncation under extreme load; see `SynthConfig::timeout`).
    ///
    /// The executed actions are replayed through the browser and fed to
    /// the synthesizer observe-only — zero synthesize calls — and the
    /// engine state is then adopted from [`SessionSnapshot::engine`], so
    /// a restore runs no search: it costs replay plus adoption, which
    /// re-executes each generalizing program over the replayed trace. A
    /// snapshot without a digest (one written before digests existed),
    /// or with one the adoption check rejects (tampered by hand), gets
    /// one full synthesis over the complete trace instead: incremental ≡
    /// from-scratch (the differential harness pins it), and the replayed
    /// history, not the digest, is authoritative.
    ///
    /// # Errors
    ///
    /// [`SessionError::Browser`] when a recorded action no longer replays
    /// (only possible for snapshots tampered with by hand).
    pub fn restore(snap: &SessionSnapshot) -> Result<Session, SessionError> {
        let mut session = Session::new(snap.site.clone(), snap.input.clone(), snap.cfg.clone());
        for action in &snap.executed {
            session.perform_and_record(action.clone())?;
        }
        // A fresh synthesizer already is the state at trace length 0.
        if !snap.executed.is_empty() {
            let adopted = snap
                .engine
                .as_ref()
                .is_some_and(|digest| session.synth.adopt_digest(digest));
            if !adopted {
                let _ = session.synth.synthesize();
            }
        }
        session.mode = snap.mode;
        session.predictions = snap.predictions.clone();
        session.consecutive_accepts = snap.consecutive_accepts;
        session.automated_steps = snap.automated_steps;
        session.last_program = snap.last_program.clone();
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_browser::SiteBuilder;
    use webrobot_dom::parse_html;

    fn anchor_site(n: usize) -> Arc<Site> {
        let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
        let mut b = SiteBuilder::new();
        let home = b.add_page(
            "https://anchors.test/",
            parse_html(&format!("<html>{body}</html>")).unwrap(),
        );
        Arc::new(b.start_at(home).finish())
    }

    fn session(n: usize) -> Session {
        Session::new(
            anchor_site(n),
            Value::Object(vec![]),
            SessionConfig::default(),
        )
    }

    fn scrape(i: usize) -> Action {
        Action::ScrapeText(format!("/a[{i}]").parse().unwrap())
    }

    #[test]
    fn demo_auth_auto_workflow() {
        let mut s = session(6);
        assert_eq!(s.mode(), Mode::Demonstrate);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        assert_eq!(s.mode(), Mode::Demonstrate, "one action cannot generalize");
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        assert_eq!(s.mode(), Mode::Authorize);
        // Accept twice → automation takes over.
        s.handle(Event::Accept { index: 0 }).unwrap();
        assert_eq!(s.mode(), Mode::Authorize);
        s.handle(Event::Accept { index: 0 }).unwrap();
        assert_eq!(s.mode(), Mode::Automate);
        // Automation scrapes the remaining items, then the loop finishes.
        let mut automated = 0;
        while s.mode() == Mode::Automate {
            match s.handle(Event::AutomateStep).unwrap() {
                StepOutcome::Automated(_) => automated += 1,
                StepOutcome::ProgramFinished => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(automated, 2, "items 5 and 6");
        assert_eq!(s.executed().len(), 6);
        assert_eq!(s.browser().outputs().len(), 6);
        assert_eq!(s.mode(), Mode::Demonstrate);
    }

    #[test]
    fn reject_returns_to_demonstration() {
        let mut s = session(4);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        assert_eq!(s.mode(), Mode::Authorize);
        assert_eq!(
            s.handle(Event::RejectAll),
            Ok(StepOutcome::NeedDemonstration)
        );
        assert_eq!(s.mode(), Mode::Demonstrate);
        assert!(s.predictions().is_empty());
    }

    #[test]
    fn interrupt_stops_automation() {
        let mut s = session(8);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        assert_eq!(s.mode(), Mode::Automate);
        s.handle(Event::AutomateStep).unwrap();
        assert_eq!(s.handle(Event::Interrupt), Ok(StepOutcome::Interrupted));
        assert_eq!(s.mode(), Mode::Demonstrate);
        assert_eq!(s.executed().len(), 5);
    }

    #[test]
    fn failed_demonstration_is_an_error() {
        let mut s = session(2);
        assert!(matches!(
            s.handle(Event::Demonstrate(scrape(9))),
            Err(SessionError::Browser(_))
        ));
        assert!(s.executed().is_empty());
    }

    /// Regression (used to panic): accepting an out-of-range prediction is
    /// a typed error and leaves the session untouched.
    #[test]
    fn out_of_range_accept_is_a_typed_error() {
        let mut s = session(4);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        assert_eq!(s.mode(), Mode::Authorize);
        let available = s.predictions().len();
        let err = s
            .handle(Event::Accept {
                index: available + 5,
            })
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::InvalidPrediction {
                index: available + 5,
                available
            }
        );
        // Nothing executed, session still usable.
        assert_eq!(s.executed().len(), 2);
        assert_eq!(s.mode(), Mode::Authorize);
        s.handle(Event::Accept { index: 0 }).unwrap();
        assert_eq!(s.executed().len(), 3);
    }

    /// Regression (used to execute silently): no event is accepted after
    /// the session finished, and nothing touches the browser.
    #[test]
    fn events_after_finish_are_rejected() {
        let mut s = session(4);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        assert_eq!(s.handle(Event::Finish), Ok(StepOutcome::Finished));
        assert_eq!(s.mode(), Mode::Done);
        let executed = s.executed().len();
        let outputs = s.browser().outputs().len();
        assert_eq!(
            s.handle(Event::Demonstrate(scrape(2))),
            Err(SessionError::SessionClosed)
        );
        assert_eq!(
            s.handle(Event::AutomateStep),
            Err(SessionError::SessionClosed)
        );
        assert_eq!(
            s.handle(Event::Accept { index: 0 }),
            Err(SessionError::SessionClosed)
        );
        assert_eq!(s.handle(Event::RejectAll), Err(SessionError::SessionClosed));
        assert_eq!(s.handle(Event::Interrupt), Err(SessionError::SessionClosed));
        assert_eq!(s.handle(Event::Finish), Err(SessionError::SessionClosed));
        assert_eq!(s.executed().len(), executed, "no side effects after Done");
        assert_eq!(s.browser().outputs().len(), outputs);
    }

    /// Events outside their mode are `WrongMode`, not executed.
    #[test]
    fn wrong_mode_events_are_rejected() {
        let mut s = session(6);
        // Demonstrate mode: accept / reject / automate are invalid.
        for (event, name) in [
            (Event::Accept { index: 0 }, "accept"),
            (Event::RejectAll, "reject_all"),
            (Event::AutomateStep, "automate_step"),
        ] {
            assert_eq!(
                s.handle(event),
                Err(SessionError::WrongMode {
                    event: name,
                    mode: Mode::Demonstrate
                })
            );
        }
        // Automate mode: demonstrating without interrupting first is invalid.
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        assert_eq!(s.mode(), Mode::Automate);
        assert_eq!(
            s.handle(Event::Demonstrate(scrape(1))),
            Err(SessionError::WrongMode {
                event: "demonstrate",
                mode: Mode::Automate
            })
        );
        assert_eq!(s.executed().len(), 4);
    }

    /// The user may keep demonstrating past pending predictions (paper §6:
    /// predictions are suggestions, not obligations).
    #[test]
    fn demonstrating_past_predictions_is_allowed() {
        let mut s = session(6);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        assert_eq!(s.mode(), Mode::Authorize);
        s.handle(Event::Demonstrate(scrape(3))).unwrap();
        assert_eq!(s.executed().len(), 3);
    }

    /// Pinned semantics: an interrupt discards the cached program — a
    /// program the user rejected by interrupting must not resurface via
    /// `current_program`. (It used to survive the interrupt.)
    #[test]
    fn interrupt_discards_cached_program() {
        let mut s = session(4);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        // Run automation to the end of the list: the trace is complete, so
        // nothing generalizes it and `current_program` falls back to the
        // cached last program.
        while s.mode() == Mode::Automate {
            if s.handle(Event::AutomateStep).unwrap() == StepOutcome::ProgramFinished {
                break;
            }
        }
        assert!(
            s.current_program().is_some(),
            "completed run keeps its program"
        );
        s.handle(Event::Interrupt).unwrap();
        assert_eq!(
            s.current_program(),
            None,
            "interrupt must discard the cached program"
        );
    }

    /// Snapshot → restore round-trips mid-workflow: the restored session
    /// produces the same predictions and continues identically.
    #[test]
    fn snapshot_restore_round_trips() {
        let mut original = session(8);
        original.handle(Event::Demonstrate(scrape(1))).unwrap();
        original.handle(Event::Demonstrate(scrape(2))).unwrap();
        original.handle(Event::Accept { index: 0 }).unwrap();
        let snap = original.snapshot();
        assert_eq!(snap.executed().len(), 3);
        assert_eq!(snap.mode(), Mode::Authorize);

        let mut restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.mode(), original.mode());
        assert_eq!(restored.executed(), original.executed());
        assert_eq!(restored.predictions(), original.predictions());
        assert_eq!(
            restored.browser().outputs(),
            original.browser().outputs(),
            "scraped outputs replay identically"
        );

        // Both sessions continue identically to the end of the task.
        loop {
            let (a, b) = (
                original.handle(Event::Accept { index: 0 }),
                restored.handle(Event::Accept { index: 0 }),
            );
            assert_eq!(a, b);
            assert_eq!(original.mode(), restored.mode());
            assert_eq!(original.predictions(), restored.predictions());
            if original.mode() != Mode::Authorize {
                break;
            }
        }
        while original.mode() == Mode::Automate {
            assert_eq!(
                original.handle(Event::AutomateStep),
                restored.handle(Event::AutomateStep)
            );
        }
        assert_eq!(original.browser().outputs(), restored.browser().outputs());
        assert_eq!(original.executed(), restored.executed());
    }

    /// A session three events into the 8-anchor task, mid-authorization.
    fn mid_task_session() -> Session {
        let mut s = session(8);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        s.handle(Event::Accept { index: 0 }).unwrap();
        s
    }

    /// Asserts `restored` matches `original` now, then drives both to the
    /// end of the task in lockstep, asserting every reply equal.
    fn assert_continues_like(original: &mut Session, restored: &mut Session) {
        assert_eq!(restored.mode(), original.mode());
        assert_eq!(restored.executed(), original.executed());
        assert_eq!(restored.predictions(), original.predictions());
        assert_eq!(restored.browser().outputs(), original.browser().outputs());
        assert_eq!(restored.current_program(), original.current_program());
        loop {
            let a = original.handle(Event::Accept { index: 0 });
            assert_eq!(a, restored.handle(Event::Accept { index: 0 }));
            assert_eq!(original.predictions(), restored.predictions());
            if original.mode() != Mode::Authorize {
                break;
            }
        }
        while original.mode() == Mode::Automate {
            let a = original.handle(Event::AutomateStep);
            assert_eq!(a, restored.handle(Event::AutomateStep));
        }
        assert_eq!(original.browser().outputs(), restored.browser().outputs());
        assert_eq!(original.executed(), restored.executed());
    }

    /// Digest restore ≡ the original session: the restored session
    /// continues identically to the end of the task, and its engine ends
    /// in the same state (the adopted digest is the captured engine).
    #[test]
    fn digest_restore_matches_the_original_to_the_end_of_the_task() {
        let mut original = mid_task_session();
        let snap = original.snapshot();
        assert!(snap.engine.is_some(), "snapshots carry a digest");
        let mut restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.snapshot().engine, snap.engine);
        assert_continues_like(&mut original, &mut restored);
        assert_eq!(original.snapshot().engine, restored.snapshot().engine);
    }

    /// A snapshot without a digest (as written before digests existed)
    /// restores through one full synthesis and still continues exactly
    /// like the original to the end of the task.
    #[test]
    fn restore_without_a_digest_matches_the_original_to_the_end_of_the_task() {
        let mut original = mid_task_session();
        let mut snap = original.snapshot();
        snap.engine = None;
        let mut restored = Session::restore(&snap).unwrap();
        assert_continues_like(&mut original, &mut restored);
    }

    /// A tampered digest degrades to a correct (fully synthesized)
    /// restore instead of failing: the replayed history is authoritative.
    #[test]
    fn tampered_digest_degrades_to_full_synthesis() {
        let mut s = session(6);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        let mut snap = s.snapshot();
        let digest = snap.engine.as_mut().unwrap();
        digest.synced_len = 99; // inconsistent with any replayed trace
        let restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.mode(), s.mode());
        assert_eq!(restored.predictions(), s.predictions());
        assert_eq!(restored.current_program(), s.current_program());
    }

    /// Re-eviction after a restore keeps working: snapshot → restore →
    /// snapshot → restore round-trips (the thrash pattern the service's
    /// LRU eviction produces).
    #[test]
    fn repeated_snapshot_cycles_round_trip() {
        let mut reference = session(7);
        let mut thrashed = Session::restore(&session(7).snapshot()).unwrap();
        let drive = |s: &mut Session, event: Event| s.handle(event);
        for i in 1..=2 {
            assert_eq!(
                drive(&mut reference, Event::Demonstrate(scrape(i))),
                drive(&mut thrashed, Event::Demonstrate(scrape(i)))
            );
            // Evict + restore the subject between every event.
            thrashed = Session::restore(&thrashed.snapshot()).unwrap();
        }
        while reference.mode() == Mode::Authorize {
            assert_eq!(
                drive(&mut reference, Event::Accept { index: 0 }),
                drive(&mut thrashed, Event::Accept { index: 0 })
            );
            assert_eq!(reference.predictions(), thrashed.predictions());
            thrashed = Session::restore(&thrashed.snapshot()).unwrap();
        }
        while reference.mode() == Mode::Automate {
            assert_eq!(
                reference.handle(Event::AutomateStep),
                thrashed.handle(Event::AutomateStep)
            );
            thrashed = Session::restore(&thrashed.snapshot()).unwrap();
        }
        assert_eq!(reference.browser().outputs(), thrashed.browser().outputs());
        assert_eq!(reference.executed(), thrashed.executed());
    }

    /// Drives an event through the sliced path to completion (one
    /// worklist item per quantum — maximal slicing) and reports whether
    /// the step ever parked.
    fn drive_quantum(s: &mut Session, event: Event) -> (Result<StepOutcome, SessionError>, bool) {
        match s.handle_quantum(event, Duration::ZERO) {
            Err(e) => (Err(e), false),
            Ok(Some(outcome)) => (Ok(outcome), false),
            Ok(None) => loop {
                assert!(s.has_pending());
                if let Some(outcome) = s.continue_quantum(Duration::ZERO) {
                    assert!(!s.has_pending());
                    return (Ok(outcome), true);
                }
            },
        }
    }

    /// The sliced event path is observably identical to the unsliced
    /// one across a whole demo→authorize→automate workflow, including
    /// error probes, even when every search is parked after every item.
    #[test]
    fn quantum_workflow_matches_unsliced() {
        let mut sliced = session(6);
        let mut unsliced = session(6);
        let mut ever_parked = false;
        let probe = |s: &Session| {
            (
                s.mode(),
                s.predictions().to_vec(),
                s.executed().len(),
                s.browser().outputs().to_vec(),
                s.snapshot().engine,
            )
        };
        let events: Vec<Event> = vec![
            Event::Demonstrate(scrape(1)),
            Event::AutomateStep, // WrongMode probe
            Event::Demonstrate(scrape(2)),
            Event::Accept { index: 7 }, // InvalidPrediction probe
            Event::Accept { index: 0 },
            Event::Accept { index: 0 },
            Event::AutomateStep,
            Event::AutomateStep,
            Event::AutomateStep, // past the last anchor: ProgramFinished
            Event::Finish,
        ];
        for event in events {
            let (got, parked) = drive_quantum(&mut sliced, event.clone());
            let want = unsliced.handle(event);
            assert_eq!(got, want);
            assert_eq!(probe(&mut sliced), probe(&mut unsliced));
            ever_parked |= parked;
        }
        assert!(ever_parked, "zero-budget quanta actually sliced a search");
    }

    /// Synthesis-free events complete in one quantum regardless of
    /// budget.
    #[test]
    fn synthesis_free_events_never_park() {
        let mut s = session(5);
        assert_eq!(
            s.handle_quantum(Event::Demonstrate(scrape(1)), Duration::from_secs(60)),
            Ok(Some(StepOutcome::Recorded))
        );
        let (out, _) = drive_quantum(&mut s, Event::Demonstrate(scrape(2)));
        assert_eq!(out, Ok(StepOutcome::Recorded));
        assert_eq!(s.mode(), Mode::Authorize);
        assert_eq!(
            s.handle_quantum(Event::RejectAll, Duration::ZERO),
            Ok(Some(StepOutcome::NeedDemonstration))
        );
        assert_eq!(
            s.handle_quantum(Event::Interrupt, Duration::ZERO),
            Ok(Some(StepOutcome::Interrupted))
        );
        assert_eq!(
            s.handle_quantum(Event::Finish, Duration::ZERO),
            Ok(Some(StepOutcome::Finished))
        );
        assert_eq!(
            s.handle_quantum(Event::Finish, Duration::ZERO),
            Err(SessionError::SessionClosed)
        );
    }

    /// A snapshot taken right after a rejection restores with cleared
    /// predictions (the replay alone would re-derive them).
    #[test]
    fn snapshot_preserves_rejection_state() {
        let mut s = session(5);
        s.handle(Event::Demonstrate(scrape(1))).unwrap();
        s.handle(Event::Demonstrate(scrape(2))).unwrap();
        s.handle(Event::RejectAll).unwrap();
        let restored = Session::restore(&s.snapshot()).unwrap();
        assert_eq!(restored.mode(), Mode::Demonstrate);
        assert!(restored.predictions().is_empty());
        // Rejection clears the cached fallback, not the engine's live
        // results: both sessions agree either way.
        assert_eq!(restored.current_program(), s.current_program());
    }
}
