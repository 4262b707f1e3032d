//! Browser substrate for the WebRobot reproduction.
//!
//! The paper records demonstrations in a real browser and replays programs
//! through a browser extension. Neither is available offline, so this crate
//! provides the substitution documented in `DESIGN.md` §4: a deterministic
//! **website simulator** exercising the same code paths —
//!
//! * [`Site`]: a set of pages (DOM + URL) with interactive behaviour encoded
//!   in attributes (`href="#p3"` navigation, `data-search` forms whose
//!   results depend on the text entered into the matching `data-field`
//!   input),
//! * [`Browser`]: a live browser over a [`Site`] — performs [`Action`]s with
//!   real side effects (navigation, history for `GoBack`, DOM mutation on
//!   data entry) and collects scraped [`Output`]s,
//! * [`run_program`]: runs a web RPA [`Program`] live against a
//!   [`Browser`]. It evaluates no statement itself: it drives the trace
//!   semantics' own machine, the [`Stepper`], with the live page after
//!   each action, makes each action's selector absolute
//!   ([`Browser::absolutize`]) and performs it,
//! * [`record_demonstration`]: the same loop, recording the action/DOM
//!   [`Trace`] with **absolute XPaths**, reproducing the paper's §7.1
//!   experimental setup (500-action cap included).
//!
//! [`Action`]: webrobot_lang::Action
//! [`Program`]: webrobot_lang::Program
//! [`Stepper`]: webrobot_semantics::Stepper
//! [`Trace`]: webrobot_semantics::Trace

mod browser;
mod record;
mod runner;
mod site;

pub use browser::{Browser, BrowserError, Output};
pub use record::{record_demonstration, RecordLimits, Recording};
pub use runner::{run_program, RunOutcome};
pub use site::{PageId, Site, SiteBuilder};
