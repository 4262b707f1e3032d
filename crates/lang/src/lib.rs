//! The web RPA language of the WebRobot paper (Fig. 6) and its action
//! language (§3.2).
//!
//! A [`Program`] is a sequence of [`Statement`]s emulating user interactions
//! with a browser and a data source:
//!
//! ```text
//! P ::= S; ··; S
//! S ::= Click(n) | ScrapeText(n) | ScrapeLink(n) | Download(n)
//!     | GoBack | ExtractURL | SendKeys(n, s) | EnterData(n, v)
//!     | foreach ϱ in N do P          (selectors loop)
//!     | foreach ϑ in V do P          (value-path loop)
//!     | while true do { P; Click(n) }  (click-terminated while loop)
//! ```
//!
//! Selectors `n` are XPath-like paths that may start with a loop variable
//! `ϱ` ([`Selector`]); value paths `v` navigate the input data source and
//! may start with a loop variable `ϑ` ([`ValuePathExpr`]).
//!
//! An [`Action`] is the loop-free, variable-free counterpart of a statement:
//! what the recorder logs when the user demonstrates, and what the trace
//! semantics (in `webrobot-semantics`) produces when simulating a program.
//!
//! Programs pretty-print in paper-like syntax and parse back
//! ([`parse_program`]):
//!
//! ```
//! # fn main() -> Result<(), webrobot_lang::ParseError> {
//! let src = "\
//! foreach %r0 in Dscts(eps, div[@class='item']) do {
//!   ScrapeText(%r0//h3[1])
//! }";
//! let prog = webrobot_lang::parse_program(src)?;
//! assert_eq!(prog.statements().len(), 1);
//! assert_eq!(webrobot_lang::parse_program(&prog.to_string())?, prog);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod action;
mod intern;
mod parse;
mod program;
mod selector;
mod valuepath;
mod vars;

pub use action::{Action, ActionKind};
pub use intern::{SelectorId, SelectorInterner, StatementInterner, StmtId};
pub use parse::{parse_program, ParseError, MAX_PROGRAM_DEPTH};
pub use program::{ForeachSel, ForeachVal, Program, Statement, While};
pub use selector::{CollectionKind, SelBase, Selector, SelectorList};
pub use valuepath::{ValuePathExpr, ValuePathList, VpBase};
pub use vars::{SelVar, VarGen, VpVar};

// Re-export the concrete-path types that appear in this crate's public API,
// so downstream crates can use `webrobot_lang` standalone.
pub use webrobot_data::{PathSeg, Value, ValuePath};
pub use webrobot_dom::{Axis, Path, Pred, Step};
