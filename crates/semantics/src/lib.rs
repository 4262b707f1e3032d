//! Trace semantics of the web RPA language (paper §3.2, Figs. 7–9) and the
//! synthesis-problem definitions built on it (paper §4).
//!
//! The key judgment is `Π, Σ ⊢ P ⇝ A′, Π′, Σ′`: given a recorded DOM trace
//! Π and an environment Σ, the program `P` *would* execute the actions `A′`.
//! Execution is **simulated** — no real browser is touched; instead each
//! action "angelically" consumes the next DOM from Π, and loop guards
//! (`valid(ρ, π)`) are answered against the current DOM. This is what lets
//! the synthesizer evaluate arbitrarily wrong candidate programs without
//! side effects.
//!
//! The crate provides:
//!
//! * [`Stepper`] — the machine: the Fig. 7 rules (lazy selector loops,
//!   eager value-path loops, click-terminated while loops) as a resumable
//!   machine that takes one DOM per step. Validation, the incremental
//!   fast path, live replay and trace recording all run it,
//! * [`execute`] — the reference: the same rules as a direct recursive
//!   interpreter over a whole DOM trace, the executable statement of
//!   Fig. 7 that the `Stepper` is checked against,
//! * [`action_consistent`] / [`trace_consistent`] — the DOM-node-identity
//!   based consistency relation of Def. 4.1,
//! * [`satisfies`] and [`generalizes`] — Defs. 4.1 and 4.2,
//! * [`Trace`] — a recorded demonstration (actions + DOMs + input data).
//!
//! # Example (paper Example 3.1 / Fig. 9)
//!
//! ```
//! use std::sync::Arc;
//! use webrobot_dom::parse_html;
//! use webrobot_lang::{parse_program, Value};
//! use webrobot_semantics::execute;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pi1 = Arc::new(parse_html("<html><a>1</a><a>2</a></html>")?);
//! let pi2 = Arc::new(parse_html("<html><a>1</a><a>2</a></html>")?);
//! let prog = parse_program("foreach %r0 in Dscts(eps, a) do {\n  Click(%r0)\n}")?;
//! let out = execute(prog.statements(), &[pi1, pi2], &Value::Object(vec![]))?;
//! let printed: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
//! assert_eq!(printed, vec!["Click(//a[1])", "Click(//a[2])"]);
//! # Ok(())
//! # }
//! ```

mod consistency;
mod interp;
mod problem;
mod stepper;
mod trace;

pub use consistency::{action_consistent, same_node, trace_consistent};
pub use interp::{execute, EvalError, EvalOutcome};
pub use problem::{generalizes, satisfies};
pub use stepper::Stepper;
pub use trace::Trace;
