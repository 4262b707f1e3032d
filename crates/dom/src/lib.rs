//! DOM substrate for the WebRobot reproduction.
//!
//! The paper's synthesizer operates over recorded *DOM traces*: snapshots of
//! the browser's Document Object Model, one per demonstrated action. This
//! crate provides everything DOM-related:
//!
//! * an arena-based [`Dom`] tree with tags, attributes and text,
//! * the paper's selector language `ρ ::= ε | ρ/φ[i] | ρ//φ[i]` with
//!   predicates `φ ::= t | t[@τ = s]` ([`Path`], [`Step`], [`Pred`]),
//! * absolute-XPath computation ([`Dom::absolute_path`]) as emitted by the
//!   front-end recorder,
//! * the `AlternativeSelectors` enumeration used by the anti-unification and
//!   parametrization rules of paper Figs. 10–11 ([`alternatives`]),
//! * a small HTML parser ([`parse_html`]) and serializer used by tests,
//!   examples and the website simulator.
//!
//! # Example
//!
//! ```
//! # use webrobot_dom::{parse_html, Path};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dom = parse_html("<html><body><a>x</a><a>y</a></body></html>")?;
//! let path: Path = "//a[2]".parse()?;
//! let node = path.resolve(&dom).expect("second anchor exists");
//! assert_eq!(dom.text_content(node), "y");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod alternatives;
mod error;
mod fxhash;
mod html;
mod intern;
mod node;
mod path;

pub use alternatives::{alternatives, AltConfig};
pub use error::{DomError, PathParseError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use html::{parse_html, to_html};
pub use intern::{PathId, PathInterner, PredId, StepId};
pub use node::{resolve_counters, Dom, DomBuilder, NodeId};
pub use path::{Axis, Path, Pred, Step};
