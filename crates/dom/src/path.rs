//! Concrete selectors: the paper's `ρ ::= ε | ρ/φ[i] | ρ//φ[i]` with
//! predicates `φ ::= t | t[@τ = s]`.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::error::PathParseError;
use crate::node::{Dom, NodeId};

/// Step axis: `/` (child) or `//` (descendant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `n/φ[i]`: the `i`-th child of `n` satisfying `φ`.
    Child,
    /// `n//φ[i]`: the `i`-th node in the subtree rooted at `n` (document
    /// order, excluding `n`) satisfying `φ`.
    Descendant,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => write!(f, "/"),
            Axis::Descendant => write!(f, "//"),
        }
    }
}

/// Node predicate `φ ::= t | t[@τ = s]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred {
    /// HTML tag `t`.
    pub tag: String,
    /// Optional attribute constraint `@τ = s`.
    pub attr: Option<(String, String)>,
}

impl Pred {
    /// Bare tag predicate `t`.
    pub fn tag(tag: impl Into<String>) -> Pred {
        Pred {
            tag: tag.into(),
            attr: None,
        }
    }

    /// Attribute predicate `t[@τ = s]`.
    pub fn with_attr(
        tag: impl Into<String>,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Pred {
        Pred {
            tag: tag.into(),
            attr: Some((name.into(), value.into())),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.attr {
            None => write!(f, "{}", self.tag),
            Some((n, v)) => write!(f, "{}[@{}='{}']", self.tag, n, v),
        }
    }
}

/// One selector step `axis φ [i]` with a 1-based match index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Step {
    /// Child or descendant axis.
    pub axis: Axis,
    /// Node predicate.
    pub pred: Pred,
    /// 1-based index among nodes matching `pred` along `axis`.
    pub index: usize,
}

impl Step {
    /// Child-axis step `/φ[i]`.
    pub fn child(pred: Pred, index: usize) -> Step {
        Step {
            axis: Axis::Child,
            pred,
            index,
        }
    }

    /// Descendant-axis step `//φ[i]`.
    pub fn descendant(pred: Pred, index: usize) -> Step {
        Step {
            axis: Axis::Descendant,
            pred,
            index,
        }
    }

    /// Resolves this step from `base` on `dom`.
    pub fn resolve_from(&self, dom: &Dom, base: NodeId) -> Option<NodeId> {
        match self.axis {
            Axis::Child => dom.nth_child(base, &self.pred, self.index),
            Axis::Descendant => dom.nth_descendant(base, &self.pred, self.index),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}[{}]", self.axis, self.pred, self.index)
    }
}

/// A concrete selector `ρ`: a sequence of steps rooted at the document root
/// (`ε`).
///
/// Displayed and parsed in XPath-like syntax, e.g.
/// `/body[1]//div[@class='item'][2]/h3[1]`.
///
/// # Example
///
/// ```
/// use webrobot_dom::Path;
///
/// let p: Path = "//div[@class='item'][2]/h3[1]".parse()?;
/// assert_eq!(p.to_string(), "//div[@class='item'][2]/h3[1]");
/// # Ok::<(), webrobot_dom::PathParseError>(())
/// ```
///
/// The steps are shared: cloning a path (and so a selector, a statement or
/// a whole program) bumps a reference count instead of copying every step
/// and tag string.
#[derive(Debug, Clone)]
pub struct Path {
    steps: Arc<[Step]>,
    /// FNV-1a digest of `steps`, computed at construction. Selector
    /// hashing dominates the resolution-cache and memo-table probes during
    /// synthesis; precomputing turns every probe into a single `u64` write
    /// instead of re-walking tag/attr strings.
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `steps` onto an FNV-1a accumulator. Sequential, so a path's hash
/// can be extended in place when appending steps ([`Path::join`],
/// [`Path::concat`]).
fn fold_steps(mut h: u64, steps: &[Step]) -> u64 {
    let mut byte = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    for step in steps {
        byte(match step.axis {
            Axis::Child => 1,
            Axis::Descendant => 2,
        });
        step.pred.tag.bytes().for_each(&mut byte);
        byte(0);
        if let Some((name, value)) = &step.pred.attr {
            byte(3);
            name.bytes().for_each(&mut byte);
            byte(0);
            value.bytes().for_each(&mut byte);
            byte(0);
        }
        for b in step.index.to_le_bytes() {
            byte(b);
        }
    }
    h
}

impl PartialEq for Path {
    /// Once the hashes match, `Arc`'s equality answers from the pointer
    /// when both paths share their steps.
    fn eq(&self, other: &Path) -> bool {
        self.hash == other.hash && self.steps == other.steps
    }
}

impl Eq for Path {}

impl std::hash::Hash for Path {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Path) -> std::cmp::Ordering {
        self.steps.cmp(&other.steps)
    }
}

impl Default for Path {
    fn default() -> Path {
        Path::root()
    }
}

impl Path {
    /// The empty selector `ε` (denotes the document root).
    pub fn root() -> Path {
        Path {
            steps: Arc::default(),
            hash: FNV_OFFSET,
        }
    }

    /// Builds a path from steps.
    pub fn new(steps: Vec<Step>) -> Path {
        Path::shared(steps.into())
    }

    fn shared(steps: Arc<[Step]>) -> Path {
        let hash = fold_steps(FNV_OFFSET, &steps);
        Path { steps, hash }
    }

    /// The steps of this path.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` iff this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Returns a new path with `step` appended.
    ///
    /// Builds the step vector at its exact final capacity: clone-then-push
    /// reserved for the cloned length and then grew (amplifying twice on
    /// the loop-guard derivation hot path), while this allocates once.
    /// Moving the vector into the shared slice costs a second allocation
    /// and a copy, yet measured faster than collecting the steps and the
    /// new one straight into the slice.
    pub fn join(&self, step: Step) -> Path {
        let mut steps = Vec::with_capacity(self.steps.len() + 1);
        steps.extend_from_slice(&self.steps);
        steps.push(step);
        let hash = fold_steps(self.hash, &steps[self.steps.len()..]);
        Path {
            steps: steps.into(),
            hash,
        }
    }

    /// Concatenates two paths in one allocation. An empty suffix, as in
    /// resolving `%r0` itself, shares this path's steps.
    pub fn concat(&self, suffix: &Path) -> Path {
        if suffix.is_empty() {
            return self.clone();
        }
        let steps = self.steps.iter().chain(suffix.steps.iter()).cloned();
        Path {
            steps: steps.collect(),
            hash: fold_steps(self.hash, &suffix.steps),
        }
    }

    /// `true` iff `prefix` is a step-wise prefix of this path.
    pub fn starts_with(&self, prefix: &Path) -> bool {
        self.steps.len() >= prefix.steps.len() && self.steps[..prefix.steps.len()] == *prefix.steps
    }

    /// Strips `prefix`, returning the remaining suffix path.
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        if self.starts_with(prefix) {
            Some(Path::shared(self.steps[prefix.steps.len()..].into()))
        } else {
            None
        }
    }

    /// The prefix consisting of the first `n` steps.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> Path {
        Path::shared(self.steps[..n].into())
    }

    /// Resolves the path on `dom` starting from the document root.
    ///
    /// Returns `None` when any step has no `i`-th match — the paper's
    /// `¬valid(ρ, π)`.
    ///
    /// Root-based resolutions are memoized per DOM (invalidated on any
    /// mutation), so loop guards and validation re-checks of the same
    /// selector cost a hash probe after the first walk. Equivalent to
    /// [`Path::resolve_uncached`] by construction; the differential test
    /// `resolve_cache.rs` pins that over randomized DOMs.
    pub fn resolve(&self, dom: &Dom) -> Option<NodeId> {
        dom.resolve_cached(self)
    }

    /// [`Path::resolve`] without the per-DOM memo: always walks the tree.
    ///
    /// Exists for differential tests and benchmarks of the cache itself;
    /// callers should prefer [`Path::resolve`].
    pub fn resolve_uncached(&self, dom: &Dom) -> Option<NodeId> {
        self.resolve_from(dom, NodeId::ROOT)
    }

    /// Resolves the path on `dom` starting from `base`.
    pub fn resolve_from(&self, dom: &Dom, base: NodeId) -> Option<NodeId> {
        let mut cur = base;
        for step in self.steps.iter() {
            cur = step.resolve_from(dom, cur)?;
        }
        Some(cur)
    }

    /// The paper's `valid(ρ, π)`: does the selector denote a node on `dom`?
    pub fn valid(&self, dom: &Dom) -> bool {
        self.resolve(dom).is_some()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "ε");
        }
        for step in self.steps.iter() {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = PathParseError;

    fn from_str(s: &str) -> Result<Path, PathParseError> {
        Ok(Path::new(parse_steps(s)?))
    }
}

/// Parses a step list in XPath-like syntax. Shared with the symbolic
/// selector parser in `webrobot-lang`.
pub(crate) fn parse_steps(s: &str) -> Result<Vec<Step>, PathParseError> {
    let mut steps = Vec::new();
    let bytes = s.as_bytes();
    let mut pos = 0;
    if s == "ε" || s.is_empty() {
        return Ok(steps);
    }
    while pos < bytes.len() {
        let axis = if s[pos..].starts_with("//") {
            pos += 2;
            Axis::Descendant
        } else if s[pos..].starts_with('/') {
            pos += 1;
            Axis::Child
        } else {
            return Err(PathParseError::new(s, pos, "expected '/' or '//'"));
        };
        let tag_start = pos;
        while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-') {
            pos += 1;
        }
        if pos == tag_start {
            return Err(PathParseError::new(s, pos, "expected tag name"));
        }
        let tag = &s[tag_start..pos];
        let mut attr = None;
        if s[pos..].starts_with("[@") {
            pos += 2;
            let name_start = pos;
            while pos < bytes.len() && bytes[pos] != b'=' {
                pos += 1;
            }
            let name = &s[name_start..pos];
            if !s[pos..].starts_with("='") {
                return Err(PathParseError::new(s, pos, "expected ='value'"));
            }
            pos += 2;
            let val_start = pos;
            while pos < bytes.len() && bytes[pos] != b'\'' {
                pos += 1;
            }
            let value = &s[val_start..pos];
            if !s[pos..].starts_with("']") {
                return Err(PathParseError::new(s, pos, "expected closing ']"));
            }
            pos += 2;
            attr = Some((name.to_string(), value.to_string()));
        }
        if !s[pos..].starts_with('[') {
            return Err(PathParseError::new(s, pos, "expected '[index]'"));
        }
        pos += 1;
        let idx_start = pos;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        let index: usize = s[idx_start..pos]
            .parse()
            .map_err(|_| PathParseError::new(s, idx_start, "expected index"))?;
        if !s[pos..].starts_with(']') {
            return Err(PathParseError::new(s, pos, "expected ']'"));
        }
        pos += 1;
        steps.push(Step {
            axis,
            pred: Pred {
                tag: tag.to_string(),
                attr,
            },
            index,
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DomBuilder;

    fn sample() -> Dom {
        DomBuilder::new("html")
            .open("body")
            .open_with("div", &[("class", "nav")])
            .leaf_text("span", "menu")
            .close()
            .open_with("div", &[("class", "item")])
            .leaf_text("h3", "one")
            .close()
            .open_with("div", &[("class", "item")])
            .leaf_text("h3", "two")
            .close()
            .close()
            .finish()
    }

    #[test]
    fn resolve_child_steps() {
        let dom = sample();
        let p: Path = "/body[1]/div[2]/h3[1]".parse().unwrap();
        let n = p.resolve(&dom).unwrap();
        assert_eq!(dom.text_content(n), "one");
    }

    #[test]
    fn resolve_descendant_with_attr() {
        let dom = sample();
        let p: Path = "//div[@class='item'][2]//h3[1]".parse().unwrap();
        let n = p.resolve(&dom).unwrap();
        assert_eq!(dom.text_content(n), "two");
    }

    #[test]
    fn invalid_when_index_out_of_range() {
        let dom = sample();
        let p: Path = "//div[@class='item'][3]".parse().unwrap();
        assert!(!p.valid(&dom));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "/body[1]/div[2]/h3[1]",
            "//div[@class='item'][2]//h3[1]",
            "//a[17]",
            "/html-like[1]",
        ] {
            let p: Path = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
            let back: Path = p.to_string().parse().unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn empty_path_is_root() {
        let dom = sample();
        assert_eq!(Path::root().resolve(&dom), Some(NodeId::ROOT));
        assert_eq!(Path::root().to_string(), "ε");
        let parsed: Path = "ε".parse().unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!("body[1]".parse::<Path>().is_err());
        assert!("/body".parse::<Path>().is_err());
        assert!("/body[x]".parse::<Path>().is_err());
        assert!("/body[@class=1]".parse::<Path>().is_err());
    }

    #[test]
    fn prefix_and_strip() {
        let p: Path = "/body[1]/div[2]/h3[1]".parse().unwrap();
        let pre = p.prefix(2);
        assert!(p.starts_with(&pre));
        let suffix = p.strip_prefix(&pre).unwrap();
        assert_eq!(suffix.to_string(), "/h3[1]");
        assert_eq!(pre.concat(&suffix), p);
    }

    #[test]
    fn clones_share_their_steps() {
        let p: Path = "//div[@class='item'][2]/h3[1]".parse().unwrap();
        let q = p.clone();
        assert!(std::ptr::eq(p.steps().as_ptr(), q.steps().as_ptr()));
        assert_eq!(p, q);
    }

    #[test]
    fn zero_index_never_resolves() {
        let dom = sample();
        let p = Path::new(vec![Step::child(Pred::tag("body"), 0)]);
        assert!(!p.valid(&dom));
    }
}
