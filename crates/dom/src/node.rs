//! Arena-based DOM trees.

use crate::fxhash::FxHashMap;
use std::cell::Cell;
use std::fmt;
use std::sync::Mutex;

use crate::path::{Path, Pred, Step};

/// Upper bound on cached resolutions per DOM. A full cache keeps
/// answering lookups for the paths it already holds; further distinct
/// paths are resolved by walking, uncached. Loop guards and validation
/// revisit a working set far below this bound.
const RESOLVE_CACHE_CAP: usize = 4096;

thread_local! {
    /// This thread's monotonic resolution-cache `(hits, misses)`.
    static RESOLVE_COUNTERS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's monotonic `(hits, misses)` resolution-cache counters,
/// summed over every [`Dom`] it resolved against (see [`Path::resolve`]).
///
/// Callers sample before and after a region and subtract. The counters
/// are per thread rather than per DOM because page DOMs are shared: one
/// `Arc<Dom>` appears many times in a trace and is resolved against by
/// every session on its page, on any shard thread. A region that runs on
/// one thread from start to finish (a synthesis call or quantum) gets an
/// exact delta no matter what other threads resolve concurrently.
pub fn resolve_counters() -> (u64, u64) {
    RESOLVE_COUNTERS.with(Cell::get)
}

fn count_resolution(hit: bool) {
    RESOLVE_COUNTERS.with(|c| {
        let (hits, misses) = c.get();
        c.set(if hit {
            (hits + 1, misses)
        } else {
            (hits, misses + 1)
        });
    });
}

/// Interior-mutable memo of root-based path resolutions on one [`Dom`].
///
/// Semantically invisible: cloning a DOM starts an empty cache, equality
/// ignores it, and every `&mut self` mutator clears it (resolution is a
/// pure function of the tree, so cached entries are valid exactly until
/// the tree changes). A `Mutex` rather than a `RefCell` keeps `Dom`
/// `Send + Sync`. A site's page DOMs are shared through `Arc<Dom>` by
/// every session on that site, so the cache belongs to the page: any
/// shard thread may fill or probe it, each holding the lock for one
/// hash-map operation.
struct ResolveCache {
    map: Mutex<FxHashMap<Path, Option<NodeId>>>,
}

impl ResolveCache {
    fn new() -> ResolveCache {
        ResolveCache {
            map: Mutex::new(FxHashMap::default()),
        }
    }

    /// Locks the map, recovering from poisoning: the cache holds no
    /// invariants beyond "entries were computed on this tree", which a
    /// panic mid-insert cannot break.
    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<Path, Option<NodeId>>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, path: &Path) -> Option<Option<NodeId>> {
        self.lock().get(path).copied()
    }

    fn insert(&self, path: &Path, resolved: Option<NodeId>) {
        let mut map = self.lock();
        if map.len() < RESOLVE_CACHE_CAP {
            map.insert(path.clone(), resolved);
        }
    }

    /// Drops every entry. Requires `&mut`, so all mutation sites (which
    /// already hold `&mut Dom`) invalidate without touching the lock.
    fn invalidate(&mut self) {
        self.map
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// A fresh DOM (or clone) starts cold: cached node ids are indices into
/// *this* arena's history of mutations, never transferable.
impl Clone for ResolveCache {
    fn clone(&self) -> ResolveCache {
        ResolveCache::new()
    }
}

/// The cache never participates in DOM equality (it is derived data).
impl PartialEq for ResolveCache {
    fn eq(&self, _other: &ResolveCache) -> bool {
        true
    }
}
impl Eq for ResolveCache {}

impl fmt::Debug for ResolveCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResolveCache({} entries)", self.lock().len())
    }
}

/// Index of a node inside a [`Dom`] arena.
///
/// `NodeId(0)` is always the document root element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The document root element.
    pub const ROOT: NodeId = NodeId(0);

    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node {
    pub tag: String,
    pub attrs: Vec<(String, String)>,
    /// Direct text content of this element (before any child elements).
    pub text: String,
    pub children: Vec<NodeId>,
    pub parent: Option<NodeId>,
}

/// A DOM snapshot: an arena of element nodes rooted at [`NodeId::ROOT`].
///
/// `Dom` values are immutable from the synthesizer's point of view. The
/// website simulator shares each page's DOM through `Arc<Dom>` and copies
/// it only when data entry writes to it, so the recorded DOM trace Π holds
/// the site's own pages wherever the user only read or navigated.
///
/// # Example
///
/// ```
/// use webrobot_dom::Dom;
///
/// let mut dom = Dom::new("html");
/// let body = dom.append(webrobot_dom::NodeId::ROOT, "body");
/// let a = dom.append(body, "a");
/// dom.set_text(a, "hello");
/// assert_eq!(dom.text_content(a), "hello");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dom {
    nodes: Vec<Node>,
    /// Memoized root-based resolutions; derived data, invisible to
    /// `Clone`/`PartialEq` (see [`ResolveCache`]).
    cache: ResolveCache,
}

impl Dom {
    /// Creates a DOM with a single root element of the given tag.
    pub fn new(root_tag: impl Into<String>) -> Dom {
        Dom {
            nodes: vec![Node {
                tag: root_tag.into(),
                attrs: Vec::new(),
                text: String::new(),
                children: Vec::new(),
                parent: None,
            }],
            cache: ResolveCache::new(),
        }
    }

    /// Root-based resolution of `path` through the per-DOM memo: loop
    /// guards, validation and ranking resolve the same few selectors on
    /// the same snapshot over and over, so after the first walk each
    /// re-check is a hash probe. Falls back to the plain walk (uncached)
    /// once the cache is at capacity. Counts a hit or a miss on this
    /// thread's [`resolve_counters`].
    pub(crate) fn resolve_cached(&self, path: &Path) -> Option<NodeId> {
        if path.is_empty() {
            return Some(NodeId::ROOT);
        }
        if let Some(hit) = self.cache.get(path) {
            count_resolution(true);
            return hit;
        }
        count_resolution(false);
        let resolved = path.resolve_from(self, NodeId::ROOT);
        self.cache.insert(path, resolved);
        resolved
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the DOM has only the root node and the root is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.nodes[0].children.is_empty()
    }

    /// Appends a fresh child element with tag `tag` under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this DOM.
    pub fn append(&mut self, parent: NodeId, tag: impl Into<String>) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "parent not in arena");
        self.cache.invalidate();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            tag: tag.into(),
            attrs: Vec::new(),
            text: String::new(),
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Moves the `from`-th child of `parent` (0-based, document order) to
    /// position `to` among the remaining siblings, shifting the others.
    /// Out-of-range indices are a no-op — callers like the benchmark
    /// perturbation fuzzer draw indices blindly from a seeded RNG.
    pub fn move_child(&mut self, parent: NodeId, from: usize, to: usize) {
        let n = self.nodes[parent.index()].children.len();
        if from >= n || to >= n || from == to {
            return;
        }
        self.cache.invalidate();
        let children = &mut self.nodes[parent.index()].children;
        let child = children.remove(from);
        children.insert(to, child);
    }

    /// Removes `node` (and its entire subtree) from its parent's child list.
    ///
    /// The arena entries remain allocated but become unreachable; selector
    /// resolution never sees removed subtrees. Removing the root is a no-op.
    pub fn detach(&mut self, node: NodeId) {
        self.cache.invalidate();
        if let Some(parent) = self.nodes[node.index()].parent {
            self.nodes[parent.index()].children.retain(|&c| c != node);
            self.nodes[node.index()].parent = None;
        }
    }

    /// Tag of `node`.
    pub fn tag(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].tag
    }

    /// Direct text of `node` (not including descendants).
    pub fn text(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].text
    }

    /// Replaces the direct text of `node`.
    pub fn set_text(&mut self, node: NodeId, text: impl Into<String>) {
        // Text never affects resolution, but keeping "any mutation
        // invalidates" as the invariant is cheaper than auditing which
        // mutations a future predicate form might observe.
        self.cache.invalidate();
        self.nodes[node.index()].text = text.into();
    }

    /// Value of attribute `name` on `node`, if present.
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&str> {
        self.nodes[node.index()]
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes of `node` in insertion order.
    pub fn attrs(&self, node: NodeId) -> &[(String, String)] {
        &self.nodes[node.index()].attrs
    }

    /// Sets (or replaces) attribute `name` on `node`.
    pub fn set_attr(&mut self, node: NodeId, name: impl Into<String>, value: impl Into<String>) {
        self.cache.invalidate();
        let name = name.into();
        let value = value.into();
        let attrs = &mut self.nodes[node.index()].attrs;
        match attrs.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => attrs.push((name, value)),
        }
    }

    /// Children of `node` in document order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// `true` iff `node` refers to a live (attached) node of this DOM.
    pub fn contains(&self, node: NodeId) -> bool {
        if node.index() >= self.nodes.len() {
            return false;
        }
        // Walk to the root; detached subtrees fail to reach it.
        let mut cur = node;
        loop {
            match self.nodes[cur.index()].parent {
                Some(p) => cur = p,
                None => return cur == NodeId::ROOT,
            }
        }
    }

    /// Concatenated text of `node` and all its descendants, in document
    /// order, separated by single spaces where both sides are non-empty.
    pub fn text_content(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(node, &mut out);
        out
    }

    fn collect_text(&self, node: NodeId, out: &mut String) {
        let n = &self.nodes[node.index()];
        if !n.text.is_empty() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&n.text);
        }
        for &c in &n.children {
            self.collect_text(c, out);
        }
    }

    /// Preorder (document order) iterator over the subtree rooted at `node`,
    /// *excluding* `node` itself — this is the paper's descendant axis.
    pub fn descendants(&self, node: NodeId) -> Descendants<'_> {
        let mut stack = Vec::new();
        for &c in self.nodes[node.index()].children.iter().rev() {
            stack.push(c);
        }
        Descendants { dom: self, stack }
    }

    /// Tests whether `node` satisfies predicate `pred`.
    pub fn matches(&self, node: NodeId, pred: &Pred) -> bool {
        let n = &self.nodes[node.index()];
        if n.tag != pred.tag {
            return false;
        }
        match &pred.attr {
            None => true,
            Some((name, value)) => self.attr(node, name) == Some(value.as_str()),
        }
    }

    /// `i`-th (1-based) child of `base` matching `pred`.
    pub fn nth_child(&self, base: NodeId, pred: &Pred, i: usize) -> Option<NodeId> {
        if i == 0 {
            return None;
        }
        self.children(base)
            .iter()
            .copied()
            .filter(|&c| self.matches(c, pred))
            .nth(i - 1)
    }

    /// `i`-th (1-based) descendant of `base` matching `pred`, in document
    /// order, excluding `base` itself.
    pub fn nth_descendant(&self, base: NodeId, pred: &Pred, i: usize) -> Option<NodeId> {
        if i == 0 {
            return None;
        }
        self.descendants(base)
            .filter(|&d| self.matches(d, pred))
            .nth(i - 1)
    }

    /// 1-based position of `node` among `base`'s children matching `pred`.
    ///
    /// Returns `None` if `node` is not a matching child of `base`.
    pub fn child_match_index(&self, base: NodeId, pred: &Pred, node: NodeId) -> Option<usize> {
        let mut count = 0;
        for &c in self.children(base) {
            if self.matches(c, pred) {
                count += 1;
                if c == node {
                    return Some(count);
                }
            }
        }
        None
    }

    /// 1-based position of `node` among `base`'s descendants matching
    /// `pred` (document order, excluding `base`).
    pub fn descendant_match_index(&self, base: NodeId, pred: &Pred, node: NodeId) -> Option<usize> {
        let mut count = 0;
        for d in self.descendants(base) {
            if self.matches(d, pred) {
                count += 1;
                if d == node {
                    return Some(count);
                }
            }
        }
        None
    }

    /// The absolute XPath of `node`: a chain of child steps with bare tag
    /// predicates, indexed among same-tag siblings — exactly the selectors a
    /// browser-side recorder emits (paper §7.1 converts all recorded
    /// selectors to this form).
    ///
    /// # Panics
    ///
    /// Panics if `node` is detached from the document tree.
    pub fn absolute_path(&self, node: NodeId) -> Path {
        let mut steps = Vec::new();
        let mut cur = node;
        while let Some(parent) = self.parent(cur) {
            let pred = Pred::tag(self.tag(cur));
            let idx = self
                .child_match_index(parent, &pred, cur)
                .expect("node must be attached to its parent");
            steps.push(Step::child(pred, idx));
            cur = parent;
        }
        assert_eq!(cur, NodeId::ROOT, "absolute_path on a detached node");
        steps.reverse();
        Path::new(steps)
    }

    /// All live node ids in document order (preorder from the root),
    /// including the root.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut out = vec![NodeId::ROOT];
        out.extend(self.descendants(NodeId::ROOT));
        out
    }

    /// Structural hash of the DOM, used by tests and the recorder to detect
    /// whether an action mutated the page.
    pub fn structure_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for id in self.all_nodes() {
            let n = &self.nodes[id.index()];
            n.tag.hash(&mut h);
            n.attrs.hash(&mut h);
            n.text.hash(&mut h);
            n.children.len().hash(&mut h);
        }
        h.finish()
    }
}

/// Iterator over the descendants of a node in document order.
///
/// Produced by [`Dom::descendants`].
#[derive(Debug)]
pub struct Descendants<'a> {
    dom: &'a Dom,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        for &c in self.dom.children(next).iter().rev() {
            self.stack.push(c);
        }
        Some(next)
    }
}

/// Fluent builder for constructing DOM trees in tests, examples and site
/// templates.
///
/// # Example
///
/// ```
/// use webrobot_dom::DomBuilder;
///
/// let dom = DomBuilder::new("html")
///     .open("body")
///     .open_with("div", &[("class", "item")])
///     .leaf_text("h3", "First")
///     .close()
///     .close()
///     .finish();
/// assert_eq!(dom.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DomBuilder {
    dom: Dom,
    stack: Vec<NodeId>,
}

impl DomBuilder {
    /// Starts a builder with the given root tag; the cursor is at the root.
    pub fn new(root_tag: impl Into<String>) -> DomBuilder {
        DomBuilder {
            dom: Dom::new(root_tag),
            stack: vec![NodeId::ROOT],
        }
    }

    fn cursor(&self) -> NodeId {
        *self.stack.last().expect("builder stack never empty")
    }

    /// Opens a child element and moves the cursor into it.
    pub fn open(mut self, tag: &str) -> DomBuilder {
        let id = self.dom.append(self.cursor(), tag);
        self.stack.push(id);
        self
    }

    /// Opens a child element with attributes and moves the cursor into it.
    pub fn open_with(mut self, tag: &str, attrs: &[(&str, &str)]) -> DomBuilder {
        let id = self.dom.append(self.cursor(), tag);
        for (k, v) in attrs {
            self.dom.set_attr(id, *k, *v);
        }
        self.stack.push(id);
        self
    }

    /// Adds a childless element with text under the cursor.
    pub fn leaf_text(mut self, tag: &str, text: &str) -> DomBuilder {
        let id = self.dom.append(self.cursor(), tag);
        self.dom.set_text(id, text);
        self
    }

    /// Adds a childless element with attributes and text under the cursor.
    pub fn leaf_with(mut self, tag: &str, attrs: &[(&str, &str)], text: &str) -> DomBuilder {
        let id = self.dom.append(self.cursor(), tag);
        for (k, v) in attrs {
            self.dom.set_attr(id, *k, *v);
        }
        self.dom.set_text(id, text);
        self
    }

    /// Sets text on the element currently under the cursor.
    pub fn text(mut self, text: &str) -> DomBuilder {
        let cur = self.cursor();
        self.dom.set_text(cur, text);
        self
    }

    /// Sets an attribute on the element currently under the cursor.
    pub fn attr(mut self, name: &str, value: &str) -> DomBuilder {
        let cur = self.cursor();
        self.dom.set_attr(cur, name, value);
        self
    }

    /// Closes the current element, moving the cursor to its parent.
    ///
    /// # Panics
    ///
    /// Panics when called at the root.
    pub fn close(mut self) -> DomBuilder {
        assert!(self.stack.len() > 1, "close() called at document root");
        self.stack.pop();
        self
    }

    /// Finishes the builder and returns the DOM.
    pub fn finish(self) -> Dom {
        self.dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dom {
        // html > body > (div.a > h3, div.b > h3)
        DomBuilder::new("html")
            .open("body")
            .open_with("div", &[("class", "a")])
            .leaf_text("h3", "one")
            .close()
            .open_with("div", &[("class", "b")])
            .leaf_text("h3", "two")
            .close()
            .close()
            .finish()
    }

    #[test]
    fn append_links_parent_and_children() {
        let mut dom = Dom::new("html");
        let body = dom.append(NodeId::ROOT, "body");
        assert_eq!(dom.parent(body), Some(NodeId::ROOT));
        assert_eq!(dom.children(NodeId::ROOT), &[body]);
    }

    #[test]
    fn descendants_are_preorder() {
        let dom = sample();
        let tags: Vec<&str> = dom.descendants(NodeId::ROOT).map(|n| dom.tag(n)).collect();
        assert_eq!(tags, vec!["body", "div", "h3", "div", "h3"]);
    }

    #[test]
    fn nth_child_counts_matches_only() {
        let dom = sample();
        let body = dom.children(NodeId::ROOT)[0];
        let second_div = dom.nth_child(body, &Pred::tag("div"), 2).unwrap();
        assert_eq!(dom.attr(second_div, "class"), Some("b"));
        assert!(dom.nth_child(body, &Pred::tag("div"), 3).is_none());
        assert!(dom.nth_child(body, &Pred::tag("div"), 0).is_none());
    }

    #[test]
    fn nth_descendant_with_attr_pred() {
        let dom = sample();
        let pred = Pred::with_attr("div", "class", "b");
        let d = dom.nth_descendant(NodeId::ROOT, &pred, 1).unwrap();
        assert_eq!(dom.text_content(d), "two");
        assert!(dom.nth_descendant(NodeId::ROOT, &pred, 2).is_none());
    }

    #[test]
    fn match_indices_invert_nth() {
        let dom = sample();
        let pred = Pred::tag("h3");
        for i in 1..=2 {
            let n = dom.nth_descendant(NodeId::ROOT, &pred, i).unwrap();
            assert_eq!(dom.descendant_match_index(NodeId::ROOT, &pred, n), Some(i));
        }
    }

    #[test]
    fn absolute_path_resolves_back() {
        let dom = sample();
        for node in dom.all_nodes() {
            let path = dom.absolute_path(node);
            assert_eq!(path.resolve(&dom), Some(node), "path {path}");
        }
    }

    #[test]
    fn detach_makes_subtree_unreachable() {
        let mut dom = sample();
        let body = dom.children(NodeId::ROOT)[0];
        let div = dom.children(body)[0];
        let h3 = dom.children(div)[0];
        dom.detach(div);
        assert!(!dom.contains(div));
        assert!(!dom.contains(h3));
        assert!(dom.contains(body));
        assert_eq!(dom.nth_descendant(NodeId::ROOT, &Pred::tag("h3"), 2), None);
    }

    #[test]
    fn move_child_reorders_and_reresolves() {
        let mut dom = sample();
        let body = dom.children(NodeId::ROOT)[0];
        // Warm the resolve cache, then reorder: div.b becomes child 1.
        let first = dom.nth_child(body, &Pred::tag("div"), 1).unwrap();
        assert_eq!(dom.attr(first, "class"), Some("a"));
        dom.move_child(body, 1, 0);
        let first = dom.nth_child(body, &Pred::tag("div"), 1).unwrap();
        assert_eq!(dom.attr(first, "class"), Some("b"));
        // Paths still resolve back after the reorder.
        for node in dom.all_nodes() {
            assert_eq!(dom.absolute_path(node).resolve(&dom), Some(node));
        }
    }

    #[test]
    fn move_child_out_of_range_is_noop() {
        let mut dom = sample();
        let body = dom.children(NodeId::ROOT)[0];
        let before = dom.children(body).to_vec();
        dom.move_child(body, 5, 0);
        dom.move_child(body, 0, 5);
        dom.move_child(body, 1, 1);
        assert_eq!(dom.children(body), &before[..]);
    }

    #[test]
    fn set_attr_replaces_existing() {
        let mut dom = Dom::new("html");
        dom.set_attr(NodeId::ROOT, "class", "x");
        dom.set_attr(NodeId::ROOT, "class", "y");
        assert_eq!(dom.attr(NodeId::ROOT, "class"), Some("y"));
        assert_eq!(dom.attrs(NodeId::ROOT).len(), 1);
    }

    #[test]
    fn text_content_concatenates() {
        let dom = sample();
        assert_eq!(dom.text_content(NodeId::ROOT), "one two");
    }

    #[test]
    fn structure_hash_changes_on_mutation() {
        let mut dom = sample();
        let before = dom.structure_hash();
        let body = dom.children(NodeId::ROOT)[0];
        dom.set_attr(body, "id", "main");
        assert_ne!(before, dom.structure_hash());
    }
}
