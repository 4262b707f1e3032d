//! Worklist items: a partial rewrite of the trace plus the slice
//! boundaries that witness invariants I1/I2 of paper Alg. 1.

use webrobot_lang::{Program, Statement};
use webrobot_semantics::Trace;

/// A worklist entry `(P, A⃗, Π⃗)`.
///
/// `stmts` is the program rewritten so far; `bounds` partitions the action
/// trace: statement `k` covers actions `bounds[k] .. bounds[k+1]` (and the
/// DOMs of the same indices). The invariants of Alg. 1 —
///
/// * **I1**: the slices concatenate back to the full trace, and
/// * **I2**: each statement satisfies its slice —
///
/// hold by construction: items are only created by [`Item::initial`]
/// (singleton statements) and by `validate` (which checks I2 semantically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub(crate) stmts: Vec<Statement>,
    pub(crate) bounds: Vec<usize>,
}

impl Item {
    /// The initial item `P₀ = a₁; ··; a_m` with singleton slices.
    pub fn initial(trace: &Trace) -> Item {
        let stmts: Vec<Statement> = trace.actions().iter().map(|a| a.to_statement()).collect();
        let bounds = (0..=trace.len()).collect();
        Item { stmts, bounds }
    }

    /// The rewritten program.
    pub fn statements(&self) -> &[Statement] {
        &self.stmts
    }

    /// Slice boundaries (length `statements().len() + 1`).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// `true` for the empty item (empty trace).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Number of actions this item covers (= trace length at creation).
    pub fn covered(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// First action index covered by statement `k` — also the index of the
    /// DOM that statement's first action executes on.
    pub fn slice_start(&self, k: usize) -> usize {
        self.bounds[k]
    }

    /// Extends the item with newly demonstrated actions as singleton
    /// statements (incremental synthesis, paper §5.4).
    ///
    /// # Panics
    ///
    /// Panics if the trace is shorter than what the item already covers.
    pub fn extended_to(&self, trace: &Trace) -> Item {
        let covered = self.covered();
        assert!(trace.len() >= covered, "trace shrank under an item");
        let mut stmts = self.stmts.clone();
        let mut bounds = self.bounds.clone();
        for idx in covered..trace.len() {
            stmts.push(trace.actions()[idx].to_statement());
            bounds.push(idx + 1);
        }
        Item { stmts, bounds }
    }

    /// The item as a [`Program`].
    pub fn to_program(&self) -> Program {
        Program::new(self.stmts.clone())
    }

    /// Rebuilds an item from a program and its slice boundaries — the
    /// inverse of [`Item::statements`] / [`Item::bounds`], used to adopt
    /// a persisted engine digest. Returns `None` unless `bounds` is a
    /// plausible partition witness: one more entry than statements,
    /// starting at 0, strictly increasing. (Whether each statement
    /// actually satisfies its slice is re-checked semantically when the
    /// adopted item next reaches the generalization check, exactly as a
    /// live item would be.)
    pub fn from_parts(stmts: Vec<Statement>, bounds: Vec<usize>) -> Option<Item> {
        let valid = bounds.len() == stmts.len() + 1
            && bounds.first() == Some(&0)
            && bounds.windows(2).all(|w| w[0] < w[1]);
        valid.then_some(Item { stmts, bounds })
    }

    /// Replaces statements `i..=r` with `stmt`, whose slice is
    /// `bounds[i] .. bounds[r+1]`.
    pub(crate) fn splice(&self, i: usize, r: usize, stmt: Statement) -> Item {
        let mut stmts = Vec::with_capacity(self.stmts.len() - (r - i));
        stmts.extend_from_slice(&self.stmts[..i]);
        stmts.push(stmt);
        stmts.extend_from_slice(&self.stmts[r + 1..]);
        let mut bounds = Vec::with_capacity(self.bounds.len() - (r - i));
        bounds.extend_from_slice(&self.bounds[..=i]);
        bounds.extend_from_slice(&self.bounds[r + 1..]);
        Item { stmts, bounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;
    use webrobot_lang::Action;

    fn trace(n: usize) -> Trace {
        let dom = Arc::new(parse_html("<html><a>x</a></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for _ in 0..n {
            t.push(Action::ScrapeText("/a[1]".parse().unwrap()), dom.clone());
        }
        t
    }

    #[test]
    fn initial_item_has_singleton_slices() {
        let t = trace(3);
        let item = Item::initial(&t);
        assert_eq!(item.len(), 3);
        assert_eq!(item.bounds(), &[0, 1, 2, 3]);
        assert_eq!(item.covered(), 3);
    }

    #[test]
    fn extension_appends_singletons() {
        let t3 = trace(3);
        let item = Item::initial(&t3.prefix(1));
        let ext = item.extended_to(&t3);
        assert_eq!(ext.len(), 3);
        assert_eq!(ext.bounds(), &[0, 1, 2, 3]);
    }

    #[test]
    fn splice_replaces_slice_range() {
        let t = trace(4);
        let item = Item::initial(&t);
        let spliced = item.splice(1, 2, Statement::GoBack);
        assert_eq!(spliced.len(), 3);
        assert_eq!(spliced.bounds(), &[0, 1, 3, 4]);
        assert_eq!(spliced.statements()[1], Statement::GoBack);
    }
}
