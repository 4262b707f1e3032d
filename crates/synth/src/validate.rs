//! The `Validate` procedure (paper Alg. 3): checking s-rewrites against the
//! trace semantics and turning true rewrites into new worklist items.

use webrobot_semantics::{action_consistent, Stepper};

use crate::context::SynthContext;
use crate::item::Item;
use crate::speculate::SRewrite;

/// Validates one s-rewrite against `item`.
///
/// Executes the speculated statement on the DOM slice starting at its first
/// iteration (`Π_i ++ ·· ++ Π_l`, i.e. everything up to — but excluding —
/// the latest DOM), then checks that the produced action trace equals the
/// recorded slice up to some statement boundary `r > j` (consistency is
/// node-identity per DOM, not selector syntax).
///
/// Execution is driven step by step through the resumable [`Stepper`] and
/// compared against the recorded slice *as it goes*: most speculative
/// rewrites are spurious and die on their first or second action, so
/// aborting there — instead of simulating the statement across the whole
/// slice and comparing afterwards — removes the dominant cost of the
/// worklist loop. Accept/reject verdicts are unchanged: a rewrite whose
/// produced trace mismatches anywhere is rejected either way, and one
/// that matches everywhere runs the exact same number of steps.
///
/// On success, returns the rewritten item with statements `i..=r` replaced
/// by the loop; invariants I1/I2 hold by this very check.
pub fn validate(sr: &SRewrite, item: &Item, ctx: &SynthContext) -> Option<Item> {
    let m = item.covered();
    let start = item.bounds()[sr.i];
    // The execution outcome is item-independent (it only reads the slice
    // `start..m` of the shared trace), so sibling items speculating the
    // same rewrite share one run through the memo table.
    let end = match ctx.validation_key(sr.cid, start, m) {
        Some(key) => match ctx.validation_hit(&key) {
            Some(hit) => hit?,
            None => {
                let end = consistent_stop(&sr.stmt, start, m, ctx);
                ctx.validation_store(key, end);
                end?
            }
        },
        None => consistent_stop(&sr.stmt, start, m, ctx)?,
    };
    // The produced trace must stop exactly at a statement boundary…
    let boundary = item.bounds().binary_search(&end).ok()?;
    // …strictly beyond the first iteration (r ≥ j + 1, boundary = r + 1).
    if boundary < sr.j + 2 {
        return None;
    }
    Some(item.splice(sr.i, boundary - 1, (*sr.stmt).clone()))
}

/// Drives `stmt` over `doms[start..m]` and returns where its produced
/// trace stops, or `None` as soon as a produced action is inconsistent
/// with its recorded counterpart.
fn consistent_stop(
    stmt: &webrobot_lang::Statement,
    start: usize,
    m: usize,
    ctx: &SynthContext,
) -> Option<usize> {
    let trace = ctx.trace();
    let mut stepper = Stepper::new(std::slice::from_ref(stmt), trace.input().clone());
    let mut end = start;
    while end < m {
        match stepper.step(&trace.doms()[end]) {
            Ok(Some(produced)) => {
                if !action_consistent(&produced, &trace.actions()[end], &trace.doms()[end]) {
                    return None;
                }
                end += 1;
            }
            Ok(None) => break,
            Err(_) => return None,
        }
    }
    Some(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::speculate::speculate;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;
    use webrobot_lang::{Action, Statement};
    use webrobot_semantics::{generalizes, Trace};

    /// Four items, two demonstrated: validation must stretch a speculated
    /// loop across all four recorded scrapes.
    fn four_anchor_trace() -> Trace {
        let dom =
            Arc::new(parse_html("<html><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=4 {
            t.push(
                Action::ScrapeText(format!("/a[{i}]").parse().unwrap()),
                dom.clone(),
            );
        }
        t
    }

    #[test]
    fn true_rewrite_covers_beyond_first_iteration() {
        let trace = four_anchor_trace();
        let mut ctx = SynthContext::new(SynthConfig::default(), trace.clone());
        let item = Item::initial(&trace);
        let srs = speculate(&item, &mut ctx);
        let mut validated: Vec<Item> = srs
            .iter()
            .filter_map(|sr| validate(sr, &item, &ctx))
            .collect();
        assert!(!validated.is_empty());
        validated.sort_by_key(Item::len);
        // The best rewrite collapses everything into one loop statement…
        let best = &validated[0];
        assert_eq!(best.len(), 1);
        assert!(matches!(best.statements()[0], Statement::ForeachSel(_)));
        // …which also generalizes the trace (predicting the 5th anchor).
        let pred = generalizes(best.statements(), &trace).expect("generalizes");
        let want = Action::ScrapeText("/a[5]".parse().unwrap());
        assert!(webrobot_semantics::action_consistent(
            &pred,
            &want,
            trace.latest_dom()
        ));
    }

    #[test]
    fn spurious_rewrite_is_rejected() {
        // Demonstration scrapes a[1], a[2], then a *header* h3 — a loop
        // over anchors speculated from (a[1], a[2]) must NOT absorb the h3,
        // and covering only its own first two statements is not enough…
        let dom = Arc::new(parse_html("<html><a>1</a><a>2</a><h3>x</h3></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        t.push(Action::ScrapeText("/a[1]".parse().unwrap()), dom.clone());
        t.push(Action::ScrapeText("/a[2]".parse().unwrap()), dom.clone());
        t.push(Action::ScrapeText("/h3[1]".parse().unwrap()), dom.clone());
        let mut ctx = SynthContext::new(SynthConfig::default(), t.clone());
        let item = Item::initial(&t);
        let srs = speculate(&item, &mut ctx);
        // A window [a1] with pair (a1, a2) speculates a 1-statement loop;
        // executing it scrapes a[1], a[2] and then *stops* (no a[3]), so
        // r = 1 ≥ j+1 = 1 ✓ — it IS a true rewrite covering exactly the two
        // anchors, but never the h3.
        for sr in &srs {
            if let Some(rewritten) = validate(sr, &item, &ctx) {
                let last = rewritten.statements().last().unwrap();
                assert_eq!(last, &t.actions()[2].to_statement(), "h3 stays raw");
            }
        }
    }

    #[test]
    fn rewrite_must_stop_on_statement_boundary() {
        // Items have TWO fields each; a bogus loop that only scrapes the
        // first field would stop mid-slice when re-executed… construct the
        // situation by hand-feeding a 1-field s-rewrite on a 2-field trace.
        use webrobot_lang::parse_program;
        let dom = Arc::new(
            parse_html(
                "<html><div class='i'><h3>a</h3><b>1</b></div>\
                 <div class='i'><h3>b</h3><b>2</b></div></html>",
            )
            .unwrap(),
        );
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=2 {
            t.push(
                Action::ScrapeText(format!("/div[{i}]/h3[1]").parse().unwrap()),
                dom.clone(),
            );
            t.push(
                Action::ScrapeText(format!("/div[{i}]/b[1]").parse().unwrap()),
                dom.clone(),
            );
        }
        let ctx = SynthContext::new(SynthConfig::default(), t.clone());
        let item = Item::initial(&t);
        let loop_stmt = parse_program("foreach %r0 in Dscts(eps, h3) do {\n  ScrapeText(%r0)\n}")
            .unwrap()
            .into_statements()
            .remove(0);
        // This loop would produce [h3#1, h3#2] = recorded actions 0 and 2 —
        // not a contiguous slice; action 1 (the <b>) mismatches.
        let sr = SRewrite {
            cid: ctx.canon_id(&loop_stmt),
            stmt: Arc::new(loop_stmt),
            i: 0,
            j: 0,
        };
        assert!(validate(&sr, &item, &ctx).is_none());
    }
}
