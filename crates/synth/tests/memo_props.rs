//! Property tests for the speculation memo tables: memoization must be a
//! pure optimization. For random statement pairs over a listing DOM,
//!
//! * a memoized `anti_unify` call (including the var-freshened cache-hit
//!   path) produces the same seeds, up to alpha-equivalence, as an
//!   uncached call;
//! * the memoized parametrization suffix scan matches the uncached one
//!   exactly (it is variable-independent, so no renaming is involved);
//! * the capacity knob never changes results, only whether they are
//!   cached.

use std::sync::Arc;

use proptest::prelude::*;

use webrobot_data::{PathSeg, Value, ValuePath};
use webrobot_dom::parse_html;
use webrobot_lang::{Action, ForeachSel, ForeachVal, Selector, Statement, ValuePathExpr};
use webrobot_semantics::Trace;
use webrobot_synth::{anti_unify, LoopSeed, SynthConfig, SynthContext};

/// A three-item listing page with a nav offset (so alternative-selector
/// decompositions are non-trivial) and two fields per item.
fn listing_trace() -> Trace {
    let dom = Arc::new(
        parse_html(
            "<html><body><div class='nav'><a>skip</a></div>\
             <div class='item'><h3>a</h3><span class='ph'>1</span></div>\
             <div class='item'><h3>b</h3><span class='ph'>2</span></div>\
             <div class='item'><h3>c</h3><span class='ph'>3</span></div>\
             </body></html>",
        )
        .unwrap(),
    );
    let mut trace = Trace::new(dom.clone(), Value::Object(vec![]));
    for i in 2..=3 {
        trace.push(
            Action::ScrapeText(format!("/body[1]/div[{i}]/h3[1]").parse().unwrap()),
            dom.clone(),
        );
    }
    trace
}

fn ctx(cfg: SynthConfig) -> SynthContext {
    SynthContext::new(cfg, listing_trace())
}

/// A random loop-free statement over the listing DOM.
fn stmt_strategy() -> impl Strategy<Value = Statement> {
    (0usize..4, 1usize..4, 1usize..3).prop_map(|(kind, div, field)| {
        let field_path: webrobot_dom::Path = if field == 1 {
            format!("/body[1]/div[{div}]/h3[1]").parse().unwrap()
        } else {
            format!("/body[1]/div[{div}]/span[1]").parse().unwrap()
        };
        match kind {
            0 => Statement::ScrapeText(Selector::rooted(field_path)),
            1 => Statement::Click(Selector::rooted(field_path)),
            2 => Statement::ScrapeLink(Selector::rooted(field_path)),
            _ => Statement::EnterData(
                Selector::rooted(format!("/body[1]/div[{div}]").parse().unwrap()),
                ValuePathExpr::input(ValuePath::new(vec![
                    PathSeg::key("rows"),
                    PathSeg::Index(field),
                ])),
            ),
        }
    })
}

/// Seeds compared up to alpha-equivalence: wrap each into the loop it
/// would speculate and canonicalize, erasing fresh-variable numbering.
fn canonical(seeds: &[LoopSeed]) -> Vec<Statement> {
    seeds
        .iter()
        .map(|seed| match seed {
            LoopSeed::Sel {
                template,
                var,
                list,
            } => Statement::ForeachSel(ForeachSel {
                var: *var,
                list: list.clone(),
                body: [template.clone()].into(),
            })
            .canonicalize(),
            LoopSeed::Vp {
                template,
                var,
                list,
            } => Statement::ForeachVal(ForeachVal {
                var: *var,
                list: list.clone(),
                body: [template.clone()].into(),
            })
            .canonicalize(),
        })
        .collect()
}

proptest! {
    /// Memoized results — first call (miss) and second call (hit through
    /// the var-freshening path) — match the memo-free reference.
    #[test]
    fn memoized_anti_unify_equals_uncached((sp, sq) in (stmt_strategy(), stmt_strategy())) {
        let mut plain = ctx(SynthConfig { memoization: false, ..SynthConfig::default() });
        let reference = canonical(&anti_unify(&sp, &sq, 0, 1, &mut plain));

        let mut memo = ctx(SynthConfig::default());
        let miss = canonical(&anti_unify(&sp, &sq, 0, 1, &mut memo));
        let hit = canonical(&anti_unify(&sp, &sq, 0, 1, &mut memo));
        prop_assert_eq!(&miss, &reference, "cache miss diverged");
        prop_assert_eq!(&hit, &reference, "cache hit (freshened) diverged");

        // Different DOM indices are distinct memo entries, not stale hits.
        let other = canonical(&anti_unify(&sp, &sq, 1, 2, &mut memo));
        let mut plain2 = ctx(SynthConfig { memoization: false, ..SynthConfig::default() });
        let other_ref = canonical(&anti_unify(&sp, &sq, 1, 2, &mut plain2));
        prop_assert_eq!(&other, &other_ref);
    }

    /// A zero-capacity memo (nothing is ever stored) still computes the
    /// same seeds — capacity only trades memory for speed.
    #[test]
    fn memo_capacity_never_changes_results((sp, sq) in (stmt_strategy(), stmt_strategy())) {
        let mut unbounded = ctx(SynthConfig::default());
        let mut starved = ctx(SynthConfig { memo_capacity: 0, ..SynthConfig::default() });
        for _ in 0..2 {
            let a = canonical(&anti_unify(&sp, &sq, 0, 1, &mut unbounded));
            let b = canonical(&anti_unify(&sp, &sq, 0, 1, &mut starved));
            prop_assert_eq!(a, b);
        }
    }
}
