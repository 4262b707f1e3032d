//! The `Speculate` procedure (paper Alg. 2): generating speculative
//! rewrites from the first two iterations of would-be loops.

use std::mem::discriminant;
use std::sync::Arc;
use std::time::Instant;

use webrobot_dom::FxHashSet;
use webrobot_lang::{ForeachSel, ForeachVal, Statement, StmtId, While};

use crate::antiunify::{anti_unify, LoopSeed};
use crate::context::SynthContext;
use crate::item::Item;
use crate::parametrize::{parametrize_sel, parametrize_vp};

/// A speculative rewrite `(S′, S_i, S_j)`: `stmt` is a loop whose *first
/// iteration* reproduces statements `i..=j` of the item it was speculated
/// from. Whether it is a *true* rewrite (covers more than that iteration)
/// is decided by [`validate`](crate::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SRewrite {
    /// The speculated loop statement. Shared, not owned: a speculation-cache
    /// replay hands the same statement to every sibling item (binder names
    /// are observationally irrelevant — predictions are actions and every
    /// ranking/dedup key is alpha-invariant — so replays clone a refcount,
    /// not a statement tree).
    pub stmt: Arc<Statement>,
    /// Start of the first iteration (statement index, 0-based).
    pub i: usize,
    /// End of the first iteration (inclusive).
    pub j: usize,
    /// Canonical interned id of `stmt`, computed where the rewrite was
    /// produced (dedup already needs it there). Validation keys its memo
    /// table on this id; carrying it saves re-canonicalizing every
    /// rewrite — which, with freshened binders on cache replays, would
    /// never hit an interner fast path.
    pub(crate) cid: StmtId,
}

/// Runs Alg. 2 on `item`, producing s-rewrites for selector loops,
/// value-path loops and while loops.
///
/// `deadline` aborts the (cubic) enumeration early; partial results are
/// returned. Results are deduplicated up to alpha-equivalence.
pub fn speculate(item: &Item, ctx: &mut SynthContext, deadline: Instant) -> Vec<SRewrite> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<(StmtId, usize, usize)> = FxHashSet::default();
    speculate_foreach(item, ctx, deadline, &mut out, &mut seen);
    speculate_while(item, ctx, &mut out, &mut seen);
    out
}

/// Alpha-equivalence dedup keyed on the context's canonical-statement
/// interner: one canonicalize-and-hash per distinct statement for the
/// whole synthesis run, instead of one per pushed rewrite.
fn push_unique(
    out: &mut Vec<SRewrite>,
    seen: &mut FxHashSet<(StmtId, usize, usize)>,
    ctx: &SynthContext,
    stmt: Statement,
    i: usize,
    j: usize,
) {
    let cid = ctx.canon_id_transient(&stmt);
    if seen.insert((cid, i, j)) {
        out.push(SRewrite {
            stmt: Arc::new(stmt),
            i,
            j,
            cid,
        });
    }
}

/// Lines 2–13 of Alg. 2: windows `[S_i ·· S_j]` as first iterations, with
/// the anti-unified pair `(S_p, S_q)`, `q = p + window length`.
///
/// With `window_pruning` enabled, a per-shift "kind run-length" table
/// (`runs[len-1][t]` = how many consecutive positions from `t` have
/// `kind(S_t) == kind(S_{t+len})`) bounds the inner `p` loop up front:
/// windows whose statement-kind sequences cannot start a second iteration
/// are skipped without entering the loop at all. The enumeration order —
/// and therefore every downstream tie-break — is unchanged.
fn speculate_foreach(
    item: &Item,
    ctx: &mut SynthContext,
    deadline: Instant,
    out: &mut Vec<SRewrite>,
    seen: &mut FxHashSet<(StmtId, usize, usize)>,
) {
    let stmts = item.statements();
    let l = stmts.len();
    let max_w = ctx.cfg.max_window;
    // Canonical ids for the whole item up front: they key both the
    // per-item dedup and the cross-item speculation cache below.
    let canon: Vec<StmtId> = stmts.iter().map(|s| ctx.canon_id(s)).collect();
    let runs: Option<Vec<Vec<u32>>> = ctx.cfg.window_pruning.then(|| {
        (1..=max_w)
            .map(|len| {
                let mut run = vec![0u32; l];
                for t in (0..l).rev() {
                    if t + len < l && discriminant(&stmts[t]) == discriminant(&stmts[t + len]) {
                        run[t] = run.get(t + 1).copied().unwrap_or(0) + 1;
                    }
                }
                run
            })
            .collect()
    });
    for i in 0..l {
        for len in 1..=max_w {
            let j = i + len - 1;
            if j >= l {
                break;
            }
            // p walks the window; q is its second-iteration counterpart.
            // If the statement kinds at (i+t, i+len+t) diverge for some t,
            // no p ≥ i+t can belong to a real second iteration: stop.
            let p_end = match &runs {
                Some(r) => {
                    let n = r[len - 1][i] as usize;
                    if n == 0 {
                        continue;
                    }
                    j.min(i + n - 1)
                }
                None => j,
            };
            if Instant::now() > deadline {
                return;
            }
            // The window half of the speculation-cache key, built once per
            // `(i, j)`: the `p` loop below only bumps refcounts.
            let window = (ctx.cfg.memoization && i + len < l).then(|| {
                (
                    Arc::<[StmtId]>::from(&canon[i..=j]),
                    (i..=j)
                        .map(|k| item.slice_start(k))
                        .collect::<Arc<[usize]>>(),
                )
            });
            for p in i..=p_end {
                let q = p + len;
                if q >= l {
                    break;
                }
                if discriminant(&stmts[p]) != discriminant(&stmts[q]) {
                    break;
                }
                // Cross-item reuse: sibling worklist items routinely carry
                // this exact window (they differ only in consumed prefix),
                // so the expansion is keyed by window content — not by
                // item — and a hit replays the shared statements verbatim.
                let key = window.as_ref().map(|(ids, starts)| {
                    (
                        ids.clone(),
                        starts.clone(),
                        p - i,
                        canon[q],
                        item.slice_start(q),
                    )
                });
                if let Some(key) = &key {
                    if let Some(hit) = ctx.speculation_hit(key) {
                        // Dedup against the stored canonical id; survivors
                        // are refcount bumps of the stored statements.
                        for (cid, stmt) in hit.iter() {
                            if seen.insert((*cid, i, j)) {
                                out.push(SRewrite {
                                    stmt: stmt.clone(),
                                    i,
                                    j,
                                    cid: *cid,
                                });
                            }
                        }
                        continue;
                    }
                }
                let seeds = anti_unify(
                    &stmts[p],
                    &stmts[q],
                    item.slice_start(p),
                    item.slice_start(q),
                    ctx,
                );
                let mut raw = Vec::new();
                let mut complete = true;
                for seed in seeds {
                    complete &= expand_seed(item, ctx, seed, i, j, p, deadline, &mut raw);
                }
                // Canonicalize once per raw statement: the id keys both
                // this item's dedup and the cached entry replays read.
                let mut entries: Vec<(StmtId, Arc<Statement>)> = Vec::with_capacity(raw.len());
                for stmt in raw {
                    let cid = ctx.canon_id_transient(&stmt);
                    let stmt = Arc::new(stmt);
                    if seen.insert((cid, i, j)) {
                        out.push(SRewrite {
                            stmt: stmt.clone(),
                            i,
                            j,
                            cid,
                        });
                    }
                    entries.push((cid, stmt));
                }
                // Deadline-cut expansions are nondeterministic: storing
                // one would replay the truncation forever.
                if complete {
                    if let Some(key) = key {
                        ctx.speculation_store(key, Arc::new(entries));
                    }
                }
            }
        }
    }
}

/// Lines 4–7 / 10–13 of Alg. 2: build every loop body from the Cartesian
/// product of per-statement parametrizations (capped).
///
/// `deadline` also bounds the product expansion itself: a seed over a wide
/// window with many parametrizations per slot can be expensive even under
/// the `max_bodies_per_seed` cap, and previously ran to completion no
/// matter how late it was. Partial results are returned — only complete
/// loop bodies, never truncated ones.
///
/// Pushes the raw (pre-dedup) loop statements into `raw` and returns
/// whether the expansion ran to completion — `false` exactly when the
/// deadline cut the product, in which case the caller must not memoize
/// the result.
#[allow(clippy::too_many_arguments)]
fn expand_seed(
    item: &Item,
    ctx: &mut SynthContext,
    seed: LoopSeed,
    i: usize,
    j: usize,
    p: usize,
    deadline: Instant,
    raw: &mut Vec<Statement>,
) -> bool {
    let stmts = item.statements();
    // Per-position choices: the template at p, parametrizations elsewhere.
    let mut choices: Vec<Vec<Statement>> = Vec::with_capacity(j - i + 1);
    match &seed {
        LoopSeed::Sel {
            template,
            var,
            list,
        } => {
            let Some(base) = list.base.as_concrete() else {
                return true;
            };
            let first = list.element(base, 1);
            for (k, stmt) in stmts.iter().enumerate().take(j + 1).skip(i) {
                if k == p {
                    choices.push(vec![template.clone()]);
                } else {
                    choices.push(parametrize_sel(
                        stmt,
                        *var,
                        &first,
                        item.slice_start(k),
                        ctx,
                    ));
                }
            }
        }
        LoopSeed::Vp {
            template,
            var,
            list,
        } => {
            let Some(array) = list.array.as_concrete() else {
                return true;
            };
            let first = list.element(array, 1);
            for (k, stmt) in stmts.iter().enumerate().take(j + 1).skip(i) {
                if k == p {
                    choices.push(vec![template.clone()]);
                } else {
                    choices.push(parametrize_vp(stmt, *var, &first));
                }
            }
        }
    }
    let cap = ctx.cfg.max_bodies_per_seed;
    let (bodies, complete) = cartesian(&choices, cap, deadline);
    for body in bodies {
        let stmt = match &seed {
            LoopSeed::Sel { var, list, .. } => Statement::ForeachSel(ForeachSel {
                var: *var,
                list: list.clone(),
                body,
            }),
            LoopSeed::Vp { var, list, .. } => Statement::ForeachVal(ForeachVal {
                var: *var,
                list: list.clone(),
                body,
            }),
        };
        raw.push(stmt);
    }
    complete
}

/// Odometer-style Cartesian product: the first `cap` complete bodies in
/// lexicographic slot order (last slot varying fastest), stopping early —
/// with only whole bodies emitted — once `deadline` passes.
///
/// The flag is `true` iff the enumeration was *deterministic*: it ran to
/// the end or to the (configured, reproducible) cap. A deadline cut
/// returns `false` — that prefix depends on wall-clock time and must not
/// be memoized.
fn cartesian(
    choices: &[Vec<Statement>],
    cap: usize,
    deadline: Instant,
) -> (Vec<Arc<[Statement]>>, bool) {
    if choices.iter().any(Vec::is_empty) {
        return (Vec::new(), true);
    }
    let mut out: Vec<Arc<[Statement]>> = Vec::new();
    let mut odometer = vec![0usize; choices.len()];
    loop {
        out.push(
            choices
                .iter()
                .zip(&odometer)
                .map(|(slot, &k)| slot[k].clone())
                .collect(),
        );
        if out.len() >= cap {
            return (out, true);
        }
        if Instant::now() > deadline {
            return (out, false);
        }
        // Increment, last slot fastest; full wrap-around means done.
        let mut slot = choices.len();
        loop {
            let Some(s) = slot.checked_sub(1) else {
                return (out, true);
            };
            slot = s;
            odometer[slot] += 1;
            if odometer[slot] < choices[slot].len() {
                break;
            }
            odometer[slot] = 0;
        }
    }
}

/// Lines 14–16 of Alg. 2: while loops. The first iteration is
/// `S_i ·· S_p` where `S_p` is a `Click`; its counterpart `S_q` (with
/// `p − i + 1 = q − p`) must be the *same* click.
fn speculate_while(
    item: &Item,
    ctx: &mut SynthContext,
    out: &mut Vec<SRewrite>,
    seen: &mut FxHashSet<(StmtId, usize, usize)>,
) {
    let stmts = item.statements();
    let l = stmts.len();
    let max_w = ctx.cfg.max_window;
    for p in 1..l {
        let Statement::Click(click) = &stmts[p] else {
            continue;
        };
        if click.as_concrete().is_none() {
            continue;
        }
        // Body length p − i ranges 1..=max_w (paper requires i < p).
        for body_len in 1..=max_w.min(p) {
            let i = p - body_len;
            let q = 2 * p - i + 1;
            if q >= l {
                continue;
            }
            if stmts[q] != stmts[p] {
                continue;
            }
            let stmt = Statement::While(While {
                body: stmts[i..p].into(),
                click: click.clone(),
            });
            push_unique(out, seen, ctx, stmt, i, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use std::sync::Arc;
    use std::time::Duration;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;
    use webrobot_lang::Action;
    use webrobot_semantics::Trace;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Trace scraping two fields of the first two of three items.
    fn two_field_trace() -> Trace {
        let dom = Arc::new(
            parse_html(
                "<html><body>\
                 <div class='item'><h3>a</h3><span class='ph'>1</span></div>\
                 <div class='item'><h3>b</h3><span class='ph'>2</span></div>\
                 <div class='item'><h3>c</h3><span class='ph'>3</span></div>\
                 </body></html>",
            )
            .unwrap(),
        );
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=2 {
            t.push(
                Action::ScrapeText(format!("/body[1]/div[{i}]/h3[1]").parse().unwrap()),
                dom.clone(),
            );
            t.push(
                Action::ScrapeText(format!("/body[1]/div[{i}]/span[1]").parse().unwrap()),
                dom.clone(),
            );
        }
        t
    }

    #[test]
    fn speculates_two_statement_loop_body() {
        let trace = two_field_trace();
        let mut ctx = SynthContext::new(SynthConfig::default(), trace.clone());
        let item = Item::initial(&trace);
        let srs = speculate(&item, &mut ctx, far_deadline());
        // Look for a loop whose first iteration is statements 0..=1 and
        // whose body scrapes both fields through the loop variable.
        let found = srs.iter().any(|sr| {
            sr.i == 0
                && sr.j == 1
                && matches!(&*sr.stmt, Statement::ForeachSel(l)
                    if l.body.len() == 2
                    && l.body.iter().all(|s| s.selector().is_some_and(|sel| sel.base_var().is_some())))
        });
        assert!(found, "wanted a fully parametrized 2-stmt loop body");
    }

    #[test]
    fn while_rule_requires_equal_clicks() {
        // [Scrape, Click(next), Scrape, Click(next)] → while {Scrape; Click}.
        let dom =
            Arc::new(parse_html("<html><h3>t</h3><span class='next'>&gt;</span></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for _ in 0..2 {
            t.push(Action::ScrapeText("/h3[1]".parse().unwrap()), dom.clone());
            t.push(Action::Click("/span[1]".parse().unwrap()), dom.clone());
        }
        let mut ctx = SynthContext::new(SynthConfig::default(), t.clone());
        let item = Item::initial(&t);
        let srs = speculate(&item, &mut ctx, far_deadline());
        let whiles: Vec<_> = srs
            .iter()
            .filter(|sr| matches!(*sr.stmt, Statement::While(_)))
            .collect();
        assert_eq!(whiles.len(), 1);
        assert_eq!((whiles[0].i, whiles[0].j), (0, 1));
    }

    #[test]
    fn kind_mismatch_windows_are_speculated_but_rejected() {
        // [Scrape a1, GoBack, Scrape a2, Scrape a3]: a window (i=0, j=1)
        // with pair (a1, a2) IS speculated — s-rewrites over-approximate —
        // but its body [Scrape(ϱ…); GoBack] cannot reproduce the recorded
        // slice, so validation filters it out (speculate-and-validate).
        let dom = Arc::new(parse_html("<html><a>1</a><a>2</a><a>3</a></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        t.push(Action::ScrapeText("/a[1]".parse().unwrap()), dom.clone());
        t.push(Action::GoBack, dom.clone());
        t.push(Action::ScrapeText("/a[2]".parse().unwrap()), dom.clone());
        t.push(Action::ScrapeText("/a[3]".parse().unwrap()), dom.clone());
        let mut ctx = SynthContext::new(SynthConfig::default(), t.clone());
        let item = Item::initial(&t);
        let srs = speculate(&item, &mut ctx, far_deadline());
        let spurious: Vec<_> = srs
            .iter()
            .filter(|sr| sr.i == 0 && sr.j == 1 && matches!(*sr.stmt, Statement::ForeachSel(_)))
            .collect();
        assert!(!spurious.is_empty(), "the over-approximation exists");
        for sr in spurious {
            assert!(
                crate::validate(sr, &item, &ctx).is_none(),
                "validation must reject {}",
                sr.stmt
            );
        }
    }

    #[test]
    fn speculation_cache_replays_alpha_equivalent_rewrites() {
        let trace = two_field_trace();
        let mut ctx = SynthContext::new(SynthConfig::default(), trace.clone());
        let item = Item::initial(&trace);
        let first = speculate(&item, &mut ctx, far_deadline());
        // Second pass over the same windows: every foreach expansion is a
        // cache replay, and the result is the same rewrite list up to
        // binder freshening.
        let second = speculate(&item, &mut ctx, far_deadline());
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.stmt.canonicalize(), b.stmt.canonicalize());
        }
        // Disabling memoization must bypass the cache entirely.
        let mut plain = SynthContext::new(SynthConfig::no_optimizations(), trace.clone());
        let uncached = speculate(&item, &mut plain, far_deadline());
        assert_eq!(first.len(), uncached.len());
        for (a, b) in first.iter().zip(&uncached) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.stmt.canonicalize(), b.stmt.canonicalize());
        }
    }

    #[test]
    fn deadline_aborts_enumeration() {
        let trace = two_field_trace();
        let mut ctx = SynthContext::new(SynthConfig::default(), trace.clone());
        let item = Item::initial(&trace);
        let srs = speculate(&item, &mut ctx, Instant::now() - Duration::from_secs(1));
        // Only the (cheap) while pass may contribute; foreach pass aborted.
        assert!(srs.iter().all(|sr| matches!(*sr.stmt, Statement::While(_))));
    }

    #[test]
    fn cartesian_caps_products() {
        let a = Statement::GoBack;
        let choices = vec![vec![a.clone(); 4], vec![a.clone(); 4], vec![a; 4]];
        let (capped, complete) = cartesian(&choices, 10, far_deadline());
        assert_eq!(capped.len(), 10);
        // A cap cut is deterministic, so it still counts as complete.
        assert!(complete);
        let (full, complete) = cartesian(&choices, 1000, far_deadline());
        assert_eq!(full.len(), 64);
        assert!(complete);
    }

    proptest::proptest! {
        /// The odometer rewrite preserves the original cap behavior: the
        /// first `cap` products of the slot-lexicographic enumeration
        /// (last slot fastest), exactly as the old prefix-growing
        /// implementation produced them.
        #[test]
        fn cartesian_cap_behavior_is_unchanged(
            shape in proptest::collection::vec(1usize..4, 1..4),
            cap in 1usize..30,
        ) {
            // Distinguishable statements per slot: GoBack vs scrapes of
            // distinct anchors.
            let slot = |n: usize, s: usize| -> Vec<Statement> {
                (0..n)
                    .map(|k| {
                        Statement::ScrapeText(Selector::rooted(
                            format!("/a[{}]", s * 10 + k + 1).parse().unwrap(),
                        ))
                    })
                    .collect()
            };
            let choices: Vec<Vec<Statement>> =
                shape.iter().enumerate().map(|(s, &n)| slot(n, s)).collect();
            // Reference: the pre-rewrite prefix-growing algorithm.
            let mut reference: Vec<Vec<Statement>> = vec![Vec::new()];
            for slot in &choices {
                let mut next = Vec::new();
                'fill: for prefix in &reference {
                    for choice in slot {
                        let mut body = prefix.clone();
                        body.push(choice.clone());
                        next.push(body);
                        if next.len() >= cap {
                            break 'fill;
                        }
                    }
                }
                reference = next;
            }
            let reference: Vec<Arc<[Statement]>> = reference.into_iter().map(Into::into).collect();
            let (got, complete) = cartesian(&choices, cap, far_deadline());
            proptest::prop_assert!(complete);
            proptest::prop_assert_eq!(got, reference);
        }
    }

    #[test]
    fn cartesian_deadline_returns_partial_complete_bodies() {
        // Regression: a deadline mid-expansion must return *some* bodies,
        // each of full window length (never truncated), and they must be
        // a prefix of the unbounded enumeration.
        let mk = |s: &str| Statement::ScrapeText(Selector::rooted(s.parse().unwrap()));
        let choices = vec![
            vec![mk("/a[1]"), mk("/a[2]")],
            vec![mk("/b[1]"), mk("/b[2]"), mk("/b[3]")],
            vec![mk("/c[1]"), mk("/c[2]")],
        ];
        let expired = Instant::now() - Duration::from_secs(1);
        let (partial, partial_complete) = cartesian(&choices, 1000, expired);
        let (full, full_complete) = cartesian(&choices, 1000, far_deadline());
        assert!(!partial_complete, "a deadline cut is flagged incomplete");
        assert!(full_complete);
        assert_eq!(full.len(), 12);
        assert!(!partial.is_empty(), "at least one body is always produced");
        assert!(
            partial.len() < full.len(),
            "deadline actually cut the product"
        );
        assert!(partial.iter().all(|body| body.len() == choices.len()));
        assert_eq!(partial[..], full[..partial.len()]);
    }

    use webrobot_lang::Selector;
}
