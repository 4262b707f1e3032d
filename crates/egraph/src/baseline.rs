//! The conventional rewrite-based synthesis baseline (paper §7.4).
//!
//! Rules, mirroring the paper's description:
//!
//! * **Split** — every contiguous slice of the trace becomes an e-class
//!   containing an `Unsplit`/`Cat` node for every split point (we
//!   materialize the saturated form directly: it is what equality
//!   saturation of the `Split` rule reaches);
//! * **Reroll** — a slice whose statement sequence is *exactly* `k ≥ 2`
//!   verbatim iterations of a loop body (selector loops only, no
//!   alternative selectors) is unioned with the one-statement list holding
//!   that loop. Unlike WebRobot's speculation, this pattern-matches **all**
//!   iterations before rewriting — correct by construction;
//! * **Unsplit** — flattening, performed implicitly by sequence extraction.
//!
//! Saturation rounds repeat Reroll over the growing e-graph until fixpoint
//! (nested loops appear one level per round), a node cap, or the timeout
//! (the paper uses 5 minutes).

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use webrobot_dom::Path;
use webrobot_lang::{
    Axis, CollectionKind, ForeachSel, Pred, Program, SelVar, Selector, SelectorList, Statement,
};
use webrobot_semantics::{generalizes, Trace};

use crate::egraph::{ClassId, EGraph, Language};

/// Node language of the baseline: statements and statement lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TraceLang {
    /// Statement leaf: index into the interned statement table.
    Stmt(u32),
    /// One-statement list.
    Single(ClassId),
    /// Concatenation of two lists (the paper's `Unsplit`).
    Cat(ClassId, ClassId),
}

impl Language for TraceLang {
    fn children(&self) -> Vec<ClassId> {
        match self {
            TraceLang::Stmt(_) => vec![],
            TraceLang::Single(s) => vec![*s],
            TraceLang::Cat(a, b) => vec![*a, *b],
        }
    }
    fn map_children(&self, f: &mut dyn FnMut(ClassId) -> ClassId) -> Self {
        match self {
            TraceLang::Stmt(i) => TraceLang::Stmt(*i),
            TraceLang::Single(s) => TraceLang::Single(f(*s)),
            TraceLang::Cat(a, b) => TraceLang::Cat(f(*a), f(*b)),
        }
    }
}

/// Baseline tuning knobs.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Wall-clock budget (paper: 5 minutes).
    pub timeout: Duration,
    /// Representation sequences kept per e-class (beyond the flat one).
    pub max_seqs_per_class: usize,
    /// Saturation stops when the e-graph exceeds this many nodes.
    pub max_nodes: usize,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig {
            timeout: Duration::from_secs(300),
            max_seqs_per_class: 24,
            max_nodes: 2_000_000,
        }
    }
}

/// Result of a baseline synthesis run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Smallest generalizing program extracted from the root class, if any.
    pub program: Option<Program>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `true` when saturation was cut off by the timeout or node cap.
    pub timed_out: bool,
    /// Saturation rounds performed.
    pub rounds: usize,
    /// E-classes at the end.
    pub classes: usize,
    /// E-nodes at the end.
    pub nodes: usize,
}

/// The Split/Reroll/Unsplit equality-saturation synthesizer.
#[derive(Debug, Clone, Default)]
pub struct BaselineSynthesizer {
    cfg: BaselineConfig,
}

impl BaselineSynthesizer {
    /// Creates a baseline with the given configuration.
    pub fn new(cfg: BaselineConfig) -> BaselineSynthesizer {
        BaselineSynthesizer { cfg }
    }

    /// Runs equality saturation on the trace and extracts the smallest
    /// generalizing program, following the paper's Q4 protocol.
    pub fn synthesize(&self, trace: &Trace) -> BaselineOutcome {
        let started = Instant::now();
        let deadline = started + self.cfg.timeout;
        let n = trace.len();
        let mut eg: EGraph<TraceLang> = EGraph::new();
        let mut stmts = StmtTable::default();

        // Statement leaves for the recorded actions.
        let action_classes: Vec<ClassId> = trace
            .actions()
            .iter()
            .map(|a| {
                let idx = stmts.intern(a.to_statement());
                eg.add(TraceLang::Stmt(idx))
            })
            .collect();

        // Saturated Split: one class per contiguous slice, with every Cat.
        let mut slice: HashMap<(usize, usize), ClassId> = HashMap::new();
        for (i, &class) in action_classes.iter().enumerate() {
            let single = eg.add(TraceLang::Single(class));
            slice.insert((i, i + 1), single);
        }
        let mut timed_out = false;
        'build: for len in 2..=n {
            for i in 0..=(n - len) {
                let j = i + len;
                let mut class: Option<ClassId> = None;
                for k in (i + 1)..j {
                    let node = TraceLang::Cat(slice[&(i, k)], slice[&(k, j)]);
                    let id = eg.add(node);
                    class = Some(match class {
                        None => id,
                        Some(c) => eg.union(c, id).0,
                    });
                }
                eg.rebuild();
                slice.insert((i, j), eg.find(class.expect("len ≥ 2 has a split")));
                if eg.node_count() > self.cfg.max_nodes || Instant::now() > deadline {
                    timed_out = true;
                    break 'build;
                }
            }
        }

        // Saturation rounds of Reroll.
        let mut rounds = 0;
        if !timed_out && n >= 2 {
            loop {
                rounds += 1;
                let mut changed = false;
                let seqs = self.collect_sequences(&eg, &slice, n);
                for ((i, j), class_seqs) in &seqs {
                    if Instant::now() > deadline || eg.node_count() > self.cfg.max_nodes {
                        timed_out = true;
                        break;
                    }
                    let Some(&raw) = slice.get(&(*i, *j)) else {
                        continue;
                    };
                    let class = eg.find(raw);
                    for seq in class_seqs {
                        let concrete: Vec<Statement> =
                            seq.iter().map(|&s| stmts.get(s).clone()).collect();
                        for rolled in try_reroll(&concrete, &mut stmts.var_counter) {
                            let idx = stmts.intern(rolled);
                            let leaf = eg.add(TraceLang::Stmt(idx));
                            let single = eg.add(TraceLang::Single(leaf));
                            let (_, did) = eg.union(class, single);
                            changed |= did;
                        }
                    }
                }
                eg.rebuild();
                // Re-canonicalize the slice map after unions.
                for id in slice.values_mut() {
                    *id = eg.find(*id);
                }
                if !changed || timed_out {
                    break;
                }
            }
        }

        // Extraction: smallest generalizing sequence of the root class.
        let mut program = None;
        if n >= 1 && slice.contains_key(&(0, n)) {
            let seqs = self.collect_sequences(&eg, &slice, n);
            if let Some(root_seqs) = seqs.get(&(0, n)) {
                let mut candidates: Vec<Program> = root_seqs
                    .iter()
                    .map(|seq| Program::new(seq.iter().map(|&s| stmts.get(s).clone()).collect()))
                    .collect();
                candidates.sort_by_key(|p| (p.size(), p.to_string()));
                program = candidates
                    .into_iter()
                    .find(|p| generalizes(p.statements(), trace).is_some());
            }
        }

        BaselineOutcome {
            program,
            elapsed: started.elapsed(),
            timed_out,
            rounds,
            classes: eg.class_count(),
            nodes: eg.node_count(),
        }
    }

    /// Bottom-up sequence extraction: for each slice class, the K shortest
    /// statement sequences representable from its nodes (the flat sequence
    /// is always among them for K ≥ 1 because singletons are their own
    /// representation).
    fn collect_sequences(
        &self,
        eg: &EGraph<TraceLang>,
        slice: &HashMap<(usize, usize), ClassId>,
        n: usize,
    ) -> HashMap<(usize, usize), Vec<Vec<u32>>> {
        let cap = self.cfg.max_seqs_per_class;
        let mut out: HashMap<(usize, usize), Vec<Vec<u32>>> = HashMap::new();
        let mut by_class: HashMap<ClassId, Vec<Vec<u32>>> = HashMap::new();
        for len in 1..=n {
            for i in 0..=(n - len) {
                let j = i + len;
                // Slice classes can be missing when saturation was cut off
                // mid-build by the timeout or node cap.
                let Some(&raw) = slice.get(&(i, j)) else {
                    continue;
                };
                let class = eg.find(raw);
                if by_class.contains_key(&class) {
                    out.insert((i, j), by_class[&class].clone());
                    continue;
                }
                let mut seqs: HashSet<Vec<u32>> = HashSet::new();
                for node in eg.nodes(class) {
                    match node {
                        TraceLang::Stmt(_) => {}
                        TraceLang::Single(stmt_class) => {
                            if let Some(idx) = stmt_index(eg, *stmt_class) {
                                seqs.insert(vec![idx]);
                            }
                        }
                        TraceLang::Cat(l, r) => {
                            let (l, r) = (eg.find(*l), eg.find(*r));
                            let empty = Vec::new();
                            let ls = by_class.get(&l).unwrap_or(&empty);
                            let rs = by_class.get(&r).unwrap_or(&empty);
                            for a in ls {
                                for b in rs {
                                    let mut cat = a.clone();
                                    cat.extend_from_slice(b);
                                    seqs.insert(cat);
                                    if seqs.len() > cap * 4 {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                let mut ranked: Vec<Vec<u32>> = seqs.into_iter().collect();
                ranked.sort_by_key(|s| (s.len(), s.clone()));
                ranked.truncate(cap);
                by_class.insert(class, ranked.clone());
                out.insert((i, j), ranked);
            }
        }
        out
    }
}

fn stmt_index(eg: &EGraph<TraceLang>, class: ClassId) -> Option<u32> {
    eg.nodes(class).iter().find_map(|node| match node {
        TraceLang::Stmt(i) => Some(*i),
        _ => None,
    })
}

/// Interned statements (actions and rolled loops).
#[derive(Debug, Default)]
struct StmtTable {
    stmts: Vec<Statement>,
    memo: HashMap<Statement, u32>,
    var_counter: u32,
}

impl StmtTable {
    fn intern(&mut self, s: Statement) -> u32 {
        if let Some(&i) = self.memo.get(&s) {
            return i;
        }
        let i = self.stmts.len() as u32;
        self.stmts.push(s.clone());
        self.memo.insert(s, i);
        i
    }
    fn get(&self, i: u32) -> &Statement {
        &self.stmts[i as usize]
    }
}

/// Attempts to reroll `stmts` as `r ≥ 2` full iterations of a loop body,
/// pattern-matching **all** iterations (correct by construction). Selector
/// loops only; no alternative selectors.
fn try_reroll(stmts: &[Statement], var_counter: &mut u32) -> Vec<Statement> {
    let len = stmts.len();
    let mut out = Vec::new();
    for body_len in 1..=len / 2 {
        if !len.is_multiple_of(body_len) {
            continue;
        }
        let r = len / body_len;
        if let Some(rolled) = reroll_with(stmts, body_len, r, var_counter) {
            out.push(rolled);
        }
    }
    out
}

fn reroll_with(
    stmts: &[Statement],
    body_len: usize,
    r: usize,
    var_counter: &mut u32,
) -> Option<Statement> {
    let var = SelVar(1_000_000 + *var_counter);
    let mut collection: Option<SelectorList> = None;
    let mut body = Vec::with_capacity(body_len);
    let mut parametrized = false;
    for t in 0..body_len {
        let column: Vec<&Statement> = (0..r).map(|k| &stmts[t + k * body_len]).collect();
        if column.iter().all(|s| *s == column[0]) {
            body.push(column[0].clone());
            continue;
        }
        // Column must be same-kind selector statements differing at one
        // step index running 1..=r.
        let (template, list) = unify_column(&column, var)?;
        match &collection {
            None => collection = Some(list),
            Some(existing) if *existing == list => {}
            Some(_) => return None, // two different collections: not a loop
        }
        parametrized = true;
        body.push(template);
    }
    if !parametrized {
        return None;
    }
    let list = collection.expect("parametrized implies collection");
    *var_counter += 1;
    Some(Statement::ForeachSel(ForeachSel {
        var,
        list,
        body: body.into(),
    }))
}

/// Unifies a column of same-position statements across all iterations:
/// either loop-free statements whose selectors step 1..=r, or selector
/// loops whose collection bases step 1..=r (the nested case).
fn unify_column(column: &[&Statement], var: SelVar) -> Option<(Statement, SelectorList)> {
    if matches!(column[0], Statement::ForeachSel(_)) {
        return unify_loop_column(column, var);
    }
    unify_flat_column(column, var)
}

/// Nested reroll: a column of `foreach` loops over sibling containers.
fn unify_loop_column(column: &[&Statement], var: SelVar) -> Option<(Statement, SelectorList)> {
    let loops: Vec<&ForeachSel> = column
        .iter()
        .map(|s| match s {
            Statement::ForeachSel(l) => Some(l),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let l0 = loops[0];
    // Bodies must be alpha-equivalent modulo the collection base.
    for l in &loops[1..] {
        if l.list.kind != l0.list.kind || l.list.pred != l0.list.pred {
            return None;
        }
        let mut normalized = (*l).clone();
        normalized.list = l0.list.clone();
        if !Statement::ForeachSel(normalized).alpha_eq(&Statement::ForeachSel(l0.clone())) {
            return None;
        }
    }
    let bases: Vec<&Path> = loops
        .iter()
        .map(|l| l.list.base.as_concrete())
        .collect::<Option<Vec<_>>>()?;
    let (prefix, axis, pred, suffix) = unify_paths(&bases)?;
    let kind = match axis {
        Axis::Child => CollectionKind::Children,
        Axis::Descendant => CollectionKind::Dscts,
    };
    let collection = SelectorList {
        kind,
        base: Selector::rooted(prefix),
        pred,
    };
    let mut template = l0.clone();
    template.list.base = Selector::var_path(var, suffix);
    Some((Statement::ForeachSel(template), collection))
}

/// Loop-free reroll: selectors stepping 1..=r at a single pivot.
fn unify_flat_column(column: &[&Statement], var: SelVar) -> Option<(Statement, SelectorList)> {
    use Statement::*;
    let paths: Vec<&Path> = column
        .iter()
        .map(|s| s.selector().and_then(Selector::as_concrete))
        .collect::<Option<Vec<_>>>()?;
    // All statements must have the same kind and non-selector arguments.
    let same_shape = column.windows(2).all(|w| match (w[0], w[1]) {
        (Click(_), Click(_))
        | (ScrapeText(_), ScrapeText(_))
        | (ScrapeLink(_), ScrapeLink(_))
        | (Download(_), Download(_)) => true,
        (SendKeys(_, a), SendKeys(_, b)) => a == b,
        (EnterData(_, a), EnterData(_, b)) => a == b,
        _ => false,
    });
    if !same_shape {
        return None;
    }
    let (prefix, axis, pred, suffix) = unify_paths(&paths)?;
    let kind = match axis {
        Axis::Child => CollectionKind::Children,
        Axis::Descendant => CollectionKind::Dscts,
    };
    let list = SelectorList {
        kind,
        base: Selector::rooted(prefix),
        pred,
    };
    let sel = Selector::var_path(var, suffix);
    let template = match column[0] {
        Click(_) => Click(sel),
        ScrapeText(_) => ScrapeText(sel),
        ScrapeLink(_) => ScrapeLink(sel),
        Download(_) => Download(sel),
        SendKeys(_, s) => SendKeys(sel, s.clone()),
        EnterData(_, v) => EnterData(sel, v.clone()),
        _ => return None,
    };
    Some((template, list))
}

/// Finds the single step position where the paths differ, with indices
/// running 1..=r; returns `(prefix, axis, pred, suffix)`.
fn unify_paths(paths: &[&Path]) -> Option<(Path, Axis, Pred, Path)> {
    let first = paths[0];
    let len = first.len();
    if paths.iter().any(|p| p.len() != len) {
        return None;
    }
    let mut pivot: Option<usize> = None;
    for k in 0..len {
        if paths.iter().all(|p| p.steps()[k] == first.steps()[k]) {
            continue;
        }
        if pivot.is_some() {
            return None; // differs at more than one step
        }
        pivot = Some(k);
    }
    let k = pivot?;
    // At the pivot: same axis & pred, indices 1..=r in iteration order.
    let step0 = &first.steps()[k];
    for (i, p) in paths.iter().enumerate() {
        let s = &p.steps()[k];
        if s.axis != step0.axis || s.pred != step0.pred || s.index != i + 1 {
            return None;
        }
    }
    Some((
        first.prefix(k),
        step0.axis,
        step0.pred.clone(),
        Path::new(first.steps()[k + 1..].to_vec()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;
    use webrobot_lang::Action;

    fn scrape_trace(demonstrated: usize, total: usize, fields: usize) -> Trace {
        let body: String = (1..=total)
            .map(|i| {
                let inner: String = (0..fields)
                    .map(|f| format!("<span>f{i}-{f}</span>"))
                    .collect();
                format!("<li>{inner}</li>")
            })
            .collect();
        let dom = Arc::new(parse_html(&format!("<html><ul>{body}</ul></html>")).unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=demonstrated {
            if fields == 0 {
                t.push(
                    Action::ScrapeText(format!("/ul[1]/li[{i}]").parse().unwrap()),
                    dom.clone(),
                );
            } else {
                for f in 1..=fields {
                    t.push(
                        Action::ScrapeText(format!("/ul[1]/li[{i}]/span[{f}]").parse().unwrap()),
                        dom.clone(),
                    );
                }
            }
        }
        t
    }

    #[test]
    fn rerolls_single_statement_loop() {
        let trace = scrape_trace(2, 5, 0);
        let outcome = BaselineSynthesizer::default().synthesize(&trace);
        let p = outcome.program.expect("solves 1-stmt loop at length 2");
        assert_eq!(p.len(), 1);
        assert_eq!(p.loop_depth(), 1);
        assert!(!outcome.timed_out);
    }

    #[test]
    fn rerolls_multi_field_body_needs_full_two_iterations() {
        // 3 fields per item: with only 5 actions (1⅔ iterations) the
        // baseline cannot reroll the whole trace into ONE loop — it needs 6
        // (two FULL iterations), the Table 2 "shortest trace = 2 × body"
        // shape. At 5 it can still emit an unintended multi-statement
        // program (per-item field loops), exactly the kind of output the
        // intended-program check of the Q4 protocol rejects.
        let t5 = scrape_trace(2, 5, 3).prefix(5);
        let out5 = BaselineSynthesizer::default().synthesize(&t5);
        if let Some(p) = &out5.program {
            // A nested per-item/per-field loop is the only way to cover a
            // partial second iteration correct-by-construction.
            assert_eq!(p.loop_depth(), 2, "5 actions, flat loop impossible:\n{p}");
        }
        let t6 = scrape_trace(2, 5, 3);
        let out6 = BaselineSynthesizer::default().synthesize(&t6);
        let p = out6.program.expect("6 actions: two full iterations");
        assert_eq!(p.len(), 1, "{p}");
        assert!(p.loop_depth() >= 1);
    }

    #[test]
    fn rerolls_nested_loops_inside_out() {
        // 3 tables × 3 rows, first two tables demonstrated: the inner
        // loops reroll in round one, the outer loop in round two, and the
        // result generalizes onto the third table.
        let body: String = (1..=3)
            .map(|s| {
                let rows: String = (1..=3).map(|r| format!("<tr>r{s}{r}</tr>")).collect();
                format!("<table>{rows}</table>")
            })
            .collect();
        let dom = Arc::new(parse_html(&format!("<html>{body}</html>")).unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for s in 1..=2 {
            for r in 1..=3 {
                t.push(
                    Action::ScrapeText(format!("/table[{s}]/tr[{r}]").parse().unwrap()),
                    dom.clone(),
                );
            }
        }
        let outcome = BaselineSynthesizer::default().synthesize(&t);
        let p = outcome.program.expect("nested reroll");
        assert_eq!(p.loop_depth(), 2, "{p}");
        assert_eq!(p.len(), 1, "{p}");
        assert!(outcome.rounds >= 2);
    }

    #[test]
    fn constant_columns_reroll_offsets_do_not() {
        let dom = Arc::new(parse_html("<html><a>1</a><a>2</a><a>3</a><h3>t</h3></html>").unwrap());
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=2 {
            t.push(
                Action::ScrapeText(format!("/a[{i}]").parse().unwrap()),
                dom.clone(),
            );
            t.push(Action::GoBack, dom.clone());
        }
        // [scrape a1, GoBack, scrape a2, GoBack] rerolls: the GoBack
        // column is constant, the scrape column steps 1→2; and with a
        // third anchor present the loop also generalizes.
        let out = BaselineSynthesizer::default().synthesize(&t);
        let p = out.program.expect("constant column rerolls");
        assert_eq!(p.len(), 1);
        // But offset indices (2→3) never match the 1..=r requirement.
        let mut t2 = Trace::new(dom.clone(), Value::Object(vec![]));
        t2.push(Action::ScrapeText("/a[2]".parse().unwrap()), dom.clone());
        t2.push(Action::ScrapeText("/a[3]".parse().unwrap()), dom.clone());
        let out2 = BaselineSynthesizer::default().synthesize(&t2);
        assert!(out2.program.is_none(), "no alternative selectors here");
    }

    #[test]
    fn timeout_is_honored() {
        let trace = scrape_trace(6, 8, 4);
        let cfg = BaselineConfig {
            timeout: Duration::from_millis(0),
            ..BaselineConfig::default()
        };
        let out = BaselineSynthesizer::new(cfg).synthesize(&trace);
        assert!(out.timed_out);
    }

    #[test]
    fn unify_paths_rejects_two_pivots() {
        let p1: Path = "/a[1]/b[1]".parse().unwrap();
        let p2: Path = "/a[2]/b[2]".parse().unwrap();
        assert!(unify_paths(&[&p1, &p2]).is_none());
        let q1: Path = "/a[1]/b[3]".parse().unwrap();
        let q2: Path = "/a[2]/b[3]".parse().unwrap();
        let (prefix, axis, pred, suffix) = unify_paths(&[&q1, &q2]).unwrap();
        assert_eq!(prefix.to_string(), "ε");
        assert_eq!(axis, Axis::Child);
        assert_eq!(pred, Pred::tag("a"));
        assert_eq!(suffix.to_string(), "/b[3]");
    }
}
