//! The reference interpreter (paper Fig. 7 and the auxiliary rules of
//! Fig. 8).
//!
//! [`execute`] states the rules directly, one recursive call per
//! statement, over a whole recorded DOM trace. Validation, the incremental
//! fast path and live runs use the [`Stepper`](crate::Stepper); this
//! interpreter is the reference it is checked against (its unit tests, the
//! ground-truth property test and the differential harness's unoptimized
//! variant) and the definition behind [`satisfies`](crate::satisfies) and
//! [`generalizes`](crate::generalizes).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use webrobot_data::{PathSeg, Value, ValuePath};
use webrobot_dom::{Dom, Path};
use webrobot_lang::{Action, SelVar, Selector, Statement, ValuePathExpr, VpVar};

/// Result of a simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// The action trace `A′` the program would perform. Each action consumed
    /// exactly one DOM from the input trace, so `actions.len()` is also the
    /// number of DOMs consumed.
    pub actions: Vec<Action>,
    /// `true` iff execution stopped because the DOM trace was exhausted
    /// (the paper's `Term` rule) rather than because the program finished.
    pub exhausted: bool,
}

/// Error produced by [`execute`] on malformed (open) programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A selector used a loop variable that is not in scope.
    UnboundSelVar(SelVar),
    /// A value path used a loop variable that is not in scope.
    UnboundVpVar(VpVar),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundSelVar(v) => write!(f, "unbound selector variable {v}"),
            EvalError::UnboundVpVar(v) => write!(f, "unbound value-path variable {v}"),
        }
    }
}

impl Error for EvalError {}

/// Simulates `program` against the DOM trace `doms` with input data
/// `input`, returning the action trace it would produce (top-level judgment
/// `Π, I ⊢ P : A′`).
///
/// Execution stops when the program terminates or when `doms` is exhausted,
/// whichever comes first.
///
/// # Errors
///
/// Returns [`EvalError`] if the program references an unbound loop variable
/// (synthesized programs are always closed; this guards API misuse).
pub fn execute(
    program: &[Statement],
    doms: &[Arc<Dom>],
    input: &Value,
) -> Result<EvalOutcome, EvalError> {
    let mut interp = Interp {
        doms,
        input,
        cursor: 0,
        out: Vec::new(),
        env: Env::default(),
    };
    let flow = interp.exec_block(program)?;
    Ok(EvalOutcome {
        actions: interp.out,
        exhausted: flow == Flow::Exhausted,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// The statement finished; continue with the next one.
    Continue,
    /// The DOM trace ran out (`Term` rule): stop the entire execution.
    Exhausted,
}

/// Environment Σ: lexically scoped bindings for selector and value-path
/// loop variables. Shared with the resumable [`Stepper`](crate::Stepper).
#[derive(Debug, Default, Clone)]
pub(crate) struct Env {
    pub(crate) sel: Vec<(SelVar, Path)>,
    pub(crate) vp: Vec<(VpVar, ValuePath)>,
}

impl Env {
    fn lookup_sel(&self, v: SelVar) -> Option<&Path> {
        self.sel
            .iter()
            .rev()
            .find(|(var, _)| *var == v)
            .map(|(_, p)| p)
    }

    fn lookup_vp(&self, v: VpVar) -> Option<&ValuePath> {
        self.vp
            .iter()
            .rev()
            .find(|(var, _)| *var == v)
            .map(|(_, p)| p)
    }

    pub(crate) fn resolve_selector(&self, s: &Selector) -> Result<Path, EvalError> {
        match s.base_var() {
            None => Ok(s.path.clone()),
            Some(v) => {
                let binding = self.lookup_sel(v).ok_or(EvalError::UnboundSelVar(v))?;
                Ok(binding.concat(&s.path))
            }
        }
    }

    pub(crate) fn resolve_vp(&self, v: &ValuePathExpr) -> Result<ValuePath, EvalError> {
        match v.base_var() {
            None => Ok(v.path.clone()),
            Some(var) => {
                let binding = self.lookup_vp(var).ok_or(EvalError::UnboundVpVar(var))?;
                Ok(binding.concat(&v.path))
            }
        }
    }
}

struct Interp<'a> {
    doms: &'a [Arc<Dom>],
    input: &'a Value,
    cursor: usize,
    out: Vec<Action>,
    env: Env,
}

impl Interp<'_> {
    fn current_dom(&self) -> Option<&Dom> {
        self.doms.get(self.cursor).map(|d| d.as_ref())
    }

    /// `Seq` rule: statements run left to right; exhaustion aborts the rest.
    fn exec_block(&mut self, stmts: &[Statement]) -> Result<Flow, EvalError> {
        for s in stmts {
            if self.exec_stmt(s)? == Flow::Exhausted {
                return Ok(Flow::Exhausted);
            }
        }
        Ok(Flow::Continue)
    }

    /// Emits one action, consuming one DOM ("angelic" transition).
    fn emit(&mut self, action: Action) -> Flow {
        if self.cursor >= self.doms.len() {
            return Flow::Exhausted;
        }
        self.out.push(action);
        self.cursor += 1;
        Flow::Continue
    }

    fn exec_stmt(&mut self, stmt: &Statement) -> Result<Flow, EvalError> {
        match stmt {
            Statement::Click(s) => {
                let p = self.env.resolve_selector(s)?;
                Ok(self.emit(Action::Click(p)))
            }
            Statement::ScrapeText(s) => {
                let p = self.env.resolve_selector(s)?;
                Ok(self.emit(Action::ScrapeText(p)))
            }
            Statement::ScrapeLink(s) => {
                let p = self.env.resolve_selector(s)?;
                Ok(self.emit(Action::ScrapeLink(p)))
            }
            Statement::Download(s) => {
                let p = self.env.resolve_selector(s)?;
                Ok(self.emit(Action::Download(p)))
            }
            Statement::GoBack => Ok(self.emit(Action::GoBack)),
            Statement::ExtractUrl => Ok(self.emit(Action::ExtractUrl)),
            Statement::SendKeys(s, text) => {
                let p = self.env.resolve_selector(s)?;
                Ok(self.emit(Action::SendKeys(p, text.clone())))
            }
            Statement::EnterData(s, v) => {
                let p = self.env.resolve_selector(s)?;
                let vp = self.env.resolve_vp(v)?;
                Ok(self.emit(Action::EnterData(p, vp)))
            }
            Statement::ForeachSel(l) => {
                // S-Init / S-Cont / S-Term: lazy unrolling guarded by
                // valid(ρ_i, π₁) on the *current* DOM.
                let base = self.env.resolve_selector(&l.list.base)?;
                let mut i = 1usize;
                loop {
                    let Some(dom) = self.current_dom() else {
                        return Ok(Flow::Exhausted);
                    };
                    let element = l.list.element(&base, i);
                    if !element.valid(dom) {
                        return Ok(Flow::Continue); // S-Term
                    }
                    self.env.sel.push((l.var, element));
                    let flow = self.exec_block(&l.body)?;
                    self.env.sel.pop();
                    if flow == Flow::Exhausted {
                        return Ok(Flow::Exhausted);
                    }
                    i += 1;
                }
            }
            Statement::ForeachVal(l) => {
                // VP-Loop: eager iteration over ValuePaths(v).
                let array_path = self.env.resolve_vp(&l.list.array)?;
                let count = self
                    .input
                    .get_array(&array_path)
                    .map(|a| a.len())
                    .unwrap_or(0);
                for i in 1..=count {
                    let element = array_path.join(PathSeg::Index(i));
                    self.env.vp.push((l.var, element));
                    let flow = self.exec_block(&l.body)?;
                    self.env.vp.pop();
                    if flow == Flow::Exhausted {
                        return Ok(Flow::Exhausted);
                    }
                }
                Ok(Flow::Continue)
            }
            Statement::While(w) => {
                // While-Init / While-Cont / While-Term: run the body, then
                // click-and-repeat while the click target is still valid.
                loop {
                    if self.exec_block(&w.body)? == Flow::Exhausted {
                        return Ok(Flow::Exhausted);
                    }
                    let click = self.env.resolve_selector(&w.click)?;
                    let Some(dom) = self.current_dom() else {
                        return Ok(Flow::Exhausted);
                    };
                    if !click.valid(dom) {
                        return Ok(Flow::Continue); // While-Term
                    }
                    if self.emit(Action::Click(click)) == Flow::Exhausted {
                        return Ok(Flow::Exhausted);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_dom::parse_html;
    use webrobot_lang::parse_program;

    fn dom(html: &str) -> Arc<Dom> {
        Arc::new(parse_html(html).unwrap())
    }

    fn input() -> Value {
        Value::object([("zips".to_string(), Value::str_array(["48105", "10001"]))])
    }

    fn run(src: &str, doms: &[Arc<Dom>]) -> EvalOutcome {
        let prog = parse_program(src).unwrap();
        execute(prog.statements(), doms, &input()).unwrap()
    }

    #[test]
    fn loop_free_statements_consume_one_dom_each() {
        let d = dom("<html><a>x</a><input/></html>");
        let out = run(
            "Click(//a[1])\nScrapeText(//a[1])\nGoBack",
            &[d.clone(), d.clone(), d],
        );
        assert_eq!(out.actions.len(), 3);
        assert!(!out.exhausted);
    }

    #[test]
    fn execution_stops_when_dom_trace_exhausted() {
        let d = dom("<html><a>x</a></html>");
        let out = run("Click(//a[1])\nGoBack\nGoBack", &[d.clone(), d]);
        assert_eq!(out.actions.len(), 2);
        assert!(out.exhausted);
    }

    #[test]
    fn fig9_selector_loop_unrolls_lazily() {
        let d = dom("<html><a>1</a><a>2</a></html>");
        let out = run(
            "foreach %r0 in Dscts(eps, a) do {\n  Click(%r0)\n}",
            &[d.clone(), d],
        );
        let printed: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(printed, ["Click(//a[1])", "Click(//a[2])"]);
        // After the second click Π is empty: S-Cont cannot check a[3], so
        // the run is Term-inated (exhausted), exactly as in Fig. 9.
        assert!(out.exhausted);
    }

    #[test]
    fn selector_loop_terminates_on_invalid_element() {
        // Three DOMs available, but only two anchors: loop must stop itself.
        let d = dom("<html><a>1</a><a>2</a></html>");
        let out = run(
            "foreach %r0 in Dscts(eps, a) do {\n  ScrapeText(%r0)\n}\nGoBack",
            &[d.clone(), d.clone(), d],
        );
        let kinds: Vec<_> = out.actions.iter().map(|a| a.kind()).collect();
        assert_eq!(kinds.len(), 3);
        assert_eq!(kinds[2], webrobot_lang::ActionKind::GoBack);
        assert!(!out.exhausted);
    }

    #[test]
    fn p_prime_from_example_31_stops_early() {
        // P' = foreach ϱ in Dscts(ε, a) do { Click(ϱ/b[1]) }: //a[1]/b[1]
        // does not exist, so S-Term fires immediately with no actions.
        let d = dom("<html><a>1</a><a>2</a></html>");
        let out = run(
            "foreach %r0 in Dscts(eps, a) do {\n  Click(%r0/b[1])\n}",
            &[d.clone(), d],
        );
        // valid() checks the loop *element* a[1] (which exists), then the
        // body click on a[1]/b[1] emits an action referring to nothing —
        // consistency checking (not the interpreter) rejects it.
        assert_eq!(out.actions.len(), 2);
    }

    #[test]
    fn value_path_loop_iterates_input_array() {
        let d = dom("<html><input/></html>");
        let doms: Vec<_> = (0..2).map(|_| d.clone()).collect();
        let out = run(
            "foreach %v0 in ValuePaths(x[zips]) do {\n  EnterData(//input[1], %v0)\n}",
            &doms,
        );
        let printed: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            printed,
            [
                "EnterData(//input[1], x[zips][1])",
                "EnterData(//input[1], x[zips][2])"
            ]
        );
        assert!(!out.exhausted);
    }

    #[test]
    fn value_path_loop_over_missing_array_is_empty() {
        let d = dom("<html><input/></html>");
        let out = run(
            "foreach %v0 in ValuePaths(x[nope]) do {\n  EnterData(//input[1], %v0)\n}",
            &[d],
        );
        assert!(out.actions.is_empty());
        assert!(!out.exhausted);
    }

    #[test]
    fn while_loop_clicks_until_button_disappears() {
        let with_next = dom("<html><h3>s</h3><span class='next'>&gt;</span></html>");
        let last = dom("<html><h3>s</h3></html>");
        // Trace: scrape page1, click next, scrape page2; the While-Term
        // check then sees `last` (no next button) and exits the loop, so
        // the trailing GoBack runs on the remaining DOM.
        let doms = vec![with_next.clone(), with_next, last.clone(), last];
        let out = run(
            "while true do {\n  ScrapeText(//h3[1])\n  Click(//span[@class='next'][1])\n}\nGoBack",
            &doms,
        );
        let printed: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            printed,
            [
                "ScrapeText(//h3[1])",
                "Click(//span[@class='next'][1])",
                "ScrapeText(//h3[1])",
                "GoBack",
            ]
        );
        assert!(!out.exhausted);
    }

    #[test]
    fn while_loop_exhausts_at_trace_frontier() {
        // Same program, but the trace ends right after the second scrape:
        // the While-Term check has no DOM to look at, so the whole
        // execution Term-inates (this is how a still-running while loop
        // generalizes at the demonstration frontier).
        let with_next = dom("<html><h3>s</h3><span class='next'>&gt;</span></html>");
        let doms = vec![with_next.clone(), with_next.clone(), with_next];
        let out = run(
            "while true do {\n  ScrapeText(//h3[1])\n  Click(//span[@class='next'][1])\n}",
            &doms,
        );
        assert_eq!(out.actions.len(), 3);
        assert!(out.exhausted);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let d = dom("<html></html>");
        let prog = parse_program("Click(%r7)").unwrap();
        let err = execute(prog.statements(), &[d], &input()).unwrap_err();
        assert_eq!(err, EvalError::UnboundSelVar(SelVar(7)));
    }

    #[test]
    fn nested_loops_shadow_and_restore_bindings() {
        let d = dom("<html><ul><li>a</li><li>b</li></ul><ul><li>c</li></ul></html>");
        let doms: Vec<_> = (0..3).map(|_| d.clone()).collect();
        let out = run(
            "foreach %r0 in Dscts(eps, ul) do {\n  foreach %r1 in Children(%r0, li) do {\n    ScrapeText(%r1)\n  }\n}",
            &doms,
        );
        let printed: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            printed,
            [
                "ScrapeText(//ul[1]/li[1])",
                "ScrapeText(//ul[1]/li[2])",
                "ScrapeText(//ul[2]/li[1])",
            ]
        );
    }
}
