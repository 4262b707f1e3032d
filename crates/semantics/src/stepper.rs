//! The machine that runs programs: [`execute`](crate::execute) refactored
//! into an explicit-stack machine that consumes one DOM per
//! [`Stepper::step`] call.
//!
//! It is the engine of the *true incremental fast path* (paper §5.4 /
//! §7.2): a cached generalizing program keeps a `Stepper` that has already
//! consumed the whole demonstration, so checking it against one newly
//! observed action costs one `step` — O(1) in the trace length — instead
//! of a full re-execution. The same machine drives validation (Alg. 3)
//! with per-action early abort, and `webrobot_browser` drives it live: the
//! caller hands it the page it is on after each action, so live replay
//! and ground-truth recording answer loop guards on the live DOM.
//!
//! The machine is action-trace equivalent to [`execute`]: feeding the DOMs
//! of a trace one at a time yields exactly `execute(..).actions`, in
//! order (a unit test, a property test over the suite's ground truths and
//! the differential harness all pin this down). Equivalence is what makes
//! the fast path a *proof-carrying* optimization rather than an
//! approximation, and what lets live runs stand for the trace semantics.
//!
//! Statement blocks are shared as `Arc<[Statement]>`, the program's own
//! loop bodies, so entering a loop or an iteration is a pointer bump, not
//! a deep clone of the body.

use std::sync::Arc;

use webrobot_data::{PathSeg, Value, ValuePath};
use webrobot_dom::{Dom, Path};
use webrobot_lang::{Action, Selector, SelectorList, Statement};

use crate::interp::Env;
use crate::interp::EvalError;

/// One suspended control-flow frame of the machine.
#[derive(Debug, Clone)]
enum Frame {
    /// A statement sequence being executed left to right.
    Block { stmts: Arc<[Statement]>, idx: usize },
    /// A selector loop between iterations: the guard for iteration `i`
    /// has not been checked yet (`in_body == false`), or iteration `i`'s
    /// body block sits directly above this frame (`in_body == true`).
    Sel {
        var: webrobot_lang::SelVar,
        base: Path,
        list: SelectorList,
        body: Arc<[Statement]>,
        i: usize,
        in_body: bool,
    },
    /// A value-path loop mid-iteration (`i` is 1-based, `i <= count`).
    Vp {
        var: webrobot_lang::VpVar,
        array: ValuePath,
        count: usize,
        body: Arc<[Statement]>,
        i: usize,
    },
    /// A while loop: body block above when `guard_pending == false`,
    /// otherwise the click guard is due on the next available DOM.
    While {
        click: Selector,
        body: Arc<[Statement]>,
        guard_pending: bool,
    },
}

/// Resumable execution state of one program over a growing DOM trace.
#[derive(Debug, Clone)]
pub struct Stepper {
    input: Value,
    frames: Vec<Frame>,
    env: Env,
    finished: bool,
}

// The stepper is the deepest state the session stack suspends (cached
// generalizing programs each carry one), so this bound is what makes the
// whole stack shardable across threads. A compile-time assertion rather
// than a test: reintroducing `Rc` anywhere in a frame fails `cargo check`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Stepper>();
};

impl Stepper {
    /// Starts `program` with input data `input`. Nothing executes until
    /// the first [`Stepper::step`].
    pub fn new(program: &[Statement], input: Value) -> Stepper {
        Stepper {
            input,
            frames: vec![Frame::Block {
                stmts: program.into(),
                idx: 0,
            }],
            env: Env::default(),
            finished: false,
        }
    }

    /// `true` once the program has terminated (no further action can ever
    /// be produced).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Runs the program up to its next action, answering every loop guard
    /// on the way against `dom` (the first not-yet-consumed DOM of the
    /// trace, exactly like the interpreter's `current_dom`).
    ///
    /// Returns `Ok(Some(action))` when the program performs an action on
    /// `dom` (consuming it), or `Ok(None)` when the program terminates
    /// without consuming `dom`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on unbound loop variables, mirroring
    /// [`execute`](crate::execute); the machine is finished afterwards.
    pub fn step(&mut self, dom: &Dom) -> Result<Option<Action>, EvalError> {
        match self.run(dom) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.finished = true;
                Err(e)
            }
        }
    }

    fn run(&mut self, dom: &Dom) -> Result<Option<Action>, EvalError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let Some(top) = self.frames.last_mut() else {
                self.finished = true;
                return Ok(None);
            };
            match top {
                Frame::Block { stmts, idx } => {
                    if *idx >= stmts.len() {
                        self.frames.pop();
                        self.resume_parent();
                        continue;
                    }
                    // Bump the shared block handle, not the statement: a
                    // statement may carry arbitrarily nested loop bodies,
                    // and `enter` only clones the pieces it keeps.
                    let cur = stmts.clone();
                    let at = *idx;
                    *idx += 1;
                    if let Some(action) = self.enter(&cur[at])? {
                        return Ok(Some(action));
                    }
                }
                Frame::Sel { .. } => {
                    // Guard of the next iteration (S-Cont / S-Term).
                    let (element, var, body) = {
                        let Some(Frame::Sel {
                            var,
                            base,
                            list,
                            body,
                            i,
                            in_body,
                        }) = self.frames.last()
                        else {
                            unreachable!("just matched Sel");
                        };
                        debug_assert!(!in_body, "body block sits above while in_body");
                        let element = list.element(base, *i);
                        if !element.valid(dom) {
                            (None, *var, Arc::from([]))
                        } else {
                            (Some(element), *var, body.clone())
                        }
                    };
                    match element {
                        None => {
                            self.frames.pop(); // S-Term: consumes nothing
                        }
                        Some(element) => {
                            if let Some(Frame::Sel { in_body, .. }) = self.frames.last_mut() {
                                *in_body = true;
                            }
                            self.env.sel.push((var, element));
                            self.frames.push(Frame::Block {
                                stmts: body,
                                idx: 0,
                            });
                        }
                    }
                }
                Frame::Vp { .. } => {
                    unreachable!("Vp frames always carry a body block above them")
                }
                Frame::While {
                    click,
                    body,
                    guard_pending,
                } => {
                    // While-Cont / While-Term: guard after each body run.
                    debug_assert!(
                        *guard_pending,
                        "body block sits above until the guard is due"
                    );
                    let path = self.env.resolve_selector(click)?;
                    if !path.valid(dom) {
                        self.frames.pop(); // While-Term: consumes nothing
                        continue;
                    }
                    *guard_pending = false;
                    let body = body.clone();
                    self.frames.push(Frame::Block {
                        stmts: body,
                        idx: 0,
                    });
                    return Ok(Some(Action::Click(path)));
                }
            }
        }
    }

    /// Begins executing one statement: loop-free statements produce their
    /// action immediately (cloning nothing but the resolved arguments),
    /// loops share their body with the program.
    fn enter(&mut self, stmt: &Statement) -> Result<Option<Action>, EvalError> {
        match stmt {
            Statement::Click(s) => Ok(Some(Action::Click(self.env.resolve_selector(s)?))),
            Statement::ScrapeText(s) => Ok(Some(Action::ScrapeText(self.env.resolve_selector(s)?))),
            Statement::ScrapeLink(s) => Ok(Some(Action::ScrapeLink(self.env.resolve_selector(s)?))),
            Statement::Download(s) => Ok(Some(Action::Download(self.env.resolve_selector(s)?))),
            Statement::GoBack => Ok(Some(Action::GoBack)),
            Statement::ExtractUrl => Ok(Some(Action::ExtractUrl)),
            Statement::SendKeys(s, text) => Ok(Some(Action::SendKeys(
                self.env.resolve_selector(s)?,
                text.clone(),
            ))),
            Statement::EnterData(s, v) => {
                let p = self.env.resolve_selector(s)?;
                let vp = self.env.resolve_vp(v)?;
                Ok(Some(Action::EnterData(p, vp)))
            }
            Statement::ForeachSel(l) => {
                let base = self.env.resolve_selector(&l.list.base)?;
                self.frames.push(Frame::Sel {
                    var: l.var,
                    base,
                    list: l.list.clone(),
                    body: l.body.clone(),
                    i: 1,
                    in_body: false,
                });
                Ok(None)
            }
            Statement::ForeachVal(l) => {
                let array = self.env.resolve_vp(&l.list.array)?;
                let count = self.input.get_array(&array).map(|a| a.len()).unwrap_or(0);
                if count > 0 {
                    let body = l.body.clone();
                    self.env.vp.push((l.var, array.join(PathSeg::Index(1))));
                    self.frames.push(Frame::Vp {
                        var: l.var,
                        array,
                        count,
                        body: body.clone(),
                        i: 1,
                    });
                    self.frames.push(Frame::Block {
                        stmts: body,
                        idx: 0,
                    });
                }
                Ok(None)
            }
            Statement::While(w) => {
                let body = w.body.clone();
                self.frames.push(Frame::While {
                    click: w.click.clone(),
                    body: body.clone(),
                    guard_pending: false,
                });
                self.frames.push(Frame::Block {
                    stmts: body,
                    idx: 0,
                });
                Ok(None)
            }
        }
    }

    /// A body block just finished: advance the loop frame underneath it.
    fn resume_parent(&mut self) {
        match self.frames.last_mut() {
            Some(Frame::Sel { i, in_body, .. }) => {
                debug_assert!(*in_body);
                *in_body = false;
                *i += 1;
                self.env.sel.pop();
            }
            Some(Frame::Vp {
                var,
                array,
                count,
                body,
                i,
            }) => {
                self.env.vp.pop();
                *i += 1;
                if *i <= *count {
                    let binding = array.join(PathSeg::Index(*i));
                    let next = Frame::Block {
                        stmts: body.clone(),
                        idx: 0,
                    };
                    self.env.vp.push((*var, binding));
                    self.frames.push(next);
                } else {
                    self.frames.pop();
                }
            }
            Some(Frame::While { guard_pending, .. }) => {
                *guard_pending = true;
            }
            Some(Frame::Block { .. }) | None => {
                // Top-level block finished (or nested block directly under
                // the root): nothing to advance.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use std::sync::Arc;
    use webrobot_dom::parse_html;
    use webrobot_lang::parse_program;

    fn dom(html: &str) -> Arc<Dom> {
        Arc::new(parse_html(html).unwrap())
    }

    fn input() -> Value {
        Value::object([("zips".to_string(), Value::str_array(["48105", "10001"]))])
    }

    /// Feeds `doms` one at a time, collecting actions until the machine
    /// finishes or the DOMs run out.
    fn drive(src: &str, doms: &[Arc<Dom>]) -> Vec<Action> {
        let prog = parse_program(src).unwrap();
        let mut stepper = Stepper::new(prog.statements(), input());
        let mut out = Vec::new();
        for d in doms {
            match stepper.step(d).unwrap() {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }

    fn check_matches_execute(src: &str, doms: &[Arc<Dom>]) {
        let prog = parse_program(src).unwrap();
        let reference = execute(prog.statements(), doms, &input()).unwrap();
        assert_eq!(drive(src, doms), reference.actions, "program:\n{src}");
    }

    #[test]
    fn matches_execute_on_interpreter_corpus() {
        let d = dom("<html><a>x</a><input/></html>");
        let anchors = dom("<html><a>1</a><a>2</a></html>");
        let lists = dom("<html><ul><li>a</li><li>b</li></ul><ul><li>c</li></ul></html>");
        let with_next = dom("<html><h3>s</h3><span class='next'>&gt;</span></html>");
        let last = dom("<html><h3>s</h3></html>");
        let cases: Vec<(&str, Vec<Arc<Dom>>)> = vec![
            (
                "Click(//a[1])\nScrapeText(//a[1])\nGoBack",
                vec![d.clone(), d.clone(), d.clone()],
            ),
            ("Click(//a[1])\nGoBack\nGoBack", vec![d.clone(), d.clone()]),
            (
                "foreach %r0 in Dscts(eps, a) do {\n  Click(%r0)\n}",
                vec![anchors.clone(), anchors.clone()],
            ),
            (
                "foreach %r0 in Dscts(eps, a) do {\n  ScrapeText(%r0)\n}\nGoBack",
                vec![anchors.clone(), anchors.clone(), anchors.clone()],
            ),
            (
                "foreach %r0 in Dscts(eps, a) do {\n  Click(%r0/b[1])\n}",
                vec![anchors.clone(), anchors.clone()],
            ),
            (
                "foreach %v0 in ValuePaths(x[zips]) do {\n  EnterData(//input[1], %v0)\n}",
                vec![d.clone(), d.clone()],
            ),
            (
                "foreach %v0 in ValuePaths(x[nope]) do {\n  EnterData(//input[1], %v0)\n}",
                vec![d.clone()],
            ),
            (
                "while true do {\n  ScrapeText(//h3[1])\n  Click(//span[@class='next'][1])\n}\nGoBack",
                vec![with_next.clone(), with_next.clone(), last.clone(), last.clone()],
            ),
            (
                "while true do {\n  ScrapeText(//h3[1])\n  Click(//span[@class='next'][1])\n}",
                vec![with_next.clone(), with_next.clone(), with_next.clone()],
            ),
            (
                "foreach %r0 in Dscts(eps, ul) do {\n  foreach %r1 in Children(%r0, li) do {\n    ScrapeText(%r1)\n  }\n}",
                vec![lists.clone(), lists.clone(), lists.clone()],
            ),
        ];
        for (src, doms) in cases {
            check_matches_execute(src, &doms);
        }
    }

    #[test]
    fn prefix_runs_are_prefixes_of_longer_runs() {
        // Determinism in the DOM prefix: stepping k DOMs yields the first
        // k actions of stepping k+1 DOMs — the property the incremental
        // fast path rests on.
        let anchors = dom("<html><a>1</a><a>2</a><a>3</a><a>4</a></html>");
        let src = "foreach %r0 in Dscts(eps, a) do {\n  ScrapeText(%r0)\n}";
        let doms: Vec<Arc<Dom>> = (0..4).map(|_| anchors.clone()).collect();
        let full = drive(src, &doms);
        for k in 0..doms.len() {
            assert_eq!(drive(src, &doms[..k]), full[..k.min(full.len())]);
        }
    }

    #[test]
    fn finishes_without_consuming_the_last_dom() {
        let anchors = dom("<html><a>1</a></html>");
        let prog =
            parse_program("foreach %r0 in Dscts(eps, a) do {\n  ScrapeText(%r0)\n}\n").unwrap();
        let mut s = Stepper::new(prog.statements(), input());
        assert!(s.step(&anchors).unwrap().is_some()); // scrape a[1]
        assert!(s.step(&anchors).unwrap().is_none()); // a[2] invalid: S-Term, done
        assert!(s.finished());
        assert!(s.step(&anchors).unwrap().is_none()); // stays finished
    }

    #[test]
    fn unbound_variable_errors_and_finishes() {
        let d = dom("<html></html>");
        let prog = parse_program("Click(%r7)").unwrap();
        let mut s = Stepper::new(prog.statements(), input());
        assert!(s.step(&d).is_err());
        assert!(s.finished());
    }
}
