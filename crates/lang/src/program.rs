//! Programs and statements (paper Fig. 6).

use std::fmt;
use std::sync::Arc;

use crate::selector::{SelBase, Selector, SelectorList};
use crate::valuepath::{ValuePathExpr, ValuePathList, VpBase};
use crate::vars::{SelVar, VpVar};

/// A selector loop `foreach ϱ in N do P`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeachSel {
    /// The bound variable `ϱ`.
    pub var: SelVar,
    /// The collection `N` to iterate over.
    pub list: SelectorList,
    /// The loop body `P`, shared: cloning the loop bumps a reference count.
    pub body: Arc<[Statement]>,
}

/// A value-path loop `foreach ϑ in V do P`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeachVal {
    /// The bound variable `ϑ`.
    pub var: VpVar,
    /// The collection `V` to iterate over.
    pub list: ValuePathList,
    /// The loop body `P`, shared like [`ForeachSel::body`].
    pub body: Arc<[Statement]>,
}

/// A click-terminated loop `while true do { P; Click(n) }`.
///
/// The loop runs `P`, then terminates if `n` no longer denotes a node on
/// the current page; otherwise it clicks `n` and repeats. This is the
/// paper's pagination construct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct While {
    /// The body `P` executed before each terminating click, shared like
    /// [`ForeachSel::body`].
    pub body: Arc<[Statement]>,
    /// The selector of the terminating `Click`.
    pub click: Selector,
}

/// A statement of the web RPA language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Statement {
    /// `Click(n)`.
    Click(Selector),
    /// `ScrapeText(n)`.
    ScrapeText(Selector),
    /// `ScrapeLink(n)`.
    ScrapeLink(Selector),
    /// `Download(n)`.
    Download(Selector),
    /// `GoBack`.
    GoBack,
    /// `ExtractURL`.
    ExtractUrl,
    /// `SendKeys(n, s)`.
    SendKeys(Selector, String),
    /// `EnterData(n, v)`.
    EnterData(Selector, ValuePathExpr),
    /// `foreach ϱ in N do P`.
    ForeachSel(ForeachSel),
    /// `foreach ϑ in V do P`.
    ForeachVal(ForeachVal),
    /// `while true do { P; Click(n) }`.
    While(While),
}

impl Statement {
    /// `true` iff the statement contains no loops.
    pub fn is_loop_free(&self) -> bool {
        !matches!(
            self,
            Statement::ForeachSel(_) | Statement::ForeachVal(_) | Statement::While(_)
        )
    }

    /// The statement's primary selector argument, if any (for loop-free
    /// statements).
    pub fn selector(&self) -> Option<&Selector> {
        match self {
            Statement::Click(s)
            | Statement::ScrapeText(s)
            | Statement::ScrapeLink(s)
            | Statement::Download(s)
            | Statement::SendKeys(s, _)
            | Statement::EnterData(s, _) => Some(s),
            _ => None,
        }
    }

    /// AST size, used for ranking (paper §4: "we aim to synthesize a
    /// smallest program in size").
    pub fn size(&self) -> usize {
        match self {
            Statement::Click(s)
            | Statement::ScrapeText(s)
            | Statement::ScrapeLink(s)
            | Statement::Download(s) => 1 + s.size(),
            Statement::GoBack | Statement::ExtractUrl => 1,
            Statement::SendKeys(s, _) => 2 + s.size(),
            Statement::EnterData(s, v) => 1 + s.size() + v.size(),
            Statement::ForeachSel(l) => {
                1 + l.list.size() + l.body.iter().map(Statement::size).sum::<usize>()
            }
            Statement::ForeachVal(l) => {
                1 + l.list.size() + l.body.iter().map(Statement::size).sum::<usize>()
            }
            Statement::While(w) => {
                2 + w.click.size() + w.body.iter().map(Statement::size).sum::<usize>()
            }
        }
    }

    /// Maximum loop-nesting depth of this statement (0 for loop-free).
    pub fn loop_depth(&self) -> usize {
        match self {
            Statement::ForeachSel(l) => 1 + body_depth(&l.body),
            Statement::ForeachVal(l) => 1 + body_depth(&l.body),
            Statement::While(w) => 1 + body_depth(&w.body),
            _ => 0,
        }
    }

    /// Alpha-equivalence: equality modulo renaming of bound loop variables
    /// (used by anti-unification rule (2) of paper Fig. 10).
    pub fn alpha_eq(&self, other: &Statement) -> bool {
        self.canonicalize() == other.canonicalize()
    }

    /// Canonical form with loop variables renumbered from 0 in order of
    /// binding. Two statements are alpha-equivalent iff their canonical
    /// forms are equal; hashing canonical forms dedups worklist items.
    pub fn canonicalize(&self) -> Statement {
        let mut renamer = Renamer::default();
        renamer.stmt(self)
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Statement::Click(s) => writeln!(f, "{pad}Click({s})"),
            Statement::ScrapeText(s) => writeln!(f, "{pad}ScrapeText({s})"),
            Statement::ScrapeLink(s) => writeln!(f, "{pad}ScrapeLink({s})"),
            Statement::Download(s) => writeln!(f, "{pad}Download({s})"),
            Statement::GoBack => writeln!(f, "{pad}GoBack"),
            Statement::ExtractUrl => writeln!(f, "{pad}ExtractURL"),
            Statement::SendKeys(s, text) => writeln!(f, "{pad}SendKeys({s}, \"{text}\")"),
            Statement::EnterData(s, v) => writeln!(f, "{pad}EnterData({s}, {v})"),
            Statement::ForeachSel(l) => {
                writeln!(f, "{pad}foreach {} in {} do {{", l.var, l.list)?;
                for s in l.body.iter() {
                    s.fmt_indent(f, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
            Statement::ForeachVal(l) => {
                writeln!(f, "{pad}foreach {} in {} do {{", l.var, l.list)?;
                for s in l.body.iter() {
                    s.fmt_indent(f, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
            Statement::While(w) => {
                writeln!(f, "{pad}while true do {{")?;
                for s in w.body.iter() {
                    s.fmt_indent(f, indent + 1)?;
                }
                writeln!(f, "{pad}  Click({})", w.click)?;
                writeln!(f, "{pad}}}")
            }
        }
    }
}

fn body_depth(body: &[Statement]) -> usize {
    body.iter().map(Statement::loop_depth).max().unwrap_or(0)
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// Variable renamer used by [`Statement::canonicalize`].
#[derive(Debug, Default)]
struct Renamer {
    sel_map: Vec<(SelVar, SelVar)>,
    vp_map: Vec<(VpVar, VpVar)>,
    next: u32,
}

impl Renamer {
    fn bind_sel(&mut self, v: SelVar) -> SelVar {
        let fresh = SelVar(self.next);
        self.next += 1;
        self.sel_map.push((v, fresh));
        fresh
    }

    fn bind_vp(&mut self, v: VpVar) -> VpVar {
        let fresh = VpVar(self.next);
        self.next += 1;
        self.vp_map.push((v, fresh));
        fresh
    }

    fn sel_var(&self, v: SelVar) -> SelVar {
        // Innermost binding wins (search from the end).
        self.sel_map
            .iter()
            .rev()
            .find(|(old, _)| *old == v)
            .map(|(_, new)| *new)
            .unwrap_or(v)
    }

    fn vp_var(&self, v: VpVar) -> VpVar {
        self.vp_map
            .iter()
            .rev()
            .find(|(old, _)| *old == v)
            .map(|(_, new)| *new)
            .unwrap_or(v)
    }

    fn selector(&self, s: &Selector) -> Selector {
        match s.base {
            SelBase::Root => s.clone(),
            SelBase::Var(v) => Selector {
                base: SelBase::Var(self.sel_var(v)),
                path: s.path.clone(),
            },
        }
    }

    fn vp_expr(&self, v: &ValuePathExpr) -> ValuePathExpr {
        match v.base {
            VpBase::Input => v.clone(),
            VpBase::Var(var) => ValuePathExpr {
                base: VpBase::Var(self.vp_var(var)),
                path: v.path.clone(),
            },
        }
    }

    fn stmt(&mut self, s: &Statement) -> Statement {
        match s {
            Statement::Click(sel) => Statement::Click(self.selector(sel)),
            Statement::ScrapeText(sel) => Statement::ScrapeText(self.selector(sel)),
            Statement::ScrapeLink(sel) => Statement::ScrapeLink(self.selector(sel)),
            Statement::Download(sel) => Statement::Download(self.selector(sel)),
            Statement::GoBack => Statement::GoBack,
            Statement::ExtractUrl => Statement::ExtractUrl,
            Statement::SendKeys(sel, text) => Statement::SendKeys(self.selector(sel), text.clone()),
            Statement::EnterData(sel, vp) => {
                Statement::EnterData(self.selector(sel), self.vp_expr(vp))
            }
            Statement::ForeachSel(l) => {
                let list = SelectorList {
                    kind: l.list.kind,
                    base: self.selector(&l.list.base),
                    pred: l.list.pred.clone(),
                };
                let depth = (self.sel_map.len(), self.vp_map.len());
                let var = self.bind_sel(l.var);
                let body = l.body.iter().map(|s| self.stmt(s)).collect();
                self.sel_map.truncate(depth.0);
                self.vp_map.truncate(depth.1);
                Statement::ForeachSel(ForeachSel { var, list, body })
            }
            Statement::ForeachVal(l) => {
                let list = ValuePathList {
                    array: self.vp_expr(&l.list.array),
                };
                let depth = (self.sel_map.len(), self.vp_map.len());
                let var = self.bind_vp(l.var);
                let body = l.body.iter().map(|s| self.stmt(s)).collect();
                self.sel_map.truncate(depth.0);
                self.vp_map.truncate(depth.1);
                Statement::ForeachVal(ForeachVal { var, list, body })
            }
            Statement::While(w) => Statement::While(While {
                body: w.body.iter().map(|s| self.stmt(s)).collect(),
                click: self.selector(&w.click),
            }),
        }
    }
}

/// A web RPA program: a sequence of statements.
///
/// # Example
///
/// ```
/// use webrobot_lang::{parse_program, Program};
///
/// let p: Program = parse_program(
///     "foreach %r0 in Dscts(eps, a) do {\n  Click(%r0)\n}",
/// )?;
/// assert_eq!(p.size(), 5);
/// assert_eq!(p.loop_depth(), 1);
/// # Ok::<(), webrobot_lang::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Program {
    statements: Vec<Statement>,
}

impl Program {
    /// Creates a program from statements.
    pub fn new(statements: Vec<Statement>) -> Program {
        Program { statements }
    }

    /// The statements of the program.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// Consumes the program, returning its statements.
    pub fn into_statements(self) -> Vec<Statement> {
        self.statements
    }

    /// Total AST size.
    pub fn size(&self) -> usize {
        self.statements.iter().map(Statement::size).sum()
    }

    /// Maximum loop-nesting depth across statements.
    pub fn loop_depth(&self) -> usize {
        body_depth(&self.statements)
    }

    /// Number of top-level statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// `true` iff the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Canonical form (all statements canonicalized together, sharing one
    /// variable counter).
    pub fn canonicalize(&self) -> Program {
        let mut renamer = Renamer::default();
        Program {
            statements: self.statements.iter().map(|s| renamer.stmt(s)).collect(),
        }
    }

    /// Alpha-equivalence of whole programs.
    pub fn alpha_eq(&self, other: &Program) -> bool {
        self.canonicalize() == other.canonicalize()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.statements {
            s.fmt_indent(f, 0)?;
        }
        Ok(())
    }
}

impl FromIterator<Statement> for Program {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Program {
        Program {
            statements: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectorList;
    use webrobot_dom::{Path, Pred};

    fn scrape(path: &str) -> Statement {
        Statement::ScrapeText(Selector::rooted(path.parse().unwrap()))
    }

    fn simple_loop(var: u32) -> Statement {
        Statement::ForeachSel(ForeachSel {
            var: SelVar(var),
            list: SelectorList::dscts(Selector::rooted(Path::root()), Pred::tag("a")),
            body: [Statement::Click(Selector::var(SelVar(var)))].into(),
        })
    }

    #[test]
    fn alpha_eq_ignores_var_names() {
        assert!(simple_loop(0).alpha_eq(&simple_loop(7)));
        assert_eq!(simple_loop(3).canonicalize(), simple_loop(0));
    }

    #[test]
    fn alpha_eq_distinguishes_structure() {
        let a = simple_loop(0);
        let b = Statement::ForeachSel(ForeachSel {
            var: SelVar(0),
            list: SelectorList::dscts(Selector::rooted(Path::root()), Pred::tag("b")),
            body: [Statement::Click(Selector::var(SelVar(0)))].into(),
        });
        assert!(!a.alpha_eq(&b));
    }

    #[test]
    fn nested_loops_canonicalize_in_binding_order() {
        let inner = |v: u32, outer: u32| {
            Statement::ForeachSel(ForeachSel {
                var: SelVar(v),
                list: SelectorList::children(Selector::var(SelVar(outer)), Pred::tag("li")),
                body: [Statement::ScrapeText(Selector::var(SelVar(v)))].into(),
            })
        };
        let outer = |ov: u32, iv: u32| {
            Statement::ForeachSel(ForeachSel {
                var: SelVar(ov),
                list: SelectorList::dscts(Selector::rooted(Path::root()), Pred::tag("ul")),
                body: [inner(iv, ov)].into(),
            })
        };
        assert!(outer(5, 9).alpha_eq(&outer(0, 1)));
        // Shadowing: same numeral for inner and outer still canonicalizes.
        assert!(outer(2, 2).alpha_eq(&outer(0, 1)));
    }

    #[test]
    fn cloned_loops_share_their_body() {
        let a = simple_loop(0);
        let b = a.clone();
        let (Statement::ForeachSel(la), Statement::ForeachSel(lb)) = (&a, &b) else {
            unreachable!("simple_loop builds a selector loop");
        };
        assert!(std::ptr::eq(la.body.as_ptr(), lb.body.as_ptr()));
        assert_eq!(a, b);
    }

    #[test]
    fn size_counts_ast_nodes() {
        // ScrapeText(//h3[1]) = 1 (stmt) + 1 (base) + 1 (step) = 3
        assert_eq!(scrape("//h3[1]").size(), 3);
        // loop = 1 + list(1 + base 1) + body Click(var) (1 + 1) = 5
        assert_eq!(simple_loop(0).size(), 5);
    }

    #[test]
    fn loop_depth_is_max_nesting() {
        let w = Statement::While(While {
            body: [simple_loop(0)].into(),
            click: Selector::rooted("//span[1]".parse().unwrap()),
        });
        assert_eq!(w.loop_depth(), 2);
        assert_eq!(scrape("//h3[1]").loop_depth(), 0);
        let p = Program::new(vec![scrape("//h3[1]"), w]);
        assert_eq!(p.loop_depth(), 2);
    }

    #[test]
    fn display_is_indented() {
        let w = Statement::While(While {
            body: [simple_loop(0)].into(),
            click: Selector::rooted("//span[1]".parse().unwrap()),
        });
        let text = w.to_string();
        assert!(text.contains("while true do {"));
        assert!(text.contains("\n  foreach %r0 in Dscts(eps, a) do {"));
        assert!(text.contains("\n    Click(%r0)"));
        assert!(text.contains("\n  Click(//span[1])"));
    }

    #[test]
    fn program_collects_statements() {
        let p: Program = vec![scrape("//h3[1]"), Statement::GoBack]
            .into_iter()
            .collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p.size(), 4);
        assert!(!p.is_empty());
    }
}
