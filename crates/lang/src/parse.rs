//! Parser for the web RPA language's textual form.
//!
//! The grammar is exactly what [`Program`](crate::Program)'s `Display`
//! implementation prints, so programs round-trip:
//!
//! ```text
//! program    := stmt*
//! stmt       := Op '(' selector [',' arg] ')' | 'GoBack' | 'ExtractURL'
//!             | 'foreach' var 'in' collection 'do' '{' program '}'
//!             | 'while' 'true' 'do' '{' program '}'   -- last stmt must be Click
//! collection := ('Children'|'Dscts') '(' selector ',' pred ')'
//!             | 'ValuePaths' '(' vpath ')'
//! selector   := ('eps' | '%r' N)? step*            -- steps as in XPath
//! vpath      := ('x' | '%v' N) ('[' seg ']')*
//! ```

use std::error::Error;
use std::fmt;

use webrobot_data::{PathSeg, ValuePath};
use webrobot_dom::{Path, Pred};

use crate::program::{ForeachSel, ForeachVal, Program, Statement, While};
use crate::selector::{SelBase, Selector, SelectorList};
use crate::valuepath::{ValuePathExpr, ValuePathList, VpBase};
use crate::vars::{SelVar, VpVar};

/// Error produced when parsing a program fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    position: usize,
}

impl ParseError {
    fn new(message: impl Into<String>, position: usize) -> ParseError {
        ParseError {
            message: message.into(),
            position,
        }
    }

    /// Byte offset in the input where parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid program at byte {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ParseError {}

/// The deepest loop nesting [`parse_program`] accepts. The parser recurses
/// once per `foreach`/`while` body, and programs are parsed out of store
/// records, so without a bound one hostile record (100,000 nested
/// `while true do {`) overflows the stack and aborts the process; past
/// the cap parsing fails with a [`ParseError`] instead. Synthesized
/// programs nest a few levels, so 64 leaves ample headroom.
pub const MAX_PROGRAM_DEPTH: usize = 64;

/// Parses a program in the language's textual form.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, including a `while` block whose
/// last statement is not a `Click`, and on loops nested deeper than
/// [`MAX_PROGRAM_DEPTH`].
///
/// # Example
///
/// ```
/// let p = webrobot_lang::parse_program(
///     "EnterData(//input[1], x[zips][1])\nClick(//button[1])",
/// )?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), webrobot_lang::ParseError>(())
/// ```
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let statements = p.parse_statements(false)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing content"));
    }
    Ok(Program::new(statements))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Loops currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.pos)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let t = self.rest().trim_start();
        self.pos = self.input.len() - t.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{token}'")))
        }
    }

    fn peek_word(&mut self) -> &'a str {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .find(|c: char| !c.is_ascii_alphanumeric())
            .unwrap_or(rest.len());
        &rest[..end]
    }

    fn parse_statements(&mut self, in_block: bool) -> Result<Vec<Statement>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.rest().is_empty() || (in_block && self.rest().starts_with('}')) {
                return Ok(out);
            }
            out.push(self.parse_statement()?);
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        let word = self.peek_word();
        match word {
            "GoBack" => {
                self.expect("GoBack")?;
                Ok(Statement::GoBack)
            }
            "ExtractURL" => {
                self.expect("ExtractURL")?;
                Ok(Statement::ExtractUrl)
            }
            "Click" | "ScrapeText" | "ScrapeLink" | "Download" => {
                let op = word.to_string();
                self.expect(&op)?;
                self.expect("(")?;
                let sel = self.parse_selector()?;
                self.expect(")")?;
                Ok(match op.as_str() {
                    "Click" => Statement::Click(sel),
                    "ScrapeText" => Statement::ScrapeText(sel),
                    "ScrapeLink" => Statement::ScrapeLink(sel),
                    _ => Statement::Download(sel),
                })
            }
            "SendKeys" => {
                self.expect("SendKeys")?;
                self.expect("(")?;
                let sel = self.parse_selector()?;
                self.expect(",")?;
                let text = self.parse_string()?;
                self.expect(")")?;
                Ok(Statement::SendKeys(sel, text))
            }
            "EnterData" => {
                self.expect("EnterData")?;
                self.expect("(")?;
                let sel = self.parse_selector()?;
                self.expect(",")?;
                let vp = self.parse_value_path()?;
                self.expect(")")?;
                Ok(Statement::EnterData(sel, vp))
            }
            "foreach" => self.nested(Self::parse_foreach),
            "while" => self.nested(Self::parse_while),
            other => Err(self.err(format!("unknown statement '{other}'"))),
        }
    }

    /// Runs `parse` on a loop one nesting level deeper, refusing to go
    /// past [`MAX_PROGRAM_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Statement, ParseError>,
    ) -> Result<Statement, ParseError> {
        if self.depth == MAX_PROGRAM_DEPTH {
            return Err(self.err(format!(
                "loops nested deeper than {MAX_PROGRAM_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let stmt = parse(self);
        self.depth -= 1;
        stmt
    }

    fn parse_foreach(&mut self) -> Result<Statement, ParseError> {
        self.expect("foreach")?;
        self.skip_ws();
        if self.rest().starts_with("%r") {
            let var = SelVar(self.parse_var_index("%r")?);
            self.expect("in")?;
            let list = self.parse_selector_list()?;
            self.expect("do")?;
            self.expect("{")?;
            let body = self.parse_statements(true)?;
            self.expect("}")?;
            Ok(Statement::ForeachSel(ForeachSel { var, list, body }))
        } else if self.rest().starts_with("%v") {
            let var = VpVar(self.parse_var_index("%v")?);
            self.expect("in")?;
            self.expect("ValuePaths")?;
            self.expect("(")?;
            let array = self.parse_value_path()?;
            self.expect(")")?;
            self.expect("do")?;
            self.expect("{")?;
            let body = self.parse_statements(true)?;
            self.expect("}")?;
            Ok(Statement::ForeachVal(ForeachVal {
                var,
                list: ValuePathList { array },
                body,
            }))
        } else {
            Err(self.err("expected loop variable (%rN or %vN)"))
        }
    }

    fn parse_while(&mut self) -> Result<Statement, ParseError> {
        self.expect("while")?;
        self.expect("true")?;
        self.expect("do")?;
        self.expect("{")?;
        let mut body = self.parse_statements(true)?;
        self.expect("}")?;
        match body.pop() {
            Some(Statement::Click(click)) => Ok(Statement::While(While { body, click })),
            _ => Err(self.err("while block must end with Click(n)")),
        }
    }

    fn parse_var_index(&mut self, prefix: &str) -> Result<u32, ParseError> {
        self.expect(prefix)?;
        let rest = self.rest();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected variable index"));
        }
        let n = rest[..end]
            .parse()
            .map_err(|_| self.err("invalid variable index"))?;
        self.pos += end;
        Ok(n)
    }

    fn parse_selector_list(&mut self) -> Result<SelectorList, ParseError> {
        self.skip_ws();
        let ctor = self.peek_word();
        let kind = match ctor {
            "Children" => crate::selector::CollectionKind::Children,
            "Dscts" => crate::selector::CollectionKind::Dscts,
            other => return Err(self.err(format!("unknown collection '{other}'"))),
        };
        self.expect(ctor)?;
        self.expect("(")?;
        let base = self.parse_selector()?;
        self.expect(",")?;
        let pred = self.parse_pred()?;
        self.expect(")")?;
        Ok(SelectorList { kind, base, pred })
    }

    /// Parses a predicate `t` or `t[@attr='v']` (no trailing index).
    fn parse_pred(&mut self) -> Result<Pred, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected tag"));
        }
        let tag = rest[..end].to_string();
        self.pos += end;
        if self.rest().starts_with("[@") {
            // Reuse the path parser by parsing a one-step pseudo path.
            let pseudo_start = self.pos;
            let close = self
                .rest()
                .find(']')
                .ok_or_else(|| self.err("expected ]"))?;
            let attr_text = &self.input[pseudo_start..pseudo_start + close + 1];
            let pseudo = format!("/{tag}{attr_text}[1]");
            let path: Path = pseudo
                .parse()
                .map_err(|e| self.err(format!("invalid predicate: {e}")))?;
            self.pos += close + 1;
            return Ok(path.steps()[0].pred.clone());
        }
        Ok(Pred::tag(tag))
    }

    fn parse_selector(&mut self) -> Result<Selector, ParseError> {
        self.skip_ws();
        let base = if self.rest().starts_with("%r") {
            SelBase::Var(SelVar(self.parse_var_index("%r")?))
        } else {
            if self.rest().starts_with("eps") {
                self.pos += 3;
            }
            SelBase::Root
        };
        // Steps run until a delimiter that cannot start a step.
        let rest = self.rest();
        let end = rest.find([',', ')', '\n', ' ']).unwrap_or(rest.len());
        let text = &rest[..end];
        let path: Path = if text.is_empty() {
            Path::root()
        } else {
            text.parse()
                .map_err(|e| self.err(format!("invalid selector: {e}")))?
        };
        self.pos += end;
        Ok(Selector { base, path })
    }

    fn parse_value_path(&mut self) -> Result<ValuePathExpr, ParseError> {
        self.skip_ws();
        let base = if self.rest().starts_with("%v") {
            VpBase::Var(VpVar(self.parse_var_index("%v")?))
        } else if self.rest().starts_with('x') {
            self.pos += 1;
            VpBase::Input
        } else {
            return Err(self.err("expected value path ('x…' or '%vN…')"));
        };
        let mut segs = Vec::new();
        while self.rest().starts_with('[') {
            self.pos += 1;
            let rest = self.rest();
            let end = rest.find(']').ok_or_else(|| self.err("expected ]"))?;
            let seg_text = &rest[..end];
            self.pos += end + 1;
            match seg_text.parse::<usize>() {
                Ok(i) => segs.push(PathSeg::Index(i)),
                Err(_) => segs.push(PathSeg::Key(seg_text.to_string())),
            }
        }
        Ok(ValuePathExpr {
            base,
            path: ValuePath::new(segs),
        })
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if !self.rest().starts_with('"') {
            return Err(self.err("expected string literal"));
        }
        self.pos += 1;
        let end = self
            .rest()
            .find('"')
            .ok_or_else(|| self.err("unterminated string"))?;
        let s = self.rest()[..end].to_string();
        self.pos += end + 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_loop_free_statements() {
        let p = parse_program(
            "EnterData(/body[1]//input[1], x[zips][1])\n\
             Click(/body[1]/button[1])\n\
             GoBack\n\
             ExtractURL\n\
             SendKeys(//input[2], \"hello\")\n\
             Download(//a[3])",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn parses_nested_loops() {
        let src = "\
foreach %v0 in ValuePaths(x[zips]) do {
  EnterData(//input[@name='search'][1], %v0)
  Click(//button[1])
  while true do {
    foreach %r1 in Dscts(eps, div[@class='rightContainer']) do {
      ScrapeText(%r1//h3[1])
      ScrapeText(%r1//div[@class='locatorPhone'][1])
    }
    Click(//span[@class='next'][1])
  }
}";
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.loop_depth(), 3);
    }

    #[test]
    fn round_trips_through_display() {
        let src = "\
foreach %v0 in ValuePaths(x[zips]) do {
  EnterData(//input[1], %v0)
  while true do {
    foreach %r1 in Children(/body[1]/ul[1], li) do {
      ScrapeText(%r1)
    }
    Click(//span[1])
  }
}";
        let p = parse_program(src).unwrap();
        let reparsed = parse_program(&p.to_string()).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn while_requires_trailing_click() {
        let src = "while true do {\n  ScrapeText(//h3[1])\n}";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn reports_unknown_statement() {
        let err = parse_program("Frobnicate(//a[1])").unwrap_err();
        assert!(err.to_string().contains("Frobnicate"));
    }

    /// `depth` nested `while` loops, each body ending in the required
    /// `Click`.
    fn nested_whiles(depth: usize) -> String {
        "while true do {\n".repeat(depth) + "Click(//a[1])" + &"\n}\nClick(//a[1])".repeat(depth)
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let p = parse_program(&nested_whiles(MAX_PROGRAM_DEPTH)).unwrap();
        assert_eq!(p.loop_depth(), MAX_PROGRAM_DEPTH);
        assert_eq!(parse_program(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let src = nested_whiles(MAX_PROGRAM_DEPTH + 1);
        let err = parse_program(&src).unwrap_err();
        assert!(err.to_string().contains("nested deeper than 64"), "{err}");
        // The error points at the first loop past the cap.
        let first_past = "while true do {\n".len() * MAX_PROGRAM_DEPTH;
        assert_eq!(err.position(), first_past);
        // 100,000 open loops fail the same way instead of exhausting the
        // stack.
        let err = parse_program(&"while true do {".repeat(100_000)).unwrap_err();
        assert_eq!(err.position(), "while true do {".len() * MAX_PROGRAM_DEPTH);
    }

    #[test]
    fn bare_variable_selector() {
        let p = parse_program("foreach %r0 in Dscts(eps, a) do {\n  Click(%r0)\n}").unwrap();
        match &p.statements()[0] {
            Statement::ForeachSel(l) => match &l.body[0] {
                Statement::Click(sel) => assert_eq!(sel.base_var(), Some(SelVar(0))),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
