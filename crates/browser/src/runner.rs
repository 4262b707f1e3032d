//! Live program execution: the [`Stepper`] driven by the live page instead
//! of a recorded DOM trace.

use webrobot_lang::{Action, Statement};
use webrobot_semantics::{EvalError, Stepper};

use crate::browser::{Browser, BrowserError};

/// Result of running a program live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The actions actually performed, with **absolute XPath** selectors —
    /// the same form the paper's front-end records during demonstrations.
    pub actions: Vec<Action>,
    /// `true` iff execution stopped at the action cap rather than by
    /// program termination.
    pub truncated: bool,
}

/// Runs `program` against `browser`, performing every action for real.
///
/// This is the trace semantics' own machine, the [`Stepper`], fed the live
/// DOM after every action: loop guards (`valid(ρ, π)`) are answered by the
/// current page, so selector loops stop at the last matching element and
/// while loops stop when the click target disappears.
///
/// At most `max_actions` actions are performed (the paper caps ground-truth
/// recordings at 500).
///
/// # Errors
///
/// Returns [`BrowserError`] when an action cannot be replayed or when the
/// program references an unbound loop variable.
pub fn run_program(
    browser: &mut Browser,
    program: &[Statement],
    max_actions: usize,
) -> Result<RunOutcome, BrowserError> {
    run_observed(browser, program, max_actions, |_| {})
}

/// Like [`run_program`], but invokes `observe(browser)` right *before* each
/// action is performed — the hook the trace recorder uses to snapshot the
/// pre-action DOM.
pub(crate) fn run_observed<F>(
    browser: &mut Browser,
    program: &[Statement],
    max_actions: usize,
    mut observe: F,
) -> Result<RunOutcome, BrowserError>
where
    F: FnMut(&Browser),
{
    let mut stepper = Stepper::new(program, browser.input().clone());
    let mut actions = Vec::new();
    while let Some(action) = stepper.step(browser.dom()).map_err(open_program)? {
        // The cap comes before resolution: a capped run reports truncation
        // even when its next selector would not resolve.
        if actions.len() >= max_actions {
            return Ok(RunOutcome {
                actions,
                truncated: true,
            });
        }
        let absolute = browser.absolutize(action)?;
        observe(browser);
        browser.perform(&absolute)?;
        actions.push(absolute);
    }
    Ok(RunOutcome {
        actions,
        truncated: false,
    })
}

fn open_program(e: EvalError) -> BrowserError {
    let variable = match e {
        EvalError::UnboundSelVar(v) => v.to_string(),
        EvalError::UnboundVpVar(v) => v.to_string(),
    };
    BrowserError::OpenProgram { variable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::browser::Output;
    use crate::site::SiteBuilder;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;
    use webrobot_lang::parse_program;

    /// Two-page paginated listing: page 1 has two items and a next button,
    /// page 2 has one item and no next button.
    fn paginated_site() -> Arc<crate::site::Site> {
        let mut b = SiteBuilder::new();
        let p1 = b.add_page(
            "https://list.test/1",
            parse_html(
                "<html><div class='item'><h3>A</h3></div>\
                 <div class='item'><h3>B</h3></div>\
                 <span class='next' href='#p1'>next</span></html>",
            )
            .unwrap(),
        );
        assert_eq!(p1.index(), 0);
        let _p2 = b.add_page(
            "https://list.test/2",
            parse_html("<html><div class='item'><h3>C</h3></div></html>").unwrap(),
        );
        Arc::new(b.start_at(p1).finish())
    }

    #[test]
    fn nested_while_foreach_scrapes_all_pages() {
        let mut browser = Browser::new(paginated_site(), Value::Object(vec![]));
        let prog = parse_program(
            "while true do {\n\
               foreach %r0 in Dscts(eps, div[@class='item']) do {\n\
                 ScrapeText(%r0//h3[1])\n\
               }\n\
               Click(//span[@class='next'][1])\n\
             }",
        )
        .unwrap();
        let out = run_program(&mut browser, prog.statements(), 500).unwrap();
        assert!(!out.truncated);
        let texts: Vec<&str> = browser.outputs().iter().map(Output::payload).collect();
        assert_eq!(texts, ["A", "B", "C"]);
        // 3 scrapes + 1 pagination click.
        assert_eq!(out.actions.len(), 4);
    }

    #[test]
    fn recorded_actions_use_absolute_xpaths() {
        let mut browser = Browser::new(paginated_site(), Value::Object(vec![]));
        let prog = parse_program("ScrapeText(//div[@class='item'][2]//h3[1])").unwrap();
        let out = run_program(&mut browser, prog.statements(), 500).unwrap();
        assert_eq!(out.actions[0].to_string(), "ScrapeText(/div[2]/h3[1])");
    }

    #[test]
    fn action_cap_truncates() {
        let mut browser = Browser::new(paginated_site(), Value::Object(vec![]));
        let prog = parse_program(
            "foreach %r0 in Dscts(eps, div[@class='item']) do {\n  ScrapeText(%r0//h3[1])\n}",
        )
        .unwrap();
        let out = run_program(&mut browser, prog.statements(), 1).unwrap();
        assert!(out.truncated);
        assert_eq!(out.actions.len(), 1);
    }

    #[test]
    fn open_program_is_rejected() {
        let mut browser = Browser::new(paginated_site(), Value::Object(vec![]));
        let prog = parse_program("Click(%r3)").unwrap();
        let err = run_program(&mut browser, prog.statements(), 10).unwrap_err();
        assert!(matches!(err, BrowserError::OpenProgram { .. }));
    }
}
