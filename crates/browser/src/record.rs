//! Ground-truth trace recording (paper §7.1 setup).
//!
//! The paper instruments each ground-truth program so that it "records
//! every action it executes as well as all intermediate DOMs", converting
//! all selectors to absolute XPaths, capped at 500 actions. This module is
//! that instrumentation for the simulated browser.

use std::sync::Arc;

use webrobot_data::Value;
use webrobot_lang::Statement;
use webrobot_semantics::Trace;

use crate::browser::{Browser, BrowserError, Output};
use crate::runner::run_observed;
use crate::site::Site;

/// Limits applied while recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLimits {
    /// Maximum number of recorded actions (paper: 500).
    pub max_actions: usize,
}

impl Default for RecordLimits {
    fn default() -> RecordLimits {
        RecordLimits { max_actions: 500 }
    }
}

/// A recorded ground-truth demonstration.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The action trace `A_gt` and DOM trace `Π_gt` (one more DOM than
    /// actions), plus the input data.
    pub trace: Trace,
    /// Everything the ground-truth run scraped (used to judge end-to-end
    /// success of synthesized programs).
    pub outputs: Vec<Output>,
    /// `true` iff the recording hit the action cap before the program
    /// finished.
    pub truncated: bool,
}

/// Runs `ground_truth` on a fresh browser over `site`, recording the action
/// trace (absolute XPaths) and a DOM snapshot before every action, plus the
/// final DOM.
///
/// # Errors
///
/// Returns [`BrowserError`] when the ground-truth program itself fails to
/// replay — that is a benchmark-authoring bug, not a synthesizer failure.
pub fn record_demonstration(
    site: Arc<Site>,
    input: Value,
    ground_truth: &[Statement],
    limits: RecordLimits,
) -> Result<Recording, BrowserError> {
    let mut browser = Browser::new(site, input.clone());
    let mut doms = Vec::new();
    let outcome = run_observed(&mut browser, ground_truth, limits.max_actions, |pre| {
        doms.push(pre.snapshot())
    })?;
    doms.push(browser.snapshot());
    Ok(Recording {
        trace: Trace::from_parts(outcome.actions, doms, input),
        outputs: browser.outputs().to_vec(),
        truncated: outcome.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteBuilder;
    use webrobot_dom::parse_html;
    use webrobot_lang::parse_program;
    use webrobot_semantics::{generalizes, satisfies};

    fn listing_site() -> Arc<Site> {
        let mut b = SiteBuilder::new();
        let p = b.add_page(
            "https://list.test/",
            parse_html(
                "<html><div class='item'><h3>A</h3></div>\
                 <div class='item'><h3>B</h3></div>\
                 <div class='item'><h3>C</h3></div></html>",
            )
            .unwrap(),
        );
        Arc::new(b.start_at(p).finish())
    }

    #[test]
    fn recording_produces_aligned_traces() {
        let prog = parse_program(
            "foreach %r0 in Dscts(eps, div[@class='item']) do {\n  ScrapeText(%r0//h3[1])\n}",
        )
        .unwrap();
        let rec = record_demonstration(
            listing_site(),
            Value::Object(vec![]),
            prog.statements(),
            RecordLimits::default(),
        )
        .unwrap();
        assert_eq!(rec.trace.len(), 3);
        assert_eq!(rec.trace.doms().len(), 4);
        assert!(!rec.truncated);
        assert_eq!(rec.outputs.len(), 3);
        // Recorded selectors are absolute.
        assert_eq!(
            rec.trace.actions()[0].to_string(),
            "ScrapeText(/div[1]/h3[1])"
        );
    }

    #[test]
    fn ground_truth_satisfies_its_own_recording() {
        let prog = parse_program(
            "foreach %r0 in Dscts(eps, div[@class='item']) do {\n  ScrapeText(%r0//h3[1])\n}",
        )
        .unwrap();
        let rec = record_demonstration(
            listing_site(),
            Value::Object(vec![]),
            prog.statements(),
            RecordLimits::default(),
        )
        .unwrap();
        // The ground truth reproduces its own full trace...
        assert!(satisfies(prog.statements(), &rec.trace));
        // ...and on a strict prefix it also generalizes, predicting an
        // action *consistent* with the recorded next action (the program
        // uses class selectors, the recording uses absolute XPaths — they
        // denote the same node; the paper's per-test protocol).
        let prefix = rec.trace.prefix(2);
        let prediction = generalizes(prog.statements(), &prefix).expect("generalizes");
        assert_ne!(prediction, rec.trace.actions()[2]);
        assert!(webrobot_semantics::action_consistent(
            &prediction,
            &rec.trace.actions()[2],
            &rec.trace.doms()[2],
        ));
    }

    #[test]
    fn cap_truncates_recording() {
        let prog = parse_program(
            "foreach %r0 in Dscts(eps, div[@class='item']) do {\n  ScrapeText(%r0//h3[1])\n}",
        )
        .unwrap();
        let rec = record_demonstration(
            listing_site(),
            Value::Object(vec![]),
            prog.statements(),
            RecordLimits { max_actions: 2 },
        )
        .unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.trace.len(), 2);
    }
}
