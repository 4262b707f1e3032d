//! The live browser: performs actions with real side effects on a
//! simulated [`Site`].

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use webrobot_data::Value;
use webrobot_dom::{Dom, NodeId, Path};
use webrobot_lang::Action;

use crate::site::{PageId, Site};

/// One piece of output produced by a scraping action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Text scraped by `ScrapeText`.
    Text(String),
    /// Link scraped by `ScrapeLink`.
    Link(String),
    /// URL recorded by `ExtractURL`.
    Url(String),
    /// Resource fetched by `Download`.
    Download(String),
}

impl Output {
    /// The payload string regardless of kind.
    pub fn payload(&self) -> &str {
        match self {
            Output::Text(s) | Output::Link(s) | Output::Url(s) | Output::Download(s) => s,
        }
    }
}

/// Error produced when the browser cannot perform an action — the
/// replay-failure situations the paper attributes to its front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowserError {
    /// The action's selector denotes no node on the current page.
    SelectorNotFound {
        /// The failing action, rendered.
        action: String,
    },
    /// `GoBack` with an empty history.
    NoHistory,
    /// `EnterData` whose value path does not exist in the data source.
    MissingInput {
        /// The value path, rendered.
        path: String,
    },
    /// A `data-search` button without a matching registered form or input
    /// field (a site-authoring bug).
    BrokenForm {
        /// The form key.
        key: String,
    },
    /// The program references a loop variable that is not in scope.
    OpenProgram {
        /// The unbound variable, rendered.
        variable: String,
    },
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::SelectorNotFound { action } => {
                write!(f, "selector denotes no node on the current page: {action}")
            }
            BrowserError::NoHistory => write!(f, "cannot go back: history is empty"),
            BrowserError::MissingInput { path } => {
                write!(f, "value path {path} does not exist in the data source")
            }
            BrowserError::BrokenForm { key } => {
                write!(f, "search form '{key}' is not wired up on this site")
            }
            BrowserError::OpenProgram { variable } => {
                write!(f, "program references unbound loop variable {variable}")
            }
        }
    }
}

impl Error for BrowserError {}

/// A live browser session over a [`Site`].
///
/// The browser holds the current page's DOM, a history stack for `GoBack`,
/// and the list of scraped [`Output`]s. The DOM is copy-on-write: loading a
/// page shares the site's `Arc<Dom>`, and data entry copies it before the
/// first write ([`Arc::make_mut`]). The site always holds its own
/// reference, so neither a site page nor an earlier
/// [`snapshot`](Browser::snapshot) is ever written in place.
///
/// # Example
///
/// ```
/// # use webrobot_browser::{Browser, SiteBuilder};
/// # use webrobot_dom::parse_html;
/// # use webrobot_lang::{Action, Value};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SiteBuilder::new();
/// let home = b.add_page("https://x.test/", parse_html("<html><h3>hi</h3></html>")?);
/// let site = b.start_at(home).finish();
/// let mut browser = Browser::new(site.into(), Value::Object(vec![]));
/// browser.perform(&Action::ScrapeText("//h3[1]".parse()?))?;
/// assert_eq!(browser.outputs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Browser {
    site: Arc<Site>,
    input: Value,
    current: PageId,
    dom: Arc<Dom>,
    history: Vec<PageId>,
    outputs: Vec<Output>,
}

impl Browser {
    /// Opens a browser on the site's start page.
    pub fn new(site: Arc<Site>, input: Value) -> Browser {
        let current = site.start();
        let dom = Arc::clone(site.dom(current));
        Browser {
            site,
            input,
            current,
            dom,
            history: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The current page's live DOM (including any entered data).
    pub fn dom(&self) -> &Dom {
        &self.dom
    }

    /// A shareable snapshot of the current live DOM: a reference-count
    /// bump, not a copy. Until data entry writes to the page it is the
    /// site's own page DOM, so every session on the site shares it (and
    /// its resolution cache); later writes copy first and never reach a
    /// snapshot already taken.
    pub fn snapshot(&self) -> Arc<Dom> {
        Arc::clone(&self.dom)
    }

    /// The current page's URL.
    pub fn url(&self) -> &str {
        self.site.url(self.current)
    }

    /// The current page id.
    pub fn page(&self) -> PageId {
        self.current
    }

    /// The data source this browser session was opened with.
    pub fn input(&self) -> &Value {
        &self.input
    }

    /// Everything scraped so far.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Navigates to `page`, pushing the current page onto the history.
    pub fn navigate(&mut self, page: PageId) {
        self.history.push(self.current);
        self.load(page);
    }

    fn load(&mut self, page: PageId) {
        self.current = page;
        self.dom = Arc::clone(self.site.dom(page));
    }

    fn resolve(&self, path: &Path, action: &Action) -> Result<NodeId, BrowserError> {
        path.resolve(&self.dom)
            .ok_or_else(|| BrowserError::SelectorNotFound {
                action: action.to_string(),
            })
    }

    /// Performs one action with its real side effects.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError`] when the action cannot be replayed (missing
    /// node, empty history, bad value path, broken form).
    pub fn perform(&mut self, action: &Action) -> Result<(), BrowserError> {
        match action {
            Action::Click(p) => {
                let node = self.resolve(p, action)?;
                self.click(node)
            }
            Action::ScrapeText(p) => {
                let node = self.resolve(p, action)?;
                self.outputs.push(Output::Text(self.dom.text_content(node)));
                Ok(())
            }
            Action::ScrapeLink(p) => {
                let node = self.resolve(p, action)?;
                let link = self.dom.attr(node, "href").unwrap_or_default().to_string();
                self.outputs.push(Output::Link(link));
                Ok(())
            }
            Action::Download(p) => {
                let node = self.resolve(p, action)?;
                let target = self
                    .dom
                    .attr(node, "href")
                    .or_else(|| self.dom.attr(node, "data-file"))
                    .unwrap_or_default()
                    .to_string();
                self.outputs.push(Output::Download(target));
                Ok(())
            }
            Action::GoBack => match self.history.pop() {
                Some(page) => {
                    self.load(page);
                    Ok(())
                }
                None => Err(BrowserError::NoHistory),
            },
            Action::ExtractUrl => {
                self.outputs.push(Output::Url(self.url().to_string()));
                Ok(())
            }
            Action::SendKeys(p, text) => {
                let node = self.resolve(p, action)?;
                Arc::make_mut(&mut self.dom).set_attr(node, "value", text.clone());
                Ok(())
            }
            Action::EnterData(p, vpath) => {
                let node = self.resolve(p, action)?;
                let value = self
                    .input
                    .get(vpath)
                    .ok_or_else(|| BrowserError::MissingInput {
                        path: vpath.to_string(),
                    })?;
                let rendered = value.render();
                Arc::make_mut(&mut self.dom).set_attr(node, "value", rendered);
                Ok(())
            }
        }
    }

    /// Click dispatch: `href="#pN"` navigates, `data-search` submits the
    /// matching form, anything else is a no-op click.
    fn click(&mut self, node: NodeId) -> Result<(), BrowserError> {
        if let Some(href) = self.dom.attr(node, "href") {
            if let Some(page) = parse_internal_href(href) {
                if page < self.site.page_count() {
                    self.navigate(PageId(page));
                }
                return Ok(());
            }
            return Ok(()); // external link: no-op in the simulator
        }
        if let Some(key) = self.dom.attr(node, "data-search").map(str::to_string) {
            let form = self
                .site
                .searches
                .get(&key)
                .cloned()
                .ok_or_else(|| BrowserError::BrokenForm { key: key.clone() })?;
            // Read what was entered into the form's input field.
            let field = self
                .dom
                .all_nodes()
                .into_iter()
                .find(|&n| self.dom.attr(n, "data-field") == Some(key.as_str()))
                .ok_or(BrowserError::BrokenForm { key })?;
            let query = self.dom.attr(field, "value").unwrap_or_default();
            let target = form.results.get(query).copied().unwrap_or(form.miss);
            self.navigate(target);
            return Ok(());
        }
        Ok(())
    }
}

fn parse_internal_href(href: &str) -> Option<usize> {
    href.strip_prefix("#p")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteBuilder;
    use webrobot_data::{PathSeg, ValuePath};
    use webrobot_dom::parse_html;

    fn search_site() -> Arc<Site> {
        let mut b = SiteBuilder::new();
        let home = b.add_page(
            "https://stores.test/",
            parse_html(
                "<html><input data-field='q' value=''/>\
                 <button data-search='q'>GO</button></html>",
            )
            .unwrap(),
        );
        let hits = b.add_page(
            "https://stores.test/?q=48105",
            parse_html("<html><h3>Store A</h3><a href='#p0'>home</a></html>").unwrap(),
        );
        let miss = b.add_page(
            "https://stores.test/none",
            parse_html("<html><h3>No results</h3></html>").unwrap(),
        );
        b.add_search("q", [("48105".to_string(), hits)], miss);
        Arc::new(b.start_at(home).finish())
    }

    fn zips_input() -> Value {
        Value::object([("zips".to_string(), Value::str_array(["48105"]))])
    }

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    #[test]
    fn enter_data_mutates_live_dom() {
        let mut browser = Browser::new(search_site(), zips_input());
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(1)]);
        browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap();
        let input = browser.dom().all_nodes()[1];
        assert_eq!(browser.dom().attr(input, "value"), Some("48105"));
    }

    #[test]
    fn search_routes_on_entered_value() {
        let mut browser = Browser::new(search_site(), zips_input());
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(1)]);
        browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap();
        browser.perform(&Action::Click(p("//button[1]"))).unwrap();
        assert_eq!(browser.url(), "https://stores.test/?q=48105");
    }

    #[test]
    fn search_with_unknown_query_hits_miss_page() {
        let mut browser = Browser::new(search_site(), zips_input());
        browser
            .perform(&Action::SendKeys(p("//input[1]"), "99999".into()))
            .unwrap();
        browser.perform(&Action::Click(p("//button[1]"))).unwrap();
        assert_eq!(browser.url(), "https://stores.test/none");
    }

    #[test]
    fn click_href_navigates_and_goback_returns() {
        let mut browser = Browser::new(search_site(), zips_input());
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(1)]);
        browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap();
        browser.perform(&Action::Click(p("//button[1]"))).unwrap();
        browser.perform(&Action::Click(p("//a[1]"))).unwrap();
        assert_eq!(browser.url(), "https://stores.test/");
        browser.perform(&Action::GoBack).unwrap();
        assert_eq!(browser.url(), "https://stores.test/?q=48105");
    }

    #[test]
    fn goback_on_fresh_session_fails() {
        let mut browser = Browser::new(search_site(), zips_input());
        assert_eq!(
            browser.perform(&Action::GoBack),
            Err(BrowserError::NoHistory)
        );
    }

    #[test]
    fn scrapes_collect_outputs() {
        let mut browser = Browser::new(search_site(), zips_input());
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(1)]);
        browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap();
        browser.perform(&Action::Click(p("//button[1]"))).unwrap();
        browser.perform(&Action::ScrapeText(p("//h3[1]"))).unwrap();
        browser.perform(&Action::ScrapeLink(p("//a[1]"))).unwrap();
        browser.perform(&Action::ExtractUrl).unwrap();
        assert_eq!(
            browser.outputs(),
            &[
                Output::Text("Store A".into()),
                Output::Link("#p0".into()),
                Output::Url("https://stores.test/?q=48105".into()),
            ]
        );
    }

    #[test]
    fn missing_selector_is_a_replay_error() {
        let mut browser = Browser::new(search_site(), zips_input());
        let err = browser.perform(&Action::Click(p("//div[7]"))).unwrap_err();
        assert!(matches!(err, BrowserError::SelectorNotFound { .. }));
    }

    #[test]
    fn entering_missing_data_fails() {
        let mut browser = Browser::new(search_site(), zips_input());
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(9)]);
        let err = browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap_err();
        assert!(matches!(err, BrowserError::MissingInput { .. }));
    }

    fn field_value(dom: &Dom) -> Option<&str> {
        dom.attr(dom.all_nodes()[1], "value")
    }

    #[test]
    fn data_entry_never_writes_a_shared_dom() {
        let site = search_site();
        let home = site.start();
        let mut browser = Browser::new(site.clone(), zips_input());
        let before = browser.snapshot();
        browser
            .perform(&Action::SendKeys(p("//input[1]"), "tmp".into()))
            .unwrap();
        assert_eq!(field_value(browser.dom()), Some("tmp"));
        let typed = browser.snapshot();
        let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(1)]);
        browser
            .perform(&Action::EnterData(p("//input[1]"), path))
            .unwrap();
        assert_eq!(field_value(browser.dom()), Some("48105"));
        // Earlier snapshots keep what they showed when they were taken.
        assert_eq!(field_value(&before), Some(""));
        assert_eq!(field_value(&typed), Some("tmp"));
        // The site's page is untouched, so a second session starts empty.
        assert_eq!(field_value(site.dom(home)), Some(""));
        let other = Browser::new(site.clone(), zips_input());
        assert_eq!(field_value(other.dom()), Some(""));
    }

    #[test]
    fn reads_and_navigation_share_the_site_pages() {
        let site = search_site();
        let mut browser = Browser::new(site.clone(), zips_input());
        assert!(Arc::ptr_eq(&browser.snapshot(), site.dom(browser.page())));
        browser
            .perform(&Action::SendKeys(p("//input[1]"), "48105".into()))
            .unwrap();
        assert!(!Arc::ptr_eq(&browser.snapshot(), site.dom(browser.page())));
        browser.perform(&Action::Click(p("//button[1]"))).unwrap();
        assert!(Arc::ptr_eq(&browser.snapshot(), site.dom(browser.page())));
        browser.perform(&Action::ScrapeText(p("//h3[1]"))).unwrap();
        browser.perform(&Action::ExtractUrl).unwrap();
        assert!(Arc::ptr_eq(&browser.snapshot(), site.dom(browser.page())));
        browser.perform(&Action::GoBack).unwrap();
        assert!(Arc::ptr_eq(&browser.snapshot(), site.dom(site.start())));
    }

    #[test]
    fn navigation_resets_entered_values() {
        let mut browser = Browser::new(search_site(), zips_input());
        browser
            .perform(&Action::SendKeys(p("//input[1]"), "tmp".into()))
            .unwrap();
        browser.perform(&Action::Click(p("//button[1]"))).unwrap(); // miss page
        browser.perform(&Action::GoBack).unwrap();
        let input = browser.dom().all_nodes()[1];
        assert_eq!(browser.dom().attr(input, "value"), Some(""));
    }
}
