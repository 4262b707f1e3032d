//! Seeded procedural benchmark generation: an unbounded complement to the
//! paper's fixed 76-benchmark suite.
//!
//! Each [`GenFamily`] is a deterministic function `u64 seed -> Benchmark`
//! producing task shapes the hand-written suite does not cover (DiLogics'
//! conditional/irregular task logic, WALT's recurring-program scenario):
//!
//! * [`GenFamily::Conditional`] — a ledger where *flagged* rows get one
//!   extra scrape. The intended automation is an `if` the DSL cannot
//!   express, so the ground truth is the straight-line demonstration and
//!   `expect_intended` is `false` (like the paper's designed failures).
//! * [`GenFamily::Ragged`] — sections with jittered row counts, including
//!   empty sections: the nested-loop shape with maximally irregular inner
//!   cardinality.
//! * [`GenFamily::Noisy`] — a listing whose target items are interleaved
//!   with noise blocks at seeded irregular positions, and whose items vary
//!   internally (decoration before/after the payload) — absolute child
//!   indices are useless, class predicates plus descendant selectors are
//!   required.
//! * [`GenFamily::Mixed`] — entry + extraction + pagination with jittered
//!   page and hit counts per query (no two queries paginate alike).
//! * [`GenFamily::Macro`] — a WALT-style recurring macro: the ground-truth
//!   program text is **byte-identical across all seeds**, while the site
//!   chrome around the card list varies. Distinct sites, one reusable
//!   program — the shape that exercises cross-item speculation reuse and
//!   multi-tenant sharing.
//!
//! Seeding: a family's constructor derives every random draw from a single
//! [`Faker`] seeded with `seed ^ FAMILY_SALT`, so the same `(family, seed)`
//! pair yields a byte-identical benchmark in any process (see
//! [`canonical_spec`]). Generated benchmarks use ids `9001..=9005` (one per
//! family; the seed distinguishes instances) — well clear of the paper's
//! `1..=76`.

use std::sync::Arc;

use webrobot_browser::{PageId, Site, SiteBuilder};
use webrobot_data::Value;
use webrobot_dom::{Dom, NodeId};
use webrobot_lang::{parse_program, Program};

use crate::fakedata::Faker;
use crate::sites::{item_block, next_button, page, searchbar};
use crate::spec::{Benchmark, Family, Features};

/// A procedurally generated benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenFamily {
    /// Flagged rows get an extra scrape (conditional logic, designed fail).
    Conditional,
    /// Sections with jittered (possibly zero) row counts.
    Ragged,
    /// Target items interleaved with structural noise.
    Noisy,
    /// Search + pagination with per-query jittered shapes.
    Mixed,
    /// One recurring ground-truth program across seed-distinct sites.
    Macro,
}

impl GenFamily {
    /// All families, in id order.
    pub const ALL: [GenFamily; 5] = [
        GenFamily::Conditional,
        GenFamily::Ragged,
        GenFamily::Noisy,
        GenFamily::Mixed,
        GenFamily::Macro,
    ];

    /// Stable short name (used in harness labels and bench row ids).
    pub fn key(self) -> &'static str {
        match self {
            GenFamily::Conditional => "conditional",
            GenFamily::Ragged => "ragged",
            GenFamily::Noisy => "noisy",
            GenFamily::Mixed => "mixed",
            GenFamily::Macro => "macro",
        }
    }

    /// Parses a [`key`](GenFamily::key) back into a family.
    pub fn from_key(key: &str) -> Option<GenFamily> {
        GenFamily::ALL.into_iter().find(|f| f.key() == key)
    }

    /// Benchmark id for this family (`9001..=9005`; shared by all seeds).
    pub fn id(self) -> u32 {
        9001 + GenFamily::ALL.iter().position(|&f| f == self).unwrap() as u32
    }

    fn salt(self) -> u64 {
        // Distinct salts keep the families' draw streams independent even
        // when built from the same user seed.
        0xD06E_5EED_0000_0000 | self.id() as u64
    }
}

fn parse(src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("generated ground-truth parse error: {e}\n{src}"))
}

fn feat(entry: bool, navigation: bool, pagination: bool) -> Features {
    Features {
        extraction: true,
        entry,
        navigation,
        pagination,
    }
}

/// Builds the `family` benchmark for `seed`.
///
/// Construction is deterministic and infallible: the same pair always
/// yields a byte-identical benchmark (site, input, ground truth — see
/// [`canonical_spec`]), and every generated ground truth replays on its own
/// site (a unit test enforces this for a seed sample).
pub fn generated(family: GenFamily, seed: u64) -> Benchmark {
    let mut faker = Faker::new(seed ^ family.salt());
    let (name, site, input, gt, features, expect_intended, no_alt) = match family {
        GenFamily::Conditional => conditional(seed, &mut faker),
        GenFamily::Ragged => ragged(seed, &mut faker),
        GenFamily::Noisy => noisy(seed, &mut faker),
        GenFamily::Mixed => mixed(seed, &mut faker),
        GenFamily::Macro => macro_catalog(seed, &mut faker),
    };
    Benchmark {
        id: family.id(),
        name,
        family: Family::Generated(family),
        site,
        input,
        ground_truth: gt,
        features,
        expect_intended,
        frontend_quirk: None,
        no_alternative_selectors: no_alt,
    }
}

/// All five families over each seed in `seeds`, family-major.
pub fn generated_suite(seeds: &[u64]) -> Vec<Benchmark> {
    GenFamily::ALL
        .iter()
        .flat_map(|&f| seeds.iter().map(move |&s| generated(f, s)))
        .collect()
}

type FamilyParts = (
    &'static str,
    Arc<Site>,
    Value,
    Program,
    Features,
    bool,
    bool,
);

/// DiLogics-style conditional task: every transaction row is scraped, but
/// only *flagged* rows (irregular, seeded) get their note scraped too. The
/// DSL has no `if`, so the ground truth is straight-line and the benchmark
/// is expected to fail synthesis of an intended loop — the differential
/// harness still requires all variants to agree on it.
fn conditional(seed: u64, faker: &mut Faker) -> FamilyParts {
    let rows = faker.count(6, 10);
    let mut flags: Vec<bool> = (0..rows).map(|_| faker.count(0, 9) < 4).collect();
    // Both kinds must occur or the task degenerates.
    flags[0] = true;
    flags[1] = false;
    let mut body = String::new();
    let mut stmts = Vec::new();
    for (i, &flagged) in flags.iter().enumerate() {
        body.push_str("<div class='txn'>");
        body.push_str(&format!("<h3>{}</h3>", faker.product()));
        if flagged {
            body.push_str(&format!("<em class='note'>{}</em>", faker.keyword()));
        }
        body.push_str("</div>");
        stmts.push(format!("ScrapeText(/body[1]/div[{}]/h3[1])", i + 1));
        if flagged {
            stmts.push(format!("ScrapeText(/body[1]/div[{}]/em[1])", i + 1));
        }
    }
    let mut b = SiteBuilder::new();
    let home = b.add_page(format!("https://gen-conditional{seed}.test/"), page(&body));
    let site = Arc::new(b.start_at(home).finish());
    (
        "generated: conditionally noted ledger",
        site,
        Value::Object(vec![]),
        parse(&stmts.join("\n")),
        feat(false, false, false),
        false,
        false,
    )
}

/// Ragged nesting: sections whose row counts jitter from zero up — the
/// doubly-nested loop must tolerate empty inner collections.
fn ragged(seed: u64, faker: &mut Faker) -> FamilyParts {
    let sections = faker.count(3, 5);
    let mut counts: Vec<usize> = (0..sections).map(|_| faker.count(0, 4)).collect();
    // Force genuine raggedness: at least one empty section, and enough
    // total rows for the trace to have substance.
    counts[1] = 0;
    if counts.iter().sum::<usize>() < 4 {
        counts[0] = 4;
    }
    let mut body = String::new();
    for &rows in &counts {
        body.push_str(&format!("<section><h2>{}</h2>", faker.city()));
        for _ in 0..rows {
            body.push_str(&format!("<li>{}</li>", faker.person()));
        }
        body.push_str("</section>");
    }
    let mut b = SiteBuilder::new();
    let home = b.add_page(format!("https://gen-ragged{seed}.test/"), page(&body));
    let site = Arc::new(b.start_at(home).finish());
    let gt = parse(
        "foreach %r0 in Dscts(eps, section) do {\n\
           ScrapeText(%r0/h2[1])\n\
           foreach %r1 in Children(%r0, li) do {\n\
             ScrapeText(%r1)\n\
           }\n\
         }",
    );
    (
        "generated: ragged sections",
        site,
        Value::Object(vec![]),
        gt,
        feat(false, false, false),
        true,
        true,
    )
}

/// Semantically-varying list structure: target items sit between seeded
/// noise blocks, and the payload's position inside each item varies.
fn noisy(seed: u64, faker: &mut Faker) -> FamilyParts {
    let items = faker.count(6, 10);
    let mut body = String::new();
    let noise = |faker: &mut Faker, body: &mut String| match faker.count(0, 2) {
        0 => body.push_str(&format!("<aside>{}</aside>", faker.keyword())),
        1 => body.push_str("<div class='ad'><h3>buy now</h3></div>"),
        _ => body.push_str(&format!("<p>{}</p>", faker.city())),
    };
    for i in 0..items {
        if faker.count(0, 1) == 1 {
            noise(faker, &mut body);
        }
        body.push_str("<div class='item'>");
        let badge_first = faker.count(0, 9) < 4;
        if badge_first {
            body.push_str(&format!("<span class='badge'>{}</span>", faker.keyword()));
        }
        body.push_str(&format!("<h3>{}</h3>", faker.product()));
        if !badge_first && i.is_multiple_of(2) {
            body.push_str(&format!("<span class='meta'>{}</span>", faker.city()));
        }
        body.push_str("</div>");
    }
    noise(faker, &mut body);
    let mut b = SiteBuilder::new();
    let home = b.add_page(format!("https://gen-noisy{seed}.test/"), page(&body));
    let site = Arc::new(b.start_at(home).finish());
    let gt = parse(
        "foreach %r0 in Dscts(eps, div[@class='item']) do {\n\
           ScrapeText(%r0//h3[1])\n\
         }",
    );
    (
        "generated: noisy listing",
        site,
        Value::Object(vec![]),
        gt,
        feat(false, false, false),
        true,
        false,
    )
}

/// Entry + extraction + pagination with per-query jitter: each query routes
/// to its own run of result pages (1–2 pages, 2–4 hits each), so no two
/// queries paginate alike.
fn mixed(seed: u64, faker: &mut Faker) -> FamilyParts {
    let queries = 2;
    let words: Vec<String> = (0..queries)
        .map(|i| format!("{}-{i}", faker.keyword()))
        .collect();
    let bar = searchbar("q");
    let mut b = SiteBuilder::new();
    let home = b.add_page(format!("https://gen-mixed{seed}.test/"), page(&bar));
    let mut routes = Vec::new();
    let mut next_id = 1usize;
    for word in &words {
        let pages = faker.count(1, 2);
        routes.push((word.clone(), PageId::from_index(next_id)));
        for pi in 0..pages {
            let hits = faker.count(2, 4);
            let mut items = String::from("<div class='header'>hits</div>");
            for _ in 0..hits {
                items.push_str(&item_block(
                    "hit",
                    &[
                        ("h3", None, faker.product()),
                        ("span", Some("ref"), faker.zip()),
                    ],
                ));
            }
            let tail = if pi + 1 < pages {
                next_button(next_id + 1)
            } else {
                String::new()
            };
            b.add_page(
                format!("https://gen-mixed{seed}.test/?q={word}&page={}", pi + 1),
                page(&format!("{bar}<div class='results'>{items}{tail}</div>")),
            );
            next_id += 1;
        }
    }
    let miss = b.add_page(
        format!("https://gen-mixed{seed}.test/none"),
        page(&format!(
            "{bar}<div class='results'><div class='header'>none</div></div>"
        )),
    );
    b.add_search("q", routes, miss);
    let site = Arc::new(b.start_at(home).finish());
    let input = Value::object([("terms".to_string(), Value::str_array(words))]);
    let gt = parse(
        "foreach %v0 in ValuePaths(x[terms]) do {\n\
           EnterData(//input[@name='search'][1], %v0)\n\
           Click(//button[@class='go'][1])\n\
           while true do {\n\
             foreach %r1 in Dscts(eps, div[@class='hit']) do {\n\
               ScrapeText(%r1//h3[1])\n\
             }\n\
             Click(//button[@class='next'][1])\n\
           }\n\
         }",
    );
    (
        "generated: jittered search results",
        site,
        input,
        gt,
        feat(true, true, true),
        true,
        false,
    )
}

/// The ground-truth program every [`GenFamily::Macro`] benchmark shares,
/// byte for byte — the "recurring macro" asset.
pub const MACRO_PROGRAM: &str = "foreach %r0 in Dscts(eps, div[@class='card']) do {\n\
       ScrapeText(%r0//h3[1])\n\
       ScrapeText(%r0//div[@class='tag'][1])\n\
     }";

/// WALT-style recurring macro: seed-varying chrome around an invariant
/// card-list shape, scraped by the one shared [`MACRO_PROGRAM`].
fn macro_catalog(seed: u64, faker: &mut Faker) -> FamilyParts {
    let mut body = String::new();
    let chrome = |faker: &mut Faker, body: &mut String| match faker.count(0, 2) {
        0 => body.push_str(&format!(
            "<div class='banner'><span>{}</span></div>",
            faker.city()
        )),
        1 => body.push_str(&format!("<nav><b>{}</b></nav>", faker.keyword())),
        _ => body.push_str(&format!("<header><h1>{}</h1></header>", faker.product())),
    };
    for _ in 0..faker.count(1, 3) {
        chrome(faker, &mut body);
    }
    body.push_str("<div class='cardlist'>");
    for _ in 0..faker.count(4, 7) {
        body.push_str(&item_block(
            "card",
            &[
                ("h3", None, faker.product()),
                ("div", Some("tag"), faker.keyword()),
            ],
        ));
    }
    body.push_str("</div>");
    if faker.count(0, 1) == 1 {
        chrome(faker, &mut body);
    }
    let mut b = SiteBuilder::new();
    let home = b.add_page(format!("https://gen-macro{seed}.test/"), page(&body));
    let site = Arc::new(b.start_at(home).finish());
    (
        "generated: recurring card macro",
        site,
        Value::Object(vec![]),
        parse(MACRO_PROGRAM),
        feat(false, false, false),
        true,
        false,
    )
}

/// Canonical textual rendering of a benchmark: id, metadata, input, ground
/// truth and every page (URL plus a full DOM rendering in document order).
/// Two benchmarks are byte-identical exactly when their canonical specs
/// are — the determinism property the generator proptests pin down.
pub fn canonical_spec(b: &Benchmark) -> String {
    let mut out = format!(
        "id={} name={:?} family={:?} features={:?} expect_intended={} no_alt={}\n",
        b.id, b.name, b.family, b.features, b.expect_intended, b.no_alternative_selectors
    );
    out.push_str(&format!("input={:?}\n", b.input));
    out.push_str(&format!("gt={}\n", b.ground_truth));
    for p in 0..b.site.page_count() {
        let pid = PageId::from_index(p);
        out.push_str(&format!("page {p} url={}\n", b.site.url(pid)));
        render_node(b.site.dom(pid), NodeId::ROOT, 0, &mut out);
    }
    out
}

fn render_node(dom: &Dom, node: NodeId, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push('<');
    out.push_str(dom.tag(node));
    for (k, v) in dom.attrs(node) {
        out.push_str(&format!(" {k}={v:?}"));
    }
    out.push('>');
    if !dom.text(node).is_empty() {
        out.push_str(&format!("{:?}", dom.text(node)));
    }
    out.push('\n');
    for &c in dom.children(node) {
        render_node(dom, c, depth + 1, out);
    }
}

/// Structural fingerprint of a benchmark: a hash of its canonical spec.
/// Same `(family, seed)` ⇒ same fingerprint across processes (the renderer
/// uses no address- or hash-order-dependent state); distinct seeds ⇒
/// distinct fingerprints (every page URL embeds the seed).
pub fn fingerprint(b: &Benchmark) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    canonical_spec(b).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_semantics::satisfies;

    const SEEDS: [u64; 4] = [1, 7, 42, 9001];

    #[test]
    fn every_generated_ground_truth_replays() {
        for b in generated_suite(&SEEDS) {
            let rec = b
                .record()
                .unwrap_or_else(|e| panic!("{}/{:?} failed to record: {e}", b.id, b.family));
            assert!(rec.trace.len() >= 2, "{:?} trace too short", b.family);
            assert!(!rec.truncated, "{:?} hit the action cap", b.family);
            assert!(
                satisfies(b.ground_truth.statements(), &rec.trace),
                "{:?} ground truth must satisfy its own recording",
                b.family
            );
        }
    }

    #[test]
    fn construction_is_deterministic() {
        for &f in &GenFamily::ALL {
            let a = generated(f, 42);
            let b = generated(f, 42);
            assert_eq!(canonical_spec(&a), canonical_spec(&b));
            assert_eq!(fingerprint(&a), fingerprint(&b));
        }
    }

    #[test]
    fn seeds_and_families_are_distinguished() {
        let mut prints = std::collections::HashSet::new();
        for b in generated_suite(&SEEDS) {
            assert!(
                prints.insert(fingerprint(&b)),
                "fingerprint collision on {:?}",
                b.family
            );
        }
        assert_eq!(prints.len(), GenFamily::ALL.len() * SEEDS.len());
    }

    #[test]
    fn macro_program_recurs_across_seeds() {
        let texts: Vec<String> = SEEDS
            .iter()
            .map(|&s| generated(GenFamily::Macro, s).ground_truth.to_string())
            .collect();
        assert!(texts.windows(2).all(|w| w[0] == w[1]));
        let sites: Vec<u64> = SEEDS
            .iter()
            .map(|&s| {
                generated(GenFamily::Macro, s)
                    .site
                    .dom(PageId::from_index(0))
                    .structure_hash()
            })
            .collect();
        assert!(
            sites.windows(2).any(|w| w[0] != w[1]),
            "macro sites must differ structurally across seeds"
        );
    }

    #[test]
    fn family_keys_round_trip() {
        for &f in &GenFamily::ALL {
            assert_eq!(GenFamily::from_key(f.key()), Some(f));
        }
        assert_eq!(GenFamily::from_key("nope"), None);
    }

    #[test]
    fn conditional_has_both_row_kinds() {
        for &s in &SEEDS {
            let b = generated(GenFamily::Conditional, s);
            let spec = canonical_spec(&b);
            assert!(spec.contains("class=\"note\""), "flagged row present");
            assert!(!b.expect_intended);
        }
    }

    #[test]
    fn ragged_has_an_empty_section() {
        for &s in &SEEDS {
            let b = generated(GenFamily::Ragged, s);
            let dom = b.site.dom(PageId::from_index(0));
            let empty = dom
                .all_nodes()
                .into_iter()
                .filter(|&n| dom.tag(n) == "section")
                .any(|n| dom.children(n).len() == 1);
            assert!(empty, "seed {s} must produce an empty section");
        }
    }
}
