//! Differential test for the per-DOM resolution cache: cached
//! [`Path::resolve`]/[`Path::valid`] must equal the uncached walk on
//! randomized DOMs, across mutations (cache invalidation) and across
//! clones (per-DOM caches are independent).

use proptest::collection::vec;
use proptest::prelude::*;
use webrobot_dom::{resolve_counters, Axis, Dom, NodeId, Path, Pred, Step};

const TAGS: [&str; 4] = ["div", "span", "a", "h3"];

/// Builds a random DOM from `(parent pick, tag pick, decorate)` triples:
/// each triple appends one node under an already-existing node, with a
/// class attribute and text on some of them.
fn build_dom(ops: &[(u8, u8, bool)]) -> Dom {
    let mut dom = Dom::new("html");
    let mut nodes = vec![NodeId::ROOT];
    for &(parent, tag, decorate) in ops {
        let parent = nodes[parent as usize % nodes.len()];
        let id = dom.append(parent, TAGS[tag as usize % TAGS.len()]);
        if decorate {
            dom.set_attr(id, "class", "item");
            dom.set_text(id, "x");
        }
        nodes.push(id);
    }
    dom
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (any::<bool>(), 0u8..4, any::<bool>(), 1usize..4).prop_map(
        |(descendant, tag, classed, index)| {
            let tag = TAGS[tag as usize];
            Step {
                axis: if descendant {
                    Axis::Descendant
                } else {
                    Axis::Child
                },
                pred: if classed {
                    Pred::with_attr(tag, "class", "item")
                } else {
                    Pred::tag(tag)
                },
                index,
            }
        },
    )
}

fn paths_strategy() -> impl Strategy<Value = Vec<Path>> {
    vec(vec(step_strategy(), 0..4).prop_map(Path::new), 1..12)
}

/// Asserts cached ≡ uncached for every path on `dom`, resolving each
/// path twice so both the miss-and-fill and the hit lane are exercised.
fn assert_cached_matches_uncached(dom: &Dom, paths: &[Path]) -> Result<(), TestCaseError> {
    for path in paths {
        let walked = path.resolve_uncached(dom);
        prop_assert_eq!(path.resolve(dom), walked, "first resolve of {}", path);
        prop_assert_eq!(path.resolve(dom), walked, "cached re-resolve of {}", path);
        prop_assert_eq!(path.valid(dom), walked.is_some(), "valid() of {}", path);
    }
    Ok(())
}

proptest! {
    /// Cached resolution equals the raw walk — before and after each of
    /// a series of mutations, so stale entries would be caught the
    /// moment an invalidation is missed.
    #[test]
    fn cached_resolution_equals_uncached_across_mutations(
        ops in vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..25),
        paths in paths_strategy(),
        mutations in vec((any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut dom = build_dom(&ops);
        assert_cached_matches_uncached(&dom, &paths)?;
        for &(kind, pick) in &mutations {
            let all = dom.all_nodes();
            let node = all[pick as usize % all.len()];
            match kind % 4 {
                0 => {
                    dom.append(node, TAGS[pick as usize % TAGS.len()]);
                }
                1 => dom.set_attr(node, "class", "item"),
                2 => dom.set_text(node, "mutated"),
                _ => dom.detach(node),
            }
            assert_cached_matches_uncached(&dom, &paths)?;
        }
    }

    /// Cross-DOM independence: a clone starts with a cold cache, and
    /// mutating the clone never disturbs resolutions on the original
    /// (whose cache was already warm).
    #[test]
    fn clone_caches_are_independent(
        ops in vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..25),
        paths in paths_strategy(),
    ) {
        let original = build_dom(&ops);
        // Warm the original's cache.
        let warm: Vec<_> = paths.iter().map(|p| p.resolve(&original)).collect();
        let mut clone = original.clone();
        let target = *clone.all_nodes().last().unwrap();
        clone.append(target, "span");
        clone.set_attr(target, "class", "item");
        assert_cached_matches_uncached(&clone, &paths)?;
        // The original still answers exactly as before.
        for (path, cached) in paths.iter().zip(&warm) {
            prop_assert_eq!(path.resolve(&original), *cached);
            prop_assert_eq!(path.resolve_uncached(&original), *cached);
        }
    }
}

/// This thread's resolution counters since `base`.
fn counted_since(base: (u64, u64)) -> (u64, u64) {
    let (hits, misses) = resolve_counters();
    (hits - base.0, misses - base.1)
}

#[test]
fn repeat_resolution_hits_the_cache() {
    let mut dom = Dom::new("html");
    let body = dom.append(NodeId::ROOT, "body");
    for _ in 0..3 {
        dom.append(body, "div");
    }
    let path: Path = "/body[1]/div[2]".parse().unwrap();
    let base = resolve_counters();
    let first = path.resolve(&dom);
    let second = path.resolve(&dom);
    assert_eq!(first, second);
    assert!(first.is_some());
    // Counters are per-thread and monotonic: exactly one miss (the fill)
    // and one hit (the re-resolve), regardless of other threads.
    assert_eq!(counted_since(base), (1, 1));
    // Uncached walks and the empty path never touch the cache.
    path.resolve_uncached(&dom);
    Path::root().resolve(&dom);
    assert_eq!(counted_since(base), (1, 1));
    // Mutation invalidates the map; the next resolve is a miss again.
    dom.append(body, "div");
    path.resolve(&dom);
    assert_eq!(counted_since(base), (1, 2));
    // A clone starts cold: its first resolve misses even though the
    // original's cache is warm.
    let clone = dom.clone();
    path.resolve(&clone);
    path.resolve(&clone);
    assert_eq!(counted_since(base), (2, 3));
    // A DOM shared through an `Arc` shares its cache: a resolve on
    // another thread warms it for this one, and is counted there.
    let shared = std::sync::Arc::new(clone);
    let other = std::sync::Arc::clone(&shared);
    let elsewhere = std::thread::spawn(move || {
        let base = resolve_counters();
        "/body[1]/div[3]".parse::<Path>().unwrap().resolve(&other);
        counted_since(base)
    })
    .join()
    .unwrap();
    assert_eq!(elsewhere, (0, 1));
    assert_eq!(counted_since(base), (2, 3));
    "/body[1]/div[3]".parse::<Path>().unwrap().resolve(&shared);
    assert_eq!(counted_since(base), (3, 3));
}
