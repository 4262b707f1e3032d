//! Shared synthesis context: the trace plus memoized selector analyses and
//! the speculation memo tables.

use std::sync::Arc;
use std::sync::Mutex;

use webrobot_dom::{alternatives, AltConfig, Axis, FxHashMap, Path, PathId, PathInterner, PredId};
use webrobot_lang::{Statement, StatementInterner, StmtId, VarGen};
use webrobot_semantics::Trace;

use crate::antiunify::LoopSeed;
use crate::config::SynthConfig;

/// Memo key for [`anti_unify`](crate::anti_unify): the DOM indices the two
/// statements execute on plus the pair itself, **canonicalized and
/// interned** so alpha-variant pairs (the same rewrite reached through
/// different fresh variables) share one entry and the key hashes as four
/// machine words.
pub(crate) type AuKey = (usize, usize, StmtId, StmtId);

/// Memo key for one `(window, p)` speculation expansion (Alg. 2 inner
/// loop): the canonicalized window statements `S_i ·· S_j`, their
/// absolute slice starts in the trace, the in-window offset of the
/// anti-unified statement `S_p`, and the second-iteration counterpart
/// `S_q = S_{p+len}` (which sits *outside* the window) with its slice
/// start. Everything the expansion reads is a function of this key, the
/// append-only trace, and the fixed config — so sibling worklist items
/// whose windows coincide share one expansion. The window slices are
/// `Arc`s built once per `(i, j)` window: the `p` loop clones refcounts,
/// not allocations, and hashing/equality still go by slice content.
pub(crate) type SpecKey = (Arc<[StmtId]>, Arc<[usize]>, usize, StmtId, usize);

/// One cached speculation expansion: the rewrite statements one
/// `(window, p)` pair produced, each paired with its canonical id (so
/// replays dedup without re-canonicalizing). Statements are shared
/// `Arc`s — a replay clones refcounts, not trees.
pub(crate) type SpecBodies = Arc<Vec<(StmtId, Arc<Statement>)>>;

/// One way of writing an alternative selector as
/// `prefix · axis pred[index] · suffix` — the decomposition shape consumed
/// by anti-unification (Fig. 10 rule (4)) and parametrization (Fig. 11
/// rule (2)).
///
/// Paths and predicates are interned in the context's [`PathInterner`]:
/// the anti-unification hash-join compares decompositions by `Copy` ids
/// instead of re-hashing string-laden paths, and prefixes shared by many
/// alternatives are stored once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Decomp {
    pub prefix: PathId,
    pub axis: Axis,
    pub pred: PredId,
    pub suffix: PathId,
}

/// Mutable synthesis context: owns the growing [`Trace`], the fresh-variable
/// generator, and caches keyed by `(DOM index, recorded path)`.
///
/// The DOM trace is append-only, so cache entries stay valid as the
/// demonstration grows — this cache is a large part of what makes
/// incremental synthesis cheap.
#[derive(Debug)]
pub struct SynthContext {
    pub(crate) cfg: SynthConfig,
    pub(crate) trace: Trace,
    pub(crate) vargen: VarGen,
    /// Interner backing every path-keyed memo table and the [`Decomp`]
    /// ids. Append-only for the lifetime of the context, so `Copy` ids in
    /// long-lived cache entries never dangle.
    paths: PathInterner,
    /// Canonical-statement interner behind the same uncontended-mutex
    /// pattern as the validation cache: [`canon_id`](Self::canon_id)
    /// takes `&self` so read-only phases (validation) can intern too.
    stmts: Mutex<StatementInterner>,
    alt_cache: FxHashMap<(usize, PathId), Arc<Vec<Path>>>,
    decomp_cache: FxHashMap<(usize, PathId, usize), Arc<Vec<Decomp>>>,
    /// Anti-unification results per canonicalized statement pair. The same
    /// `(S_p, S_q)` pair is revisited by up to `max_window` enclosing
    /// windows (and again by every worklist item sharing the statements),
    /// so this table turns the inner loop of Alg. 2 into a lookup.
    antiunify_cache: FxHashMap<AuKey, Arc<Vec<LoopSeed>>>,
    /// Parametrization suffixes per `(DOM, recorded path, binding)`: the
    /// alternatives of the path that extend the binding, with the binding
    /// stripped. Variable-independent, so one entry serves every seed.
    suffix_cache: FxHashMap<(usize, PathId, PathId), Arc<Vec<Path>>>,
    /// Validation outcomes per `(canonicalized statement, start action,
    /// trace length)`: where the statement's simulated execution stops on
    /// `doms[start..len]` while staying consistent with the recorded
    /// actions (`None` = inconsistent somewhere). Execution is
    /// item-independent — only the boundary check of Alg. 3 is not — and
    /// sibling worklist items speculate the same rewrites over the same
    /// slices constantly, so this cache removes the dominant cost of the
    /// worklist loop. Interior-mutable because `validate` reads the
    /// context immutably; a `Mutex` rather than a `RefCell` so the whole
    /// context is `Send + Sync` (one synthesizer per shard thread — the
    /// lock is never contended, so it costs an uncontended atomic).
    validate_cache: Mutex<FxHashMap<(StmtId, usize, usize), Option<usize>>>,
    /// Speculation expansions per [`SpecKey`]: the raw rewrite bodies one
    /// `(window, p)` pair produced, before per-item dedup. Sibling
    /// worklist items routinely carry identical windows (they differ only
    /// in program prefix), so replaying the stored bodies skips the whole
    /// decompose → anti-unify → parametrize → cartesian pipeline. An
    /// expansion always runs whole (to the end or to the configured
    /// `max_bodies_per_seed` cap), so a replay equals a recomputation.
    spec_cache: FxHashMap<SpecKey, SpecBodies>,
}

impl SynthContext {
    /// Creates a context over `trace`.
    pub fn new(cfg: SynthConfig, trace: Trace) -> SynthContext {
        SynthContext {
            cfg,
            trace,
            vargen: VarGen::new(),
            paths: PathInterner::new(),
            stmts: Mutex::new(StatementInterner::new()),
            alt_cache: FxHashMap::default(),
            decomp_cache: FxHashMap::default(),
            antiunify_cache: FxHashMap::default(),
            suffix_cache: FxHashMap::default(),
            validate_cache: Mutex::new(FxHashMap::default()),
            spec_cache: FxHashMap::default(),
        }
    }

    /// The interner backing [`Decomp`] ids and the path-keyed memo keys.
    pub(crate) fn paths(&self) -> &PathInterner {
        &self.paths
    }

    /// Canonical interned id for `stmt`: alpha-variant statements map to
    /// the same id, so id-keyed memo tables share entries across variants
    /// exactly as the owned canonicalized keys did.
    pub(crate) fn canon_id(&self, stmt: &Statement) -> StmtId {
        lock(&self.stmts).intern_canonical(stmt)
    }

    /// [`canon_id`](Self::canon_id) for statements carrying fresh binders
    /// (speculative rewrites): skips the raw→canonical memo write, which
    /// could never hit again under the freshly-renamed spelling.
    pub(crate) fn canon_id_transient(&self, stmt: &Statement) -> StmtId {
        lock(&self.stmts).intern_canonical_transient(stmt)
    }

    /// The demonstration being generalized.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Appends one observed action to the trace.
    ///
    /// Validation outcomes are keyed on the trace length (a statement
    /// that stopped exactly at the old frontier may continue on the
    /// grown trace), so the old generation of entries can never hit
    /// again — drop them instead of letting dead keys exhaust the memo
    /// capacity over a long session.
    pub(crate) fn observe(
        &mut self,
        action: webrobot_lang::Action,
        dom: std::sync::Arc<webrobot_dom::Dom>,
    ) {
        self.trace.push(action, dom);
        lock(&self.validate_cache).clear();
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    fn alt_config(&self) -> AltConfig {
        AltConfig {
            max_alternatives: self.cfg.max_alternatives,
            ..AltConfig::default()
        }
    }

    /// Alternative selectors for `path` on DOM `dom_idx` of the trace.
    ///
    /// Honors the *No selector* ablation: with `alternative_selectors`
    /// disabled only the recorded path itself is returned.
    pub(crate) fn alternatives(&mut self, dom_idx: usize, path: &Path) -> Arc<Vec<Path>> {
        let key = (dom_idx, self.paths.path(path));
        if let Some(hit) = self.alt_cache.get(&key) {
            return hit.clone();
        }
        let alts = if self.cfg.alternative_selectors {
            alternatives(&self.trace.doms()[dom_idx], path, &self.alt_config())
        } else if path.valid(&self.trace.doms()[dom_idx]) {
            vec![path.clone()]
        } else {
            Vec::new()
        };
        let rc = Arc::new(alts);
        self.alt_cache.insert(key, rc.clone());
        rc
    }

    /// All decompositions `prefix · axis pred[want_index] · suffix` of the
    /// alternatives of `path` on DOM `dom_idx` whose pivot step has index
    /// `want_index` (1 for first-iteration statements, 2 for
    /// second-iteration statements).
    pub(crate) fn decomps(
        &mut self,
        dom_idx: usize,
        path: &Path,
        want_index: usize,
    ) -> Arc<Vec<Decomp>> {
        let key = (dom_idx, self.paths.path(path), want_index);
        if let Some(hit) = self.decomp_cache.get(&key) {
            return hit.clone();
        }
        let alts = self.alternatives(dom_idx, path);
        let mut out = Vec::new();
        for alt in alts.iter() {
            let steps = alt.steps();
            for (k, step) in steps.iter().enumerate() {
                if step.index != want_index {
                    continue;
                }
                out.push(Decomp {
                    prefix: self.paths.path(&alt.prefix(k)),
                    axis: step.axis,
                    pred: self.paths.pred(&step.pred),
                    suffix: self.paths.path(&Path::new(steps[k + 1..].to_vec())),
                });
            }
        }
        // Same order as sorting the materialized paths by step count:
        // `path_len` reads through the interner.
        out.sort_by_key(|d| (self.paths.path_len(d.prefix), self.paths.path_len(d.suffix)));
        out.dedup();
        let rc = Arc::new(out);
        self.decomp_cache.insert(key, rc.clone());
        rc
    }

    /// Cached anti-unification seeds for a canonicalized pair, or `None`
    /// on a miss (and always when memoization is disabled).
    pub(crate) fn antiunify_hit(&self, key: &AuKey) -> Option<Arc<Vec<LoopSeed>>> {
        if !self.cfg.memoization {
            return None;
        }
        self.antiunify_cache.get(key).cloned()
    }

    /// Stores freshly computed anti-unification seeds, respecting the
    /// memo capacity (full table ⇒ results are recomputed, never wrong).
    pub(crate) fn antiunify_store(&mut self, key: AuKey, seeds: Arc<Vec<LoopSeed>>) {
        if self.cfg.memoization && self.antiunify_cache.len() < self.cfg.memo_capacity {
            self.antiunify_cache.insert(key, seeds);
        }
    }

    /// The suffixes `s` such that some alternative of `path` (on DOM
    /// `dom_idx`) equals `binding · s` — the variable-independent core of
    /// parametrization rule (2) of Fig. 11, memoized per
    /// `(dom_idx, path, binding)`.
    pub(crate) fn strip_suffixes(
        &mut self,
        dom_idx: usize,
        path: &Path,
        binding: &Path,
    ) -> Arc<Vec<Path>> {
        if self.cfg.memoization {
            let key = (dom_idx, self.paths.path(path), self.paths.path(binding));
            if let Some(hit) = self.suffix_cache.get(&key) {
                return hit.clone();
            }
            let rc = Arc::new(self.compute_suffixes(dom_idx, path, binding));
            if self.suffix_cache.len() < self.cfg.memo_capacity {
                self.suffix_cache.insert(key, rc.clone());
            }
            rc
        } else {
            Arc::new(self.compute_suffixes(dom_idx, path, binding))
        }
    }

    /// The memo key for one validation execution: the statement's
    /// canonical id (alpha-variants execute identically — speculation
    /// already computed the id for its own dedup and carries it on the
    /// rewrite) plus the slice `start..m` it runs against. `m` matters: a
    /// statement that stopped exactly at the old frontier may continue on
    /// a grown trace.
    ///
    /// `None` when this execution should not go through the memo table —
    /// memoization disabled, or the slice so short that running it is
    /// cheaper than the bookkeeping.
    pub(crate) fn validation_key(
        &self,
        cid: StmtId,
        start: usize,
        m: usize,
    ) -> Option<(StmtId, usize, usize)> {
        if !self.cfg.memoization || m - start < 4 {
            return None;
        }
        Some((cid, start, m))
    }

    /// Cached execution stop index for a [`validation_key`](Self::validation_key).
    pub(crate) fn validation_hit(&self, key: &(StmtId, usize, usize)) -> Option<Option<usize>> {
        lock(&self.validate_cache).get(key).copied()
    }

    /// Stores one validation execution outcome, respecting the capacity.
    pub(crate) fn validation_store(&self, key: (StmtId, usize, usize), end: Option<usize>) {
        let mut cache = lock(&self.validate_cache);
        if cache.len() < self.cfg.memo_capacity {
            cache.insert(key, end);
        }
    }

    /// Cached speculation bodies for one `(window, p)` expansion — each
    /// paired with its canonical id so replays dedup without
    /// re-canonicalizing — or `None` on a miss (and always when
    /// memoization is disabled).
    pub(crate) fn speculation_hit(&self, key: &SpecKey) -> Option<SpecBodies> {
        if !self.cfg.memoization {
            return None;
        }
        self.spec_cache.get(key).cloned()
    }

    /// Stores the bodies of one speculation expansion, respecting the
    /// memo capacity.
    pub(crate) fn speculation_store(&mut self, key: SpecKey, bodies: SpecBodies) {
        if self.cfg.memoization && self.spec_cache.len() < self.cfg.memo_capacity {
            self.spec_cache.insert(key, bodies);
        }
    }

    fn compute_suffixes(&mut self, dom_idx: usize, path: &Path, binding: &Path) -> Vec<Path> {
        let mut out: Vec<Path> = self
            .alternatives(dom_idx, path)
            .iter()
            .filter_map(|alt| alt.strip_prefix(binding))
            .collect();
        out.dedup();
        out
    }
}

/// Locks the validation memo. The mutex only guards a cache, so a
/// poisoned lock (a panic while a guard was held) still protects a
/// perfectly usable map — recover it instead of propagating the poison.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::{parse_html, Pred};

    fn ctx(cfg: SynthConfig) -> SynthContext {
        let dom = Arc::new(
            parse_html(
                "<html><body><div class='nav'></div>\
                 <div class='item'><h3>a</h3></div>\
                 <div class='item'><h3>b</h3></div></body></html>",
            )
            .unwrap(),
        );
        let trace = Trace::new(dom, Value::Object(vec![]));
        SynthContext::new(cfg, trace)
    }

    #[test]
    fn alternatives_respect_ablation() {
        let path: Path = "/body[1]/div[2]/h3[1]".parse().unwrap();
        let mut full = ctx(SynthConfig::default());
        assert!(full.alternatives(0, &path).len() > 1);
        let mut ablated = ctx(SynthConfig::no_selector());
        assert_eq!(ablated.alternatives(0, &path).as_slice(), &[path]);
    }

    #[test]
    fn decomps_filter_by_pivot_index() {
        let path: Path = "/body[1]/div[2]/h3[1]".parse().unwrap();
        let mut c = ctx(SynthConfig::default());
        let d1 = c.decomps(0, &path, 1);
        assert!(!d1.is_empty());
        assert!(d1.iter().all(|d| {
            // Reconstruct through the interner and verify pivot index.
            let mut p = c.paths().get_path(d.prefix).clone();
            p = p.join(webrobot_dom::Step {
                axis: d.axis,
                pred: c.paths().get_pred(d.pred).clone(),
                index: 1,
            });
            p.concat(c.paths().get_path(d.suffix))
                .valid(&c.trace().doms()[0])
        }));
        // The second item decomposes with pivot index 2 at the item step.
        let path2: Path = "/body[1]/div[3]/h3[1]".parse().unwrap();
        let d2 = c.decomps(0, &path2, 2);
        assert!(d2
            .iter()
            .any(|d| c.paths().get_pred(d.pred) == &Pred::with_attr("div", "class", "item")));
    }

    #[test]
    fn caches_are_hit() {
        let path: Path = "/body[1]/div[2]/h3[1]".parse().unwrap();
        let mut c = ctx(SynthConfig::default());
        let a = c.alternatives(0, &path);
        let b = c.alternatives(0, &path);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
