//! The top-level worklist algorithm (paper Alg. 1) with incremental
//! synthesis (paper §5.4) and the dirty-tracked fast path (§7.2).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use std::time::{Duration, Instant};
use webrobot_dom::{resolve_counters, Dom, FxHashSet};

use webrobot_lang::{Action, Program, Statement, StmtId};
use webrobot_semantics::{action_consistent, generalizes, Stepper, Trace};

use crate::config::SynthConfig;
use crate::context::SynthContext;
use crate::item::Item;
use crate::speculate::{speculate, SRewrite};
use crate::validate::validate;

/// A generalizing program together with its ranking key and prediction.
#[derive(Debug, Clone)]
pub struct RankedProgram {
    /// The synthesized program.
    pub program: Program,
    /// AST size (primary ranking key: smaller is better, paper §4).
    pub size: usize,
    /// The predicted next action `a_{m+1}`.
    pub prediction: Action,
}

/// Bookkeeping for one `synthesize` call.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Items popped from the worklist.
    pub pops: usize,
    /// Items pushed (after validation and dedup).
    pub pushes: usize,
    /// s-rewrites validated (Alg. 3 invocations).
    pub validations: usize,
    /// Wall-clock time of the call.
    pub elapsed: Duration,
    /// `true` when cached generalizing programs answered the call without
    /// touching the worklist (the incremental fast path).
    pub fast_path: bool,
    /// `true` when the call ended on the timeout rather than exhausting the
    /// worklist.
    pub timed_out: bool,
    /// `true` when the call ended because the stored-item cap
    /// (`max_items`) was reached rather than exhausting the worklist.
    pub truncated: bool,
    /// `true` when a [`Synthesizer::synthesize_quantum`] call exhausted
    /// its budget with the search still in progress. The result carries
    /// no programs or predictions; call `synthesize_quantum` again to
    /// continue.
    pub parked: bool,
    /// DOM resolution-cache hits during the call, counted on the calling
    /// thread (see [`webrobot_dom::resolve_counters`]), so the count is
    /// exact per session even when other shards synthesize concurrently
    /// over the same shared page DOMs.
    pub resolve_hits: u64,
    /// DOM resolution-cache misses (full walks) during the call.
    pub resolve_misses: u64,
}

/// Result of one `synthesize` call.
#[derive(Debug, Clone, Default)]
pub struct SynthResult {
    /// Generalizing programs, best first.
    pub programs: Vec<RankedProgram>,
    /// Distinct predictions surfaced to the user (deduplicated by
    /// node-consistency on the latest DOM), best program's first.
    pub predictions: Vec<Action>,
    /// Call statistics.
    pub stats: SynthStats,
}

impl SynthResult {
    /// The best program's prediction, if any program generalizes.
    pub fn best_prediction(&self) -> Option<&Action> {
        self.predictions.first()
    }
}

/// Worklist entry ordered *smallest statement count first*.
///
/// The key is `len − covered` rather than `len`: appending the newly
/// demonstrated actions to an item adds the same delta to both, so the
/// difference is invariant under trace growth. That is what lets the
/// dirty-tracked resume leave queued items untouched (extension deferred
/// to pop time) without perturbing the pop order an eager re-queue would
/// have produced. Ties break by insertion order for determinism.
#[derive(Debug, Clone)]
struct HeapEntry {
    key: i64,
    seq: u64,
    item: Item,
}

impl HeapEntry {
    fn keyed(item: Item, seq: u64) -> HeapEntry {
        HeapEntry {
            key: item.len() as i64 - item.covered() as i64,
            seq,
            item,
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for min-by-(key, seq).
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// Resumable prediction state of a cached generalizing program: the
/// [`Stepper`] has consumed every DOM of the trace (length `synced`), and
/// `prediction` is the action it produced on the latest one.
#[derive(Debug)]
struct PredState {
    stepper: Stepper,
    prediction: Action,
    synced: usize,
}

/// A cached generalizing program with its ranking keys precomputed.
///
/// `canon` (the canonicalized rendering) is the deterministic tie-break:
/// unlike the raw rendering it is independent of fresh-variable numbering,
/// so memoized and unmemoized runs — which consume different variables —
/// rank identically.
#[derive(Debug)]
struct GenEntry {
    item: Item,
    program: Program,
    size: usize,
    canon: String,
    /// Per-statement canonical ids — the cheap alpha-duplicate check the
    /// pop loop runs before anything else. Top-level statements are
    /// closed, so equal id sequences coincide with equal `canon`
    /// renderings; unlike the rendering, ids cost a hash probe per
    /// statement instead of a program clone + canonicalize per pop.
    canon_ids: Vec<StmtId>,
    /// `Some` under dirty tracking; `None` in the ablation, where every
    /// call re-executes the program from scratch.
    pred: Option<PredState>,
}

impl GenEntry {
    /// Builds an entry iff `item`'s program generalizes `trace`
    /// (Def. 4.2). Under dirty tracking the check *is* the construction of
    /// the resumable stepper, so the program executes exactly once.
    ///
    /// The canonical rendering (the ranking tie-break) is computed only
    /// when the check succeeds: most popped items do not generalize, and
    /// rendering them just to discard the entry was a measurable slice of
    /// the worklist loop.
    fn build(item: &Item, canon_ids: &[StmtId], trace: &Trace, dirty: bool) -> Option<GenEntry> {
        let pred = if dirty {
            let mut stepper = Stepper::new(item.statements(), trace.input().clone());
            let m = trace.len();
            for t in 0..m {
                match stepper.step(&trace.doms()[t]) {
                    Ok(Some(a)) if action_consistent(&a, &trace.actions()[t], &trace.doms()[t]) => {
                    }
                    _ => return None,
                }
            }
            let prediction = stepper.step(&trace.doms()[m]).ok().flatten()?;
            Some(PredState {
                stepper,
                prediction,
                synced: m,
            })
        } else {
            generalizes(item.statements(), trace)?;
            None
        };
        let program = item.to_program();
        let canon = program.canonicalize().to_string();
        Some(GenEntry {
            item: item.clone(),
            size: program.size(),
            canon,
            canon_ids: canon_ids.to_vec(),
            program,
            pred,
        })
    }

    /// The total ranking order (no ties between distinct canonical
    /// programs), also used for deterministic eviction.
    fn rank_key(&self) -> (usize, usize, &str) {
        (self.size, self.program.len(), self.canon.as_str())
    }
}

/// A compact, adoptable image of the synthesizer's stored search state:
/// the worklist (in pop-tiebreak order), the processed rewrites `W′`, the
/// cached generalizing programs, and the trace length the stored items
/// were last synced to.
///
/// Produced by [`Synthesizer::digest`], consumed by
/// [`Synthesizer::adopt_digest`]. The digest is *positional*, not
/// executable: items are plain programs plus slice bounds, so it
/// serializes to a handful of program strings — no steppers, no memo
/// tables, no DOM references. Everything execution-dependent (resumable
/// prediction steppers, canonical-id interning, the dedup set) is
/// rebuilt deterministically against the adopting synthesizer's own
/// trace, which is what makes the adopting engine equivalent to the one
/// the digest was taken from: carrying the state across a restore skips
/// every worklist run the original paid for without changing any
/// observable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineDigest {
    /// Queued worklist items, in the order the heap would tie-break them
    /// (insertion sequence). Adoption re-queues them in this order, which
    /// preserves the pop order because the ranking key is recomputed from
    /// the item itself.
    pub worklist: Vec<Item>,
    /// Processed rewrites (`W′` of paper §5.4) — re-queued, un-extended,
    /// on the next incremental resume, exactly as the live engine keeps
    /// them.
    pub processed: Vec<Item>,
    /// The items behind the cached generalizing programs. Adoption
    /// re-executes each one over the adopting trace to rebuild its
    /// resumable prediction stepper (the execution *is* the
    /// generalization re-check, so a tampered digest is rejected, never
    /// trusted).
    pub generalizing: Vec<Item>,
    /// Trace length the stored items were last synced to. Carried as-is
    /// — *not* necessarily the full trace length — so the deferred
    /// extension bookkeeping of the dirty-tracked resume lands exactly
    /// where the original engine left it.
    pub synced_len: usize,
}

/// The interactive, incremental synthesizer (paper Alg. 1 + §5.4).
///
/// Feed demonstrated actions with [`Synthesizer::observe`], then call
/// [`Synthesizer::synthesize`] to obtain generalizing programs and their
/// predictions. State (worklist, processed rewrites, caches, generalizing
/// programs) persists across calls unless the *No incremental* ablation is
/// configured.
///
/// With `dirty_tracking` (the default) the per-observation cost is
/// decoupled from the trace length: cached generalizing programs carry a
/// resumable [`Stepper`] advanced one action per observation instead of
/// being re-executed over the whole demonstration, and stored worklist
/// items are extended lazily when popped instead of eagerly re-queued on
/// every observation.
#[derive(Debug)]
pub struct Synthesizer {
    ctx: SynthContext,
    worklist: BinaryHeap<HeapEntry>,
    processed: Vec<Item>,
    generalizing: Vec<GenEntry>,
    /// Canonical-id sequences whose programs failed the generalization
    /// check against the *current* trace. Distinct worklist items
    /// routinely share a statement sequence (they differ only in slice
    /// bounds), and the check replays the whole trace each time — memoize
    /// the failures and pay it once. Valid only for one trace: cleared on
    /// every [`observe`](Self::observe).
    gen_fail: FxHashSet<Vec<StmtId>>,
    seen: FxHashSet<u64>,
    seq: u64,
    /// Trace length the stored items were last synced to.
    synced_len: usize,
    /// `true` while a sliced search ([`synthesize_quantum`]) is parked
    /// mid-worklist: the prelude (fast-path check + incremental resume)
    /// already ran and must not run again until the search completes.
    /// Cleared by [`observe`], which invalidates the in-flight search.
    ///
    /// [`synthesize_quantum`]: Synthesizer::synthesize_quantum
    /// [`observe`]: Synthesizer::observe
    searching: bool,
    /// Wall-clock time already spent in previous quanta of the current
    /// search; `search_spent + this quantum` is checked against the
    /// configured `timeout` so a sliced search observes the same total
    /// budget as an unsliced one.
    search_spent: Duration,
}

// Sessions are sharded across worker threads one synthesizer per
// session, so the engine (worklist items, cached stepper cursors, memo
// tables) must stay `Send + Sync`. Compile-time enforced: an `Rc` or
// `RefCell` reintroduced anywhere below fails `cargo check`, not a test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Synthesizer>();
};

impl Synthesizer {
    /// Creates a synthesizer over an initial trace (possibly empty).
    pub fn new(cfg: SynthConfig, trace: Trace) -> Synthesizer {
        let mut synth = Synthesizer {
            synced_len: trace.len(),
            ctx: SynthContext::new(cfg, trace),
            worklist: BinaryHeap::new(),
            processed: Vec::new(),
            generalizing: Vec::new(),
            gen_fail: FxHashSet::default(),
            seen: FxHashSet::default(),
            seq: 0,
            searching: false,
            search_spent: Duration::ZERO,
        };
        let initial = Item::initial(synth.ctx.trace());
        synth.push_item(initial);
        synth
    }

    /// The demonstration observed so far.
    pub fn trace(&self) -> &Trace {
        self.ctx.trace()
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthConfig {
        self.ctx.config()
    }

    /// Records one demonstrated (or authorized) action and the DOM the page
    /// transitioned to.
    pub fn observe(&mut self, action: Action, resulting_dom: std::sync::Arc<Dom>) {
        self.ctx.observe(action, resulting_dom);
        // Generalization outcomes are relative to the trace; a program
        // that failed on the old frontier may succeed on the grown one.
        self.gen_fail.clear();
        // A new observation invalidates a parked sliced search: the next
        // quantum restarts from the prelude, exactly as `synthesize`
        // would after the same observation.
        self.searching = false;
    }

    fn requeue(&mut self, item: Item) {
        self.seq += 1;
        self.worklist.push(HeapEntry::keyed(item, self.seq));
    }

    /// The worklist dedup hash: per-statement canonical ids plus slice
    /// bounds. Items whose programs are alpha-equivalent statement by
    /// statement (top-level statements are closed) and whose bounds agree
    /// hash alike, and a repeat statement costs a memo probe instead of a
    /// clone + canonicalize per push.
    fn item_hash(&self, item: &Item) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = webrobot_dom::FxHasher::default();
        for stmt in item.statements() {
            self.ctx.canon_id(stmt).hash(&mut h);
        }
        item.bounds().hash(&mut h);
        h.finish()
    }

    fn push_item(&mut self, item: Item) {
        if self.seen.insert(self.item_hash(&item)) {
            self.requeue(item);
        }
    }

    /// [`push_item`](Self::push_item) for a validated rewrite of the item
    /// currently being popped. `spliced` replaced statements
    /// `sr.i..sr.i+removed` of a parent whose per-statement ids were
    /// `parent_ids`, so the dedup hash is a splice of ids already in hand —
    /// no statement is re-interned. Produces bit-identical hashes to
    /// [`item_hash`](Self::item_hash) by construction.
    fn push_spliced(&mut self, spliced: Item, parent_ids: &[StmtId], sr: &SRewrite) {
        use std::hash::{Hash, Hasher};
        let removed = parent_ids.len() + 1 - spliced.len();
        let mut h = webrobot_dom::FxHasher::default();
        for id in &parent_ids[..sr.i] {
            id.hash(&mut h);
        }
        sr.cid.hash(&mut h);
        for id in &parent_ids[sr.i + removed..] {
            id.hash(&mut h);
        }
        spliced.bounds().hash(&mut h);
        if self.seen.insert(h.finish()) {
            self.requeue(spliced);
        }
    }

    /// Synthesizes until the worklist empties, the stored-item cap
    /// (`max_items`) is reached or the configured `timeout` passes: the
    /// quantum loop of [`synthesize_quantum`](Self::synthesize_quantum)
    /// with no budget, so it never parks.
    ///
    /// With incremental synthesis enabled this first re-checks the cached
    /// generalizing programs (fast path: if any still generalizes the
    /// extended trace, no rewriting happens at all), then resumes the
    /// worklist from `W ∪ W′` with newly demonstrated actions appended to
    /// every stored rewrite and trailing loops re-validated so they absorb
    /// the new actions.
    ///
    /// The timeout is checked between worklist items, never inside one:
    /// a call processes at least one item, and may overrun its timeout by
    /// the item in hand.
    pub fn synthesize(&mut self) -> SynthResult {
        self.synthesize_quantum(Duration::MAX)
    }

    /// Runs at most `budget` of worklist search, parking the search when
    /// the budget runs out before the worklist does.
    ///
    /// A sequence of `synthesize_quantum` calls with no intervening
    /// [`observe`](Self::observe) is equivalent to one
    /// [`synthesize`](Self::synthesize) call, which is this loop with a
    /// budget of `Duration::MAX` (a budget past the clock's range never
    /// parks): the worklist, dedup set and cached generalizing programs
    /// persist across quanta, so the pop order — and therefore the final
    /// ranked programs and predictions — are identical. While parked, the
    /// returned result withholds intermediate programs: `stats.parked`
    /// is `true` and `programs`/`predictions` are empty; call again to
    /// continue. The budget is checked only *between* worklist items
    /// (each popped item is speculated and validated whole), and at
    /// least one item is processed per quantum, so progress is
    /// guaranteed even with a zero budget.
    ///
    /// The configured `timeout` bounds the *cumulative* search time
    /// across quanta, checked at the same points: a pathological session
    /// concludes with `stats.timed_out` after roughly `timeout` worth of
    /// quanta instead of parking forever.
    pub fn synthesize_quantum(&mut self, budget: Duration) -> SynthResult {
        let started = Instant::now();
        let (hits0, misses0) = resolve_counters();
        let mut stats = SynthStats::default();

        if !self.begin_search(&mut stats) {
            stats.elapsed = started.elapsed();
            Self::finish_resolve_stats(&mut stats, hits0, misses0);
            return self.rank(stats);
        }

        // `None` when the budget runs past the clock's range: never park.
        let quantum_deadline = started.checked_add(budget);
        let timeout = self.ctx.cfg.timeout;
        // The worklist loop (Alg. 1 lines 3–7).
        loop {
            let Some(entry) = self.worklist.pop() else {
                self.searching = false;
                break;
            };
            let Some(item) = self.admit(entry.item) else {
                continue;
            };
            stats.pops += 1;
            self.process_item(item, &mut stats);
            if self.worklist.len() + self.processed.len() > self.ctx.cfg.max_items {
                stats.truncated = true;
                self.searching = false;
                break;
            }
            let now = Instant::now();
            if self.search_spent + (now - started) > timeout {
                stats.timed_out = true;
                self.searching = false;
                break;
            }
            if quantum_deadline.is_some_and(|deadline| now >= deadline) {
                stats.parked = true;
                break;
            }
        }

        self.search_spent += started.elapsed();
        stats.elapsed = started.elapsed();
        Self::finish_resolve_stats(&mut stats, hits0, misses0);
        if stats.parked {
            return SynthResult {
                programs: Vec::new(),
                predictions: Vec::new(),
                stats,
            };
        }
        self.rank(stats)
    }

    /// `true` while a sliced search is parked mid-worklist (a
    /// [`synthesize_quantum`](Self::synthesize_quantum) call returned
    /// `stats.parked`) and another quantum is needed to conclude it.
    pub fn is_parked(&self) -> bool {
        self.searching
    }

    /// Runs the search prelude — from-scratch reset (the *No
    /// incremental* ablation), the cached-program fast path (paper §7.2:
    /// re-synthesis happens only when the previous program fails to
    /// predict the next action), and the incremental resume — unless a
    /// parked sliced search is in progress, in which case the prelude
    /// already ran. Returns `false` when cached generalizing programs
    /// answer the call without touching the worklist; the caller ranks
    /// and returns.
    fn begin_search(&mut self, stats: &mut SynthStats) -> bool {
        if self.searching {
            return true;
        }
        if !self.ctx.cfg.incremental {
            self.reset_incremental();
        } else {
            self.refresh_generalizing();
            if !self.generalizing.is_empty() {
                stats.fast_path = true;
                return false;
            }
            self.resume_incremental();
        }
        self.searching = true;
        self.search_spent = Duration::ZERO;
        true
    }

    /// Processes one admitted worklist item whole: the generalization
    /// check plus speculate / validate / push (Alg. 1 lines 4–6).
    fn process_item(&mut self, item: Item, stats: &mut SynthStats) {
        let canon_ids: Vec<StmtId> = item
            .statements()
            .iter()
            .map(|s| self.ctx.canon_id(s))
            .collect();
        if !self.gen_fail.contains(&canon_ids)
            && !self.generalizing.iter().any(|e| e.canon_ids == canon_ids)
        {
            match GenEntry::build(
                &item,
                &canon_ids,
                self.ctx.trace(),
                self.ctx.cfg.dirty_tracking,
            ) {
                Some(gen) => self.store_generalizing(gen),
                None => {
                    self.gen_fail.insert(canon_ids.clone());
                }
            }
        }
        let rewrites: Vec<SRewrite> = speculate(&item, &mut self.ctx);
        for sr in &rewrites {
            stats.validations += 1;
            if let Some(new_item) = validate(sr, &item, &self.ctx) {
                stats.pushes += 1;
                self.push_spliced(new_item, &canon_ids, sr);
            }
        }
        self.processed.push(item);
    }

    /// Sets the call's resolution-cache stats to this thread's counter
    /// delta since `(hits0, misses0)`. A call never leaves its thread, so
    /// the delta is exact even while other shards resolve against the
    /// same shared page DOMs.
    fn finish_resolve_stats(stats: &mut SynthStats, hits0: u64, misses0: u64) {
        let (hits, misses) = resolve_counters();
        stats.resolve_hits = hits - hits0;
        stats.resolve_misses = misses - misses0;
    }

    /// Drops cached generalizing programs that no longer generalize the
    /// (possibly grown) trace, or whose prediction does not denote a node
    /// on the latest DOM.
    ///
    /// Under dirty tracking each entry advances its resumable stepper by
    /// exactly the newly observed actions — O(new actions), not O(trace) —
    /// relying on the interpreter being deterministic in the DOM prefix.
    /// The ablation re-executes every program over the whole trace, which
    /// is the original (provably equivalent, measurably slower) behavior.
    fn refresh_generalizing(&mut self) {
        let trace = &self.ctx.trace;
        let m = trace.len();
        let latest = trace.latest_dom().clone();
        if self.ctx.cfg.dirty_tracking {
            self.generalizing.retain_mut(|entry| {
                let Some(pred) = entry.pred.as_mut() else {
                    return false;
                };
                while pred.synced < m {
                    let t = pred.synced;
                    if !action_consistent(&pred.prediction, &trace.actions()[t], &trace.doms()[t]) {
                        return false;
                    }
                    match pred.stepper.step(&trace.doms()[t + 1]) {
                        Ok(Some(a)) => {
                            pred.prediction = a;
                            pred.synced = t + 1;
                        }
                        _ => return false,
                    }
                }
                pred.prediction.selector().is_none_or(|s| s.valid(&latest))
            });
        } else {
            self.generalizing
                .retain(|entry| match generalizes(entry.item.statements(), trace) {
                    Some(pred) => pred.selector().is_none_or(|s| s.valid(&latest)),
                    None => false,
                });
        }
    }

    /// Keeps at most `max_programs` generalizing programs. Both admission
    /// and eviction follow the total ranking order (size, then statement
    /// count, then canonical rendering), so the retained set depends only
    /// on *which* programs were found, not on the order they were found in
    /// — a prerequisite for the incremental ≡ from-scratch equivalence.
    fn store_generalizing(&mut self, entry: GenEntry) {
        debug_assert!(
            !self.generalizing.iter().any(|e| e.canon == entry.canon),
            "alpha-duplicates are filtered before the generalization check"
        );
        if self.generalizing.len() < self.ctx.cfg.max_programs {
            self.generalizing.push(entry);
            return;
        }
        if let Some((idx, worst)) = self
            .generalizing
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.rank_key().cmp(&b.rank_key()))
        {
            if entry.rank_key() < worst.rank_key() {
                self.generalizing[idx] = entry;
            }
        }
    }

    /// Drops every stored rewrite (worklist, processed, generalizing
    /// programs) so the next call synthesizes from the singleton program
    /// `P₀` again, exactly as a freshly constructed synthesizer would —
    /// but keeping the context's selector caches warm.
    ///
    /// This is the *No incremental* ablation's prelude and the
    /// from-scratch reference of the differential test harness
    /// (`tests/differential.rs`).
    pub fn reset_incremental(&mut self) {
        self.worklist.clear();
        self.processed.clear();
        self.generalizing.clear();
        self.gen_fail.clear();
        self.seen.clear();
        self.searching = false;
        self.synced_len = self.ctx.trace().len();
        let initial = Item::initial(self.ctx.trace());
        self.push_item(initial);
    }

    /// Incremental resume (§5.4): make the stored rewrites (worklist and
    /// processed `W′`) cover the newly demonstrated actions again.
    ///
    /// Under dirty tracking, queued items **carry over untouched**: the
    /// heap key is growth-invariant (see [`HeapEntry`]), so extension —
    /// and the trailing-loop absorption check, the only work whose result
    /// actually depends on the new actions — is deferred to
    /// [`Synthesizer::admit`] at pop time. Only the processed list is
    /// re-queued, un-extended. The ablation reproduces the original eager
    /// behavior: drain everything, extend and re-validate every item, and
    /// rebuild the heap, which is O(stored items × program length) per
    /// observation.
    fn resume_incremental(&mut self) {
        let m = self.ctx.trace().len();
        if m == self.synced_len {
            return;
        }
        self.synced_len = m;
        if self.ctx.cfg.dirty_tracking {
            // Only *suffix-reachable* items — those whose trailing
            // statement is a loop that may absorb the new actions, and
            // whose worklist rank may therefore change — are re-extended
            // now. Everything else carries over untouched: the heap key
            // is growth-invariant, so deferring the (pure-append)
            // extension to pop time preserves the eager pop order.
            let mut carried: Vec<HeapEntry> = Vec::with_capacity(self.worklist.len());
            let mut absorbers: Vec<Item> = Vec::new();
            for entry in self.worklist.drain() {
                let loop_tail = entry
                    .item
                    .statements()
                    .last()
                    .is_some_and(|s| !s.is_loop_free());
                if loop_tail {
                    absorbers.push(entry.item);
                } else {
                    carried.push(entry);
                }
            }
            self.worklist.extend(carried);
            for item in std::mem::take(&mut self.processed) {
                let loop_tail = item.statements().last().is_some_and(|s| !s.is_loop_free());
                if loop_tail {
                    absorbers.push(item);
                } else {
                    self.requeue(item);
                }
            }
            for item in absorbers {
                let extended = self.extend_and_absorb(item);
                if self.seen.insert(self.item_hash(&extended)) {
                    self.requeue(extended);
                }
            }
            return;
        }
        let mut stored: Vec<Item> = Vec::with_capacity(self.worklist.len() + self.processed.len());
        stored.extend(self.worklist.drain().map(|e| e.item));
        stored.append(&mut self.processed);
        // Extended items carry fresh hashes; dedup within this batch only
        // (the global `seen` set still filters future rewrites).
        let mut batch: FxHashSet<u64> = FxHashSet::default();
        for item in stored {
            debug_assert!(item.covered() <= m, "traces only grow");
            let extended = self.extend_and_absorb(item);
            let hash = self.item_hash(&extended);
            if batch.insert(hash) {
                self.seen.insert(hash);
                self.requeue(extended);
            }
        }
    }

    /// Pop-time admission (the lazy half of the dirty-tracked resume): an
    /// item that predates the newest observations is extended and
    /// absorption-checked now, and discarded if an identical item was
    /// already admitted through another path.
    fn admit(&mut self, item: Item) -> Option<Item> {
        if item.covered() == self.ctx.trace().len() {
            return Some(item);
        }
        let extended = self.extend_and_absorb(item);
        if self.seen.insert(self.item_hash(&extended)) {
            Some(extended)
        } else {
            None
        }
    }

    /// Extends `item` with the newly demonstrated actions as singleton
    /// statements and, if its last pre-extension statement is a loop whose
    /// coverage ended at the old frontier, re-validates that loop so it
    /// absorbs the fresh singletons. When absorption succeeds, the
    /// *unabsorbed* variant is dropped: its trailing loop would overrun
    /// its slice when re-executed on the longer DOM trace, producing
    /// spuriously-generalizing "zombie" programs.
    fn extend_and_absorb(&mut self, item: Item) -> Item {
        let boundary = item.len(); // index of first appended singleton
        let extended = item.extended_to(self.ctx.trace());
        if boundary > 0 && extended.len() > boundary {
            let k = boundary - 1;
            if !extended.statements()[k].is_loop_free() {
                let stmt = extended.statements()[k].clone();
                let sr = SRewrite {
                    cid: self.ctx.canon_id(&stmt),
                    stmt: std::sync::Arc::new(stmt),
                    i: k,
                    j: k,
                };
                if let Some(absorbed) = validate(&sr, &extended, &self.ctx) {
                    return absorbed;
                }
            }
        }
        extended
    }

    /// Ranks generalizing programs by AST size (then statement count, then
    /// *canonicalized* rendering — deterministic and independent of
    /// fresh-variable numbering) and extracts distinct predictions.
    ///
    /// Programs whose prediction does not denote a node on the latest DOM
    /// are dropped: the front-end could neither visualize nor perform such
    /// an action (paper §6, prediction authorization).
    fn rank(&self, stats: SynthStats) -> SynthResult {
        let trace = self.ctx.trace();
        let latest = trace.latest_dom().clone();
        let mut ranked: Vec<(&GenEntry, RankedProgram)> = Vec::new();
        for entry in &self.generalizing {
            let prediction = match &entry.pred {
                Some(p) => {
                    debug_assert_eq!(p.synced, trace.len(), "entries are refreshed before rank");
                    p.prediction.clone()
                }
                None => match generalizes(entry.item.statements(), trace) {
                    Some(p) => p,
                    None => continue,
                },
            };
            if let Some(selector) = prediction.selector() {
                if !selector.valid(&latest) {
                    continue;
                }
            }
            ranked.push((
                entry,
                RankedProgram {
                    size: entry.size,
                    program: entry.program.clone(),
                    prediction,
                },
            ));
        }
        ranked.sort_by(|(a, _), (b, _)| a.rank_key().cmp(&b.rank_key()));
        ranked.dedup_by(|(a, _), (b, _)| a.canon == b.canon);
        let ranked: Vec<RankedProgram> = ranked.into_iter().map(|(_, rp)| rp).collect();

        let mut predictions: Vec<Action> = Vec::new();
        for rp in &ranked {
            if predictions.len() >= self.ctx.cfg.max_predictions {
                break;
            }
            if !predictions
                .iter()
                .any(|p| action_consistent(p, &rp.prediction, &latest))
            {
                predictions.push(rp.prediction.clone());
            }
        }
        SynthResult {
            programs: ranked,
            predictions,
            stats,
        }
    }

    /// Captures the stored search state as an [`EngineDigest`], or `None`
    /// while a sliced search is parked mid-worklist (a half-run search
    /// has no consistent stored state to carry; conclude it first).
    pub fn digest(&self) -> Option<EngineDigest> {
        if self.searching {
            return None;
        }
        let mut queued: Vec<&HeapEntry> = self.worklist.iter().collect();
        queued.sort_by_key(|e| e.seq);
        Some(EngineDigest {
            worklist: queued.into_iter().map(|e| e.item.clone()).collect(),
            processed: self.processed.clone(),
            generalizing: self.generalizing.iter().map(|e| e.item.clone()).collect(),
            synced_len: self.synced_len,
        })
    }

    /// Replaces the stored search state with `digest`, rebuilding
    /// everything execution-dependent against this synthesizer's own
    /// trace: generalizing entries re-execute their programs (the
    /// generalization re-check doubles as stepper construction), the
    /// dedup set is recomputed from the adopted items, and worklist
    /// entries are re-keyed in digest order.
    ///
    /// Returns `false` — leaving the synthesizer untouched — when the
    /// digest is inconsistent with the trace: malformed slice bounds,
    /// items covering more actions than the trace holds, a sync point
    /// past the frontier, or a "generalizing" program that does not in
    /// fact generalize. A `false` return means the digest was not
    /// produced by [`Synthesizer::digest`] on an equivalent synthesizer
    /// (e.g. a hand-tampered persisted record); the caller falls back to
    /// re-deriving the state by synthesis.
    ///
    /// Failure memo tables (`gen_fail`, plus the context's validation
    /// memos) are *not* carried: they are pure caches whose absence only
    /// re-pays a lookup, never changes a result.
    pub fn adopt_digest(&mut self, digest: &EngineDigest) -> bool {
        let m = self.ctx.trace().len();
        if digest.synced_len > m {
            return false;
        }
        let well_formed = |item: &Item| {
            item.bounds().len() == item.len() + 1
                && item.bounds().first() == Some(&0)
                && item.bounds().windows(2).all(|w| w[0] < w[1])
                && item.covered() <= m
        };
        if !digest
            .worklist
            .iter()
            .chain(&digest.processed)
            .chain(&digest.generalizing)
            .all(well_formed)
        {
            return false;
        }
        // Rebuild the generalizing entries before touching any state, so
        // a rejected digest leaves the synthesizer exactly as it was.
        let mut gens: Vec<GenEntry> = Vec::with_capacity(digest.generalizing.len());
        for item in &digest.generalizing {
            let canon_ids: Vec<StmtId> = item
                .statements()
                .iter()
                .map(|s| self.ctx.canon_id(s))
                .collect();
            match GenEntry::build(
                item,
                &canon_ids,
                self.ctx.trace(),
                self.ctx.cfg.dirty_tracking,
            ) {
                Some(entry) => gens.push(entry),
                None => return false,
            }
        }
        self.worklist.clear();
        self.processed = digest.processed.clone();
        self.generalizing = gens;
        self.gen_fail.clear();
        self.seen.clear();
        self.seq = 0;
        self.searching = false;
        self.search_spent = Duration::ZERO;
        self.synced_len = digest.synced_len;
        for item in digest.worklist.iter().cloned() {
            let hash = self.item_hash(&item);
            self.seen.insert(hash);
            self.requeue(item);
        }
        // Processed items were admitted through the worklist once, so
        // their hashes were in the dedup set; restore that. (Hashes of
        // items that were since *extended* are unreachable to future
        // pushes — every push covers the full trace at push time, and
        // the covered length is part of the hash — so dropping them
        // cannot re-admit anything the original engine would have
        // deduplicated.)
        for i in 0..self.processed.len() {
            let hash = self.item_hash(&self.processed[i]);
            self.seen.insert(hash);
        }
        for i in 0..self.generalizing.len() {
            let hash = self.item_hash(&self.generalizing[i].item);
            self.seen.insert(hash);
        }
        true
    }

    /// Direct access to generalizing rewrites (e.g. for inspecting slice
    /// boundaries in tests and experiments).
    pub fn generalizing_items(&self) -> impl Iterator<Item = &Item> {
        self.generalizing.iter().map(|e| &e.item)
    }

    /// Convenience: the statements of the current best program, if any.
    pub fn best_program(&self) -> Option<Vec<Statement>> {
        let trace = self.ctx.trace();
        self.generalizing
            .iter()
            .filter(|entry| generalizes(entry.item.statements(), trace).is_some())
            .min_by(|a, b| a.rank_key().cmp(&b.rank_key()))
            .map(|entry| entry.item.statements().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webrobot_data::Value;
    use webrobot_dom::parse_html;

    fn anchors(n: usize) -> Arc<Dom> {
        let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
        Arc::new(parse_html(&format!("<html>{body}</html>")).unwrap())
    }

    fn scrape_trace(demonstrated: usize, total: usize) -> Trace {
        let dom = anchors(total);
        let mut t = Trace::new(dom.clone(), Value::Object(vec![]));
        for i in 1..=demonstrated {
            t.push(
                Action::ScrapeText(format!("/a[{i}]").parse().unwrap()),
                dom.clone(),
            );
        }
        t
    }

    #[test]
    fn synthesizes_single_loop_from_two_actions() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(2, 5));
        let result = synth.synthesize();
        assert!(!result.programs.is_empty());
        let best = &result.programs[0];
        assert_eq!(best.program.len(), 1);
        assert_eq!(best.program.loop_depth(), 1);
        let want = Action::ScrapeText("/a[3]".parse().unwrap());
        assert!(action_consistent(
            &want,
            result.best_prediction().unwrap(),
            synth.trace().latest_dom()
        ));
    }

    #[test]
    fn one_action_cannot_generalize() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(1, 5));
        let result = synth.synthesize();
        assert!(result.programs.is_empty());
        assert!(result.best_prediction().is_none());
    }

    #[test]
    fn incremental_fast_path_reuses_program() {
        let full = scrape_trace(4, 6);
        let mut synth = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        let r1 = synth.synthesize();
        assert!(!r1.stats.fast_path);
        assert!(!r1.programs.is_empty());
        // The user accepts the prediction: the trace grows by one action.
        synth.observe(full.actions()[2].clone(), full.doms()[3].clone());
        let r2 = synth.synthesize();
        assert!(r2.stats.fast_path, "cached program still generalizes");
        assert!(action_consistent(
            r2.best_prediction().unwrap(),
            &Action::ScrapeText("/a[4]".parse().unwrap()),
            synth.trace().latest_dom()
        ));
    }

    #[test]
    fn fast_path_matches_legacy_retention() {
        // The stepper-driven fast path and the ablation (full re-execution
        // per call) must agree call by call on a growing demonstration.
        let full = scrape_trace(5, 7);
        let mut dirty = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        let mut legacy = Synthesizer::new(SynthConfig::no_optimizations(), full.prefix(2));
        for k in 2..=5 {
            if k > 2 {
                dirty.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
                legacy.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
            }
            let rd = dirty.synthesize();
            let rl = legacy.synthesize();
            assert_eq!(rd.stats.fast_path, rl.stats.fast_path, "prefix {k}");
            assert_eq!(rd.predictions, rl.predictions, "prefix {k}");
        }
    }

    #[test]
    fn no_incremental_restarts_every_time() {
        let full = scrape_trace(3, 6);
        let mut synth = Synthesizer::new(SynthConfig::no_incremental(), full.prefix(2));
        let r1 = synth.synthesize();
        assert!(!r1.programs.is_empty());
        synth.observe(full.actions()[2].clone(), full.doms()[3].clone());
        let r2 = synth.synthesize();
        assert!(!r2.stats.fast_path);
        assert!(!r2.programs.is_empty());
    }

    #[test]
    fn reset_incremental_matches_fresh_synthesizer() {
        let full = scrape_trace(4, 6);
        let mut warm = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        warm.synthesize();
        warm.observe(full.actions()[2].clone(), full.doms()[3].clone());
        warm.reset_incremental();
        let r_reset = warm.synthesize();
        let mut fresh = Synthesizer::new(SynthConfig::default(), full.prefix(3));
        let r_fresh = fresh.synthesize();
        assert!(!r_reset.stats.fast_path);
        assert_eq!(r_reset.predictions, r_fresh.predictions);
        assert_eq!(r_reset.programs.len(), r_fresh.programs.len());
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let dom = anchors(2);
        let t = Trace::new(dom, Value::Object(vec![]));
        let mut synth = Synthesizer::new(SynthConfig::default(), t);
        let result = synth.synthesize();
        assert!(result.programs.is_empty());
    }

    /// Drives a sliced search to completion one item per quantum,
    /// counting the number of parked quanta along the way.
    fn synthesize_in_quanta(synth: &mut Synthesizer) -> (SynthResult, usize) {
        let mut parked = 0;
        loop {
            let result = synth.synthesize_quantum(Duration::ZERO);
            if !result.stats.parked {
                return (result, parked);
            }
            assert!(
                result.programs.is_empty(),
                "parked results withhold programs"
            );
            assert!(result.predictions.is_empty());
            assert!(synth.is_parked());
            parked += 1;
        }
    }

    #[test]
    fn quantum_slicing_matches_unsliced_synthesis() {
        let full = scrape_trace(4, 6);
        let mut sliced = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        let mut unsliced = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        for k in 2..=4 {
            if k > 2 {
                sliced.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
                unsliced.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
            }
            let (rs, parked) = synthesize_in_quanta(&mut sliced);
            let ru = unsliced.synthesize();
            assert_eq!(rs.predictions, ru.predictions, "prefix {k}");
            assert_eq!(rs.programs.len(), ru.programs.len(), "prefix {k}");
            assert_eq!(rs.stats.fast_path, ru.stats.fast_path, "prefix {k}");
            if !rs.stats.fast_path {
                // A zero budget parks after every item but the last.
                assert!(parked > 0, "prefix {k} search was sliced");
            }
            assert!(!sliced.is_parked());
        }
    }

    #[test]
    fn large_quantum_completes_in_one_call() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(2, 5));
        let result = synth.synthesize_quantum(Duration::from_secs(3600));
        assert!(!result.stats.parked);
        assert!(!result.programs.is_empty());
        assert!(!synth.is_parked());
    }

    /// The timeout is checked between worklist items, never inside one:
    /// a zero timeout still processes one whole item, exactly as a
    /// zero-budget quantum does.
    #[test]
    fn a_zero_timeout_call_processes_one_whole_item() {
        let cfg = SynthConfig {
            timeout: Duration::ZERO,
            ..SynthConfig::default()
        };
        let unsliced = Synthesizer::new(cfg.clone(), scrape_trace(4, 6))
            .synthesize()
            .stats;
        let sliced = Synthesizer::new(cfg, scrape_trace(4, 6))
            .synthesize_quantum(Duration::ZERO)
            .stats;
        assert!(unsliced.timed_out && sliced.timed_out);
        assert_eq!(unsliced.pops, 1);
        assert_eq!(
            (unsliced.pops, unsliced.pushes, unsliced.validations),
            (sliced.pops, sliced.pushes, sliced.validations)
        );
    }

    #[test]
    fn an_unbounded_quantum_never_parks() {
        let mut sliced = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        let result = sliced.synthesize_quantum(Duration::MAX);
        assert!(!result.stats.parked);
        assert!(!sliced.is_parked());
        let reference = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6)).synthesize();
        assert_eq!(result.predictions, reference.predictions);
        assert_eq!(result.programs.len(), reference.programs.len());
        assert_eq!(result.stats.pops, reference.stats.pops);
    }

    #[test]
    fn observe_invalidates_a_parked_search() {
        let full = scrape_trace(3, 6);
        let mut synth = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        let first = synth.synthesize_quantum(Duration::ZERO);
        assert!(first.stats.parked, "zero budget parks after one item");
        synth.observe(full.actions()[2].clone(), full.doms()[3].clone());
        assert!(!synth.is_parked(), "observation cancels the parked search");
        let (result, _) = synthesize_in_quanta(&mut synth);
        let mut fresh = Synthesizer::new(SynthConfig::default(), full.prefix(3));
        let reference = fresh.synthesize();
        assert_eq!(result.predictions, reference.predictions);
    }

    #[test]
    fn resolve_stats_cover_the_call() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(2, 5));
        let result = synth.synthesize();
        assert!(
            result.stats.resolve_hits + result.stats.resolve_misses > 0,
            "synthesis resolves selectors through the cache"
        );
    }

    /// A digest adopted by a fresh synthesizer over the same trace is
    /// behaviorally identical to the original engine: same results now,
    /// same results after further observations (including the incremental
    /// fast path and the worklist resume).
    #[test]
    fn digest_adoption_matches_the_original_engine() {
        let full = scrape_trace(5, 8);
        let mut original = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        original.synthesize();

        let digest = original.digest().expect("concluded search has a digest");
        assert!(!digest.generalizing.is_empty());
        let mut adopted = Synthesizer::new(SynthConfig::default(), full.prefix(2));
        assert!(adopted.adopt_digest(&digest));

        for k in 3..=5 {
            original.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
            adopted.observe(full.actions()[k - 1].clone(), full.doms()[k].clone());
            let ro = original.synthesize();
            let ra = adopted.synthesize();
            assert_eq!(ro.stats.fast_path, ra.stats.fast_path, "prefix {k}");
            assert_eq!(ro.stats.pops, ra.stats.pops, "prefix {k}");
            assert_eq!(ro.predictions, ra.predictions, "prefix {k}");
            assert_eq!(ro.programs.len(), ra.programs.len(), "prefix {k}");
        }
    }

    /// Digest round-trip: capture → adopt → capture yields the same
    /// digest (the image is a faithful, stable projection of the state).
    #[test]
    fn digest_round_trips_through_adoption() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        synth.synthesize();
        let digest = synth.digest().unwrap();
        let mut adopted = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        assert!(adopted.adopt_digest(&digest));
        assert_eq!(adopted.digest().unwrap(), digest);
    }

    /// A digest shares the live engine's loop bodies: taking a snapshot
    /// copies no program tree.
    #[test]
    fn digests_share_loop_bodies_with_the_live_engine() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        synth.synthesize();
        let digest = synth.digest().unwrap();
        let mut loops = 0;
        for (live, image) in synth.generalizing_items().zip(&digest.generalizing) {
            for (a, b) in live.statements().iter().zip(image.statements()) {
                if let (Statement::ForeachSel(a), Statement::ForeachSel(b)) = (a, b) {
                    assert!(std::ptr::eq(a.body.as_ptr(), b.body.as_ptr()));
                    loops += 1;
                }
            }
        }
        assert!(loops > 0, "the generalizing programs are loops");
    }

    /// Inconsistent digests are rejected wholesale, leaving the adopting
    /// synthesizer untouched.
    #[test]
    fn tampered_digests_are_rejected_without_side_effects() {
        let mut donor = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        donor.synthesize();
        let good = donor.digest().unwrap();

        let mut with_bad_bounds = good.clone();
        with_bad_bounds.generalizing[0].bounds.reverse();
        let mut overlong = good.clone();
        overlong.synced_len = 99;
        let mut overcovering = good.clone();
        // An item claiming to cover more actions than the trace holds.
        assert!(!overcovering.processed.is_empty());
        *overcovering.processed[0].bounds.last_mut().unwrap() = 99;
        let mut non_generalizing = good.clone();
        // Swap a worklist item in as a "generalizing" program: the
        // adoption re-check executes it and finds it does not predict.
        non_generalizing.generalizing = vec![Item::initial(donor.trace())];

        for bad in [with_bad_bounds, overlong, overcovering, non_generalizing] {
            let mut target = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
            let before = target.digest().unwrap();
            assert!(!target.adopt_digest(&bad));
            assert_eq!(target.digest().unwrap(), before, "rejected ⇒ untouched");
        }
    }

    /// A parked sliced search has no digest (its stored state is
    /// mid-mutation); concluding the search restores capture.
    #[test]
    fn parked_searches_have_no_digest() {
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 6));
        let first = synth.synthesize_quantum(Duration::ZERO);
        assert!(first.stats.parked);
        assert!(synth.digest().is_none());
        synthesize_in_quanta(&mut synth);
        assert!(synth.digest().is_some());
    }

    #[test]
    fn predictions_are_deduplicated_by_node() {
        // Children(...) and Dscts(...) loops predict syntactically
        // different but node-identical actions: one prediction surfaces.
        let mut synth = Synthesizer::new(SynthConfig::default(), scrape_trace(3, 5));
        let result = synth.synthesize();
        assert!(result.programs.len() >= 2, "ambiguity exists");
        assert_eq!(result.predictions.len(), 1);
    }
}
