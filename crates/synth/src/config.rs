//! Synthesizer tuning knobs, including the ablation switches of paper §7.2.

use std::time::Duration;

/// Configuration of the synthesis engine.
///
/// The defaults reproduce the paper's full-fledged configuration; the two
/// ablation variants of Table 1 are [`SynthConfig::no_selector`] and
/// [`SynthConfig::no_incremental`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthConfig {
    /// Consider alternative selectors during anti-unification and
    /// parametrization (paper's "selector search"). When `false`, only the
    /// recorded selectors themselves are used — the *No selector* ablation.
    pub alternative_selectors: bool,
    /// Share the worklist across synthesis runs (paper §5.4). When `false`,
    /// every call to [`Synthesizer::synthesize`](crate::Synthesizer) starts
    /// from scratch — the *No incremental* ablation.
    pub incremental: bool,
    /// Maximum number of statements in a speculated loop's first iteration
    /// (window `[S_i, ··, S_j]` in Alg. 2). Bounds the cubic enumeration;
    /// part of the "additional optimizations" the paper defers to its
    /// extended version.
    pub max_window: usize,
    /// Cap on the Cartesian product of per-statement parametrization
    /// choices when assembling loop bodies (Alg. 2 line 5).
    pub max_bodies_per_seed: usize,
    /// Cap on alternative selectors per node (forwarded to `webrobot-dom`).
    pub max_alternatives: usize,
    /// Wall-clock budget per [`Synthesizer::synthesize`](crate::Synthesizer)
    /// call (the paper's per-test timeout is 1 s), or per sliced search
    /// summed over its quanta. Checked between worklist items: a call
    /// processes at least one item and may overrun by the item in hand.
    pub timeout: Duration,
    /// Safety cap on worklist + processed items kept across runs.
    pub max_items: usize,
    /// Maximum number of generalizing programs retained for ranking.
    pub max_programs: usize,
    /// Maximum number of distinct predictions surfaced to the user
    /// (the paper's front-end shows multiple predictions; max observed 6).
    pub max_predictions: usize,
    /// Memoize anti-unification and parametrization results in the
    /// [`SynthContext`](crate::SynthContext) so the same canonicalized
    /// statement pair is analyzed once instead of once per enclosing
    /// speculation window. Purely an optimization: predictions are
    /// unchanged (see `tests/differential.rs`).
    pub memoization: bool,
    /// Cap on entries per memo table. Once a table is full, further
    /// results are computed but not stored (lookups still hit).
    pub memo_capacity: usize,
    /// Skip speculation windows whose statement-kind sequences cannot
    /// form two loop iterations, using a precomputed run-length table
    /// instead of entering the inner anti-unification loop.
    pub window_pruning: bool,
    /// Dirty-track incremental state: cached generalizing programs keep a
    /// resumable execution cursor (advanced one step per observed action
    /// instead of re-executed over the whole trace), and stored worklist
    /// items are re-extended lazily on pop instead of eagerly on every
    /// observation. Disable for the ablation/differential reference.
    pub dirty_tracking: bool,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            alternative_selectors: true,
            incremental: true,
            max_window: 8,
            max_bodies_per_seed: 64,
            max_alternatives: 64,
            timeout: Duration::from_secs(1),
            max_items: 20_000,
            max_programs: 128,
            max_predictions: 6,
            memoization: true,
            memo_capacity: 65_536,
            window_pruning: true,
            dirty_tracking: true,
        }
    }
}

impl SynthConfig {
    /// The *No selector* ablation of Table 1: alternative-selector search
    /// disabled, everything else as in the full configuration.
    pub fn no_selector() -> SynthConfig {
        SynthConfig {
            alternative_selectors: false,
            ..SynthConfig::default()
        }
    }

    /// The *No incremental* ablation of Table 1: every synthesis run starts
    /// from scratch.
    pub fn no_incremental() -> SynthConfig {
        SynthConfig {
            incremental: false,
            ..SynthConfig::default()
        }
    }

    /// Every hot-path optimization of the speculation/incremental rework
    /// disabled: no memo tables, no window pruning, no dirty tracking.
    /// This is the reference configuration the differential test harness
    /// compares against — it must predict exactly what the full
    /// configuration predicts, only slower.
    pub fn no_optimizations() -> SynthConfig {
        SynthConfig {
            memoization: false,
            window_pruning: false,
            dirty_tracking: false,
            ..SynthConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_flip_exactly_one_switch() {
        let full = SynthConfig::default();
        let no_sel = SynthConfig::no_selector();
        let no_inc = SynthConfig::no_incremental();
        assert!(full.alternative_selectors && full.incremental);
        assert!(!no_sel.alternative_selectors && no_sel.incremental);
        assert!(no_inc.alternative_selectors && !no_inc.incremental);
    }

    #[test]
    fn optimizations_default_on_and_ablate_together() {
        let full = SynthConfig::default();
        assert!(full.memoization && full.window_pruning && full.dirty_tracking);
        let plain = SynthConfig::no_optimizations();
        assert!(!plain.memoization && !plain.window_pruning && !plain.dirty_tracking);
        // The semantic switches are untouched: this is a perf ablation.
        assert!(plain.alternative_selectors && plain.incremental);
    }
}
