//! Flat predicate programs: the compiled form of stage-2 chain execution.
//!
//! Stage 2 determines, per candidate expression, whether a chained
//! occurrence combination exists across the expression's predicate lists
//! (Algorithm 1). The interpreted form walks the expression's `PredId`
//! chain through [`MatchContext::get`] on every backtracking probe — each
//! probe re-runs the slot bounds check and list-epoch test, and for trie
//! terminals re-derives the chain slice from the packed arena.
//!
//! A [`PredPrograms`] store compiles every entry (flat expression or trie
//! terminal) into a contiguous run of pre-resolved dispatch slots in one
//! shared op array. Execution resolves each slot to its pair list exactly
//! once up front — merging Algorithm 1's empty-list pre-scan (lines 2–6)
//! with the load — and then backtracks over the pinned slices with no
//! per-probe indirection. Entries whose sinks carry postponed attribute
//! checks are flagged at compile time (`needs_filter`), pre-resolving the
//! fast-path/filtered-path dispatch that the interpreted loop re-derives
//! from sink inspection per document.
//!
//! Programs are compiled at `prepare()`/compaction and extended in O(chain
//! length) by the incremental patch path, mirroring the entry stores they
//! shadow (flat entry order, packed-trie terminal order).

use crate::occurrence::determine_match_by;
use pxf_predicate::{MatchContext, PredId};

/// Expressions at most this deep execute with a stack-pinned slice array;
/// deeper ones take one heap allocation. Mirrors the occurrence module's
/// stack budget.
const STACK_LEVELS: usize = 16;

/// Compiled predicate programs for one entry store (the flat expression
/// table or the packed trie's terminal table), indexed by entry id.
#[derive(Debug, Default, Clone)]
pub(crate) struct PredPrograms {
    /// CSR offsets into `ops`: entry `e` owns `ops[starts[e]..starts[e+1]]`.
    /// Always non-empty (leading 0), so `len() == starts.len() - 1`.
    starts: Vec<u32>,
    /// Pre-resolved dispatch slots, contiguous per entry.
    ops: Vec<PredId>,
    /// Per entry: true when its sinks carry postponed attribute checks, so
    /// structure-only execution cannot resolve it and the caller must take
    /// the filtered path.
    filtered: Vec<bool>,
}

impl PredPrograms {
    /// Drops all programs (prelude to a full recompile).
    pub(crate) fn clear(&mut self) {
        self.starts.clear();
        self.ops.clear();
        self.filtered.clear();
    }

    /// Number of compiled entries.
    pub(crate) fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Appends the program for the next entry id and returns that id.
    /// Callers push in entry-id order so programs stay aligned with the
    /// store they shadow.
    pub(crate) fn push_chain(&mut self, chain: &[PredId], needs_filter: bool) -> u32 {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.ops.extend_from_slice(chain);
        self.starts.push(self.ops.len() as u32);
        self.filtered.push(needs_filter);
        (self.starts.len() - 2) as u32
    }

    /// True when `entry` cannot be resolved by structure-only execution
    /// (its sinks re-determine with attribute admissibility).
    #[inline]
    pub(crate) fn needs_filter(&self, entry: u32) -> bool {
        self.filtered[entry as usize]
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.starts.len() * 4 + self.ops.len() * 4 + self.filtered.len()
    }

    /// Executes program `entry` against the current publication: resolves
    /// every slot once (early-exiting on an empty list, Algorithm 1 lines
    /// 2–6), then runs occurrence determination over the pinned slices.
    /// `runs` is bumped only when the preload completes and the search
    /// actually runs — the same accounting as the interpreted path, which
    /// pre-scans for empty lists before counting an occurrence run.
    #[inline]
    pub(crate) fn execute(&self, entry: u32, ctx: &MatchContext, runs: &mut u64) -> bool {
        let e = entry as usize;
        let ops = &self.ops[self.starts[e] as usize..self.starts[e + 1] as usize];
        let n = ops.len();
        if n == 0 {
            return false;
        }
        // Fail-fast pre-scan before touching any slot storage: in scan
        // mode the overwhelmingly common outcome is an unsatisfied
        // predicate on the first slot or two (one bit test each), and
        // initializing the slot array up front costs more than the whole
        // rejected probe.
        if !ops.iter().all(|&pid| ctx.is_matched(pid)) {
            return false;
        }
        *runs += 1;
        if n <= STACK_LEVELS {
            let mut lists: [&[(u16, u16)]; STACK_LEVELS] = [&[]; STACK_LEVELS];
            for (slot, &pid) in lists.iter_mut().zip(ops) {
                *slot = ctx.get(pid);
            }
            determine_match_by(n, |i| lists[i])
        } else {
            let lists: Vec<&[(u16, u16)]> = ops.iter().map(|&pid| ctx.get(pid)).collect();
            determine_match_by(n, |i| lists[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(lists: &[(PredId, &[(u16, u16)])], npreds: usize) -> MatchContext {
        let mut ctx = MatchContext::new();
        ctx.begin(npreds);
        for &(pid, pairs) in lists {
            for &pair in pairs {
                ctx.push(pid, pair);
            }
        }
        ctx
    }

    #[test]
    fn executes_like_the_interpreter() {
        let (a, b, c) = (PredId(0), PredId(1), PredId(2));
        let mut progs = PredPrograms::default();
        assert_eq!(progs.push_chain(&[a, b], false), 0);
        assert_eq!(progs.push_chain(&[a, b, c], true), 1);
        assert_eq!(progs.len(), 2);
        assert!(progs.needs_filter(1));
        assert!(!progs.needs_filter(0));

        // a:(1,2) chains to b:(2,3); c only has (9,9) which does not chain.
        let ctx = ctx_with(&[(a, &[(5, 5), (1, 2)]), (b, &[(2, 3)]), (c, &[(9, 9)])], 3);
        let mut runs = 0u64;
        assert!(progs.execute(0, &ctx, &mut runs));
        assert!(!progs.execute(1, &ctx, &mut runs));
        assert_eq!(runs, 2, "both preloads complete, both searches run");

        let chains: [&[PredId]; 2] = [&[a, b], &[a, b, c]];
        for (e, chain) in chains.iter().enumerate() {
            assert_eq!(
                progs.execute(e as u32, &ctx, &mut runs),
                determine_match_by(chain.len(), |i| ctx.get(chain[i])),
            );
        }
    }

    #[test]
    fn empty_list_and_stale_epoch_reject() {
        let a = PredId(0);
        let b = PredId(1);
        let mut progs = PredPrograms::default();
        progs.push_chain(&[a, b], false);

        // b never pushed: empty list ⇒ no match, and no run counted (the
        // interpreted path's empty pre-scan doesn't count one either).
        let mut runs = 0u64;
        let ctx = ctx_with(&[(a, &[(1, 1)])], 2);
        assert!(!progs.execute(0, &ctx, &mut runs));
        assert_eq!(runs, 0);

        // A new publication invalidates previous pushes.
        let mut ctx = ctx_with(&[(a, &[(1, 1)]), (b, &[(1, 1)])], 2);
        assert!(progs.execute(0, &ctx, &mut runs));
        assert_eq!(runs, 1);
        ctx.begin(2);
        assert!(!progs.execute(0, &ctx, &mut runs));
        assert_eq!(runs, 1);
    }

    #[test]
    fn deep_chain_takes_heap_path() {
        let n = STACK_LEVELS + 4;
        let chain: Vec<PredId> = (0..n as u32).map(PredId).collect();
        let mut progs = PredPrograms::default();
        progs.push_chain(&chain, false);
        let mut ctx = MatchContext::new();
        ctx.begin(n);
        for (i, &pid) in chain.iter().enumerate() {
            ctx.push(pid, (i as u16, i as u16 + 1));
        }
        let mut runs = 0u64;
        assert!(progs.execute(0, &ctx, &mut runs));
        // Break the chain in the middle.
        ctx.begin(n);
        for (i, &pid) in chain.iter().enumerate() {
            let first = if i == n / 2 { 99 } else { i as u16 };
            ctx.push(pid, (first, i as u16 + 1));
        }
        assert!(!progs.execute(0, &ctx, &mut runs));
        assert_eq!(runs, 2, "all lists non-empty: both searches ran");
    }

    #[test]
    fn clear_resets() {
        let mut progs = PredPrograms::default();
        progs.push_chain(&[PredId(0)], false);
        assert_eq!(progs.len(), 1);
        assert!(progs.bytes() > 0);
        progs.clear();
        assert_eq!(progs.len(), 0);
        progs.push_chain(&[PredId(1)], true);
        assert_eq!(progs.len(), 1);
        assert!(progs.needs_filter(0));
    }
}
