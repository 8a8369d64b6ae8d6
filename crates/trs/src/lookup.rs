//! TRS-Tree lookup — Algorithm 2 of the paper.
//!
//! A lookup takes a predicate range `[lb, ub]` on the target column and
//! returns approximate results: a set of *host-column ranges* (from the
//! leaf models) plus a set of *tuple ids* (from outlier buffers). The
//! returned ranges are unioned — overlapping intervals produced by adjacent
//! leaves are merged — before Hermit probes the host index with them.

use crate::node::{NodeId, NodeKind, TrsTree};
use hermit_storage::Tid;
use std::collections::VecDeque;

/// Approximate result of a TRS-Tree lookup.
#[derive(Debug, Clone, Default)]
pub struct TrsLookup {
    /// Unioned host-column ranges that cover all model-predicted matches.
    pub ranges: Vec<(f64, f64)>,
    /// Tuple ids pulled directly from outlier buffers; these bypass the
    /// host index entirely (§4.3).
    pub tids: Vec<Tid>,
}

impl TrsLookup {
    /// Total width of all returned host ranges (used by false-positive
    /// accounting in the benchmarks).
    pub fn total_range_width(&self) -> f64 {
        self.ranges.iter().map(|(lo, hi)| hi - lo).sum()
    }
}

/// Reusable traversal scratch for [`TrsTree::lookup_into`]: the BFS queue
/// survives across lookups so a batch of queries stops paying one queue
/// allocation (plus growth) per query.
#[derive(Debug, Default)]
pub struct LookupScratch {
    queue: VecDeque<NodeId>,
}

/// Merge possibly-overlapping intervals into a minimal union, in place
/// (Algorithm 2's final `Union(RS)` step).
pub fn union_ranges_in_place(ranges: &mut Vec<(f64, f64)>) {
    if ranges.len() <= 1 {
        return;
    }
    ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut w = 0usize;
    for i in 1..ranges.len() {
        let (lo, hi) = ranges[i];
        if lo <= ranges[w].1 {
            ranges[w].1 = ranges[w].1.max(hi);
        } else {
            w += 1;
            ranges[w] = (lo, hi);
        }
    }
    ranges.truncate(w + 1);
}

/// Allocating wrapper around [`union_ranges_in_place`].
pub fn union_ranges(mut ranges: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    union_ranges_in_place(&mut ranges);
    ranges
}

impl TrsTree {
    /// Range lookup over `[lb, ub]` on the target column (Algorithm 2).
    ///
    /// Runs a breadth-first traversal from the root; every leaf whose range
    /// overlaps the predicate contributes its model band over the
    /// intersection, plus any buffered outliers inside it.
    pub fn lookup(&self, lb: f64, ub: f64) -> TrsLookup {
        let mut result = TrsLookup::default();
        self.lookup_into(lb, ub, &mut LookupScratch::default(), &mut result);
        result
    }

    /// Allocation-lean form of [`lookup`](Self::lookup): clears and refills
    /// `out` (whose `ranges`/`tids` buffers keep their capacity) and reuses
    /// the BFS queue in `scratch`. The query pipeline calls this once per
    /// query with buffers that live across a batch.
    pub fn lookup_into(&self, lb: f64, ub: f64, scratch: &mut LookupScratch, out: &mut TrsLookup) {
        out.ranges.clear();
        out.tids.clear();
        if lb > ub {
            return;
        }
        // Out-of-domain inserts clamp to edge leaves (Algorithm 3's
        // Traverse), so their buffered keys can lie outside the root range.
        // Traverse with bounds clamped into the domain — which routes
        // past-the-edge predicates to the edge leaves — but collect
        // outliers with the *raw* predicate so those keys are found.
        let root_range = self.node(self.root).range;
        let tlb = lb.clamp(root_range.lb, root_range.ub);
        let tub = ub.clamp(root_range.lb, root_range.ub);
        let queue = &mut scratch.queue;
        queue.clear();
        queue.push_back(self.root);
        while let Some(id) = queue.pop_front() {
            let node = self.node(id);
            match &node.kind {
                NodeKind::Leaf(leaf) => {
                    let Some(r) = node.range.intersect(tlb, tub) else { continue };
                    // The model band only covers the in-domain part of the
                    // predicate; skip leaves that never covered data (their
                    // constant(0) placeholder model would pollute the host
                    // ranges).
                    if leaf.covered > 0
                        && r.lb <= r.ub
                        && ub >= root_range.lb
                        && lb <= root_range.ub
                    {
                        out.ranges.push(leaf.model.range_band(r.lb, r.ub, leaf.eps));
                    }
                    // Outliers use the raw predicate (edge leaves may
                    // buffer out-of-domain keys).
                    leaf.outliers.collect_range(lb, ub, &mut out.tids);
                }
                NodeKind::Internal { children } => {
                    for &child in children {
                        if self.node(child).range.overlaps(tlb, tub) {
                            queue.push_back(child);
                        }
                    }
                }
            }
        }
        union_ranges_in_place(&mut out.ranges);
    }

    /// Point lookup: a range lookup with `lb == ub` (§4.3).
    pub fn lookup_point(&self, m: f64) -> TrsLookup {
        self.lookup(m, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TrsParams;
    use crate::TrsTree;

    fn linear_tree(n: usize) -> TrsTree {
        let pairs: Vec<(f64, f64, Tid)> =
            (0..n).map(|i| (i as f64, 2.0 * i as f64 + 1.0, Tid(i as u64))).collect();
        TrsTree::build(TrsParams::default(), (0.0, (n - 1) as f64), pairs)
    }

    fn sigmoid_tree(n: usize) -> TrsTree {
        let pairs: Vec<(f64, f64, Tid)> = (0..n)
            .map(|i| {
                let m = i as f64 / n as f64 * 20.0 - 10.0;
                (m, 1000.0 / (1.0 + (-m).exp()), Tid(i as u64))
            })
            .collect();
        TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs)
    }

    #[test]
    fn union_merges_overlaps() {
        let merged = union_ranges(vec![(5.0, 7.0), (1.0, 3.0), (2.0, 6.0), (10.0, 11.0)]);
        assert_eq!(merged, vec![(1.0, 7.0), (10.0, 11.0)]);
        assert_eq!(union_ranges(vec![]), vec![]);
        assert_eq!(union_ranges(vec![(1.0, 2.0)]), vec![(1.0, 2.0)]);
        // Touching intervals merge.
        assert_eq!(union_ranges(vec![(1.0, 2.0), (2.0, 3.0)]), vec![(1.0, 3.0)]);
    }

    #[test]
    fn point_lookup_band_covers_true_host_value() {
        let tree = linear_tree(10_000);
        for m in [0.0, 1.0, 4999.0, 9999.0] {
            let result = tree.lookup_point(m);
            assert_eq!(result.ranges.len(), 1);
            let (lo, hi) = result.ranges[0];
            let truth = 2.0 * m + 1.0;
            assert!(
                lo <= truth && truth <= hi,
                "band [{lo}, {hi}] misses true host value {truth} at m={m}"
            );
        }
    }

    #[test]
    fn range_lookup_band_covers_all_true_values() {
        let tree = sigmoid_tree(30_000);
        let (lb, ub) = (-2.0, 2.0);
        let result = tree.lookup(lb, ub);
        assert!(!result.ranges.is_empty());
        // Every true (m, n) pair in the predicate must fall in some band or
        // be a buffered outlier — TRS-Tree guarantees no false negatives.
        for i in 0..30_000 {
            let m = i as f64 / 30_000.0 * 20.0 - 10.0;
            if m < lb || m > ub {
                continue;
            }
            let n = 1000.0 / (1.0 + (-m).exp());
            let in_band = result.ranges.iter().any(|(lo, hi)| n >= *lo && n <= *hi);
            let in_outliers = result.tids.contains(&Tid(i as u64));
            assert!(in_band || in_outliers, "tuple (m={m}, n={n}) lost");
        }
    }

    #[test]
    fn outliers_returned_as_direct_tids() {
        let mut pairs: Vec<(f64, f64, Tid)> =
            (0..10_000).map(|i| (i as f64, i as f64, Tid(i as u64))).collect();
        pairs[5_000].1 = 1.0e9; // an extreme outlier at m = 5000
        let tree = TrsTree::build(TrsParams::default(), (0.0, 9_999.0), pairs);
        let result = tree.lookup(4_999.0, 5_001.0);
        assert!(
            result.tids.contains(&Tid(5_000)),
            "outlier tuple must come back via the buffer, got {:?}",
            result.tids
        );
        // And a disjoint lookup must not return it.
        let result = tree.lookup(0.0, 100.0);
        assert!(!result.tids.contains(&Tid(5_000)));
    }

    #[test]
    fn lookup_into_with_reused_scratch_matches_lookup() {
        let tree = sigmoid_tree(30_000);
        let mut scratch = LookupScratch::default();
        let mut out = TrsLookup::default();
        // Reuse the same scratch + output buffers across dissimilar
        // predicates (wide, point, narrow, inverted); results must match
        // the allocating path exactly, with no leftovers between calls.
        for (lb, ub) in [(-2.0, 2.0), (0.0, 0.0), (5.0, 9.0), (3.0, 1.0), (-2.0, 2.0)] {
            tree.lookup_into(lb, ub, &mut scratch, &mut out);
            let fresh = tree.lookup(lb, ub);
            assert_eq!(out.ranges, fresh.ranges, "ranges diverge on [{lb}, {ub}]");
            assert_eq!(out.tids, fresh.tids, "tids diverge on [{lb}, {ub}]");
        }
    }

    #[test]
    fn inverted_and_disjoint_predicates_are_empty() {
        let tree = linear_tree(1_000);
        let r = tree.lookup(10.0, 5.0);
        assert!(r.ranges.is_empty() && r.tids.is_empty());
        let r = tree.lookup(5_000.0, 6_000.0);
        assert!(r.ranges.is_empty() && r.tids.is_empty());
    }

    #[test]
    fn predicate_partially_overlapping_domain() {
        let tree = linear_tree(1_000);
        let r = tree.lookup(-100.0, 10.0);
        assert_eq!(r.ranges.len(), 1);
        let (lo, hi) = r.ranges[0];
        assert!(lo <= 1.0 && hi >= 21.0, "band [{lo}, {hi}] should cover hosts 1..=21");
    }

    #[test]
    fn error_bound_widens_returned_ranges() {
        let pairs: Vec<(f64, f64, Tid)> = (0..10_000)
            .map(|i| {
                let m = i as f64;
                // slight non-linearity so eps actually matters
                (m, m + (m / 100.0).sin() * 5.0, Tid(i as u64))
            })
            .collect();
        let narrow =
            TrsTree::build(TrsParams::with_error_bound(1.0), (0.0, 9_999.0), pairs.clone());
        let wide = TrsTree::build(TrsParams::with_error_bound(10_000.0), (0.0, 9_999.0), pairs);
        let wn = narrow.lookup(100.0, 110.0).total_range_width();
        let ww = wide.lookup(100.0, 110.0).total_range_width();
        assert!(ww > wn, "larger error_bound must widen ranges: {wn} vs {ww}");
    }
}
