//! Blame analysis: turn a finished [`Ledger`] into per-node cause breakdowns,
//! the barrier-determiner critical path, and a blame ranking.
//!
//! Two complementary signals, following the what-if-analysis paper's
//! aggregation:
//!
//! * **Critical-path blame** — each barrier record names the node that closed
//!   the barrier and its margin over the runner-up; summing a node's margins
//!   is the JCT the fleet would analytically recover if that node had matched
//!   its fastest peer. This is exact for barriered strategies (BSP, ring).
//! * **Excess-over-median blame** — per cause, a node's time above the fleet
//!   median within its role group (workers vs servers). This is the fallback
//!   signal for barrier-free strategies (ASP) where no single arrival
//!   determines progress.
//!
//! The blame score is the critical-path sum when barrier records exist and
//! the excess sum otherwise; [`Analysis::blame`] is sorted by descending
//! score so `blame[0]` is the top-blamed node.

use crate::ledger::{Ledger, WaitCause};

/// One node's share of the decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeBreakdown {
    pub node: u32,
    /// Attributed wall time; equals `totals_us` summed (conservation).
    pub wall_us: u64,
    /// Per-cause totals, indexed by [`WaitCause::index`].
    pub totals_us: [u64; WaitCause::COUNT],
    /// Killed without failover: the timeline is frozen at the kill instant.
    pub dead: bool,
}

/// One critical-path segment: the barrier `iter` was determined by `node`,
/// `gap_us` later than the runner-up arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CritSegment {
    pub iter: u64,
    pub node: u32,
    pub gap_us: u64,
}

/// A node's blame: both signals plus the headline score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    pub node: u32,
    /// Sum of the node's determiner margins over all barriers.
    pub crit_us: u64,
    /// Sum over causes of the node's time above its role group's median.
    pub excess_us: u64,
    /// `crit_us` when any barrier was recorded, `excess_us` otherwise.
    pub score_us: u64,
}

/// The full attribution analysis of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Job end (finalize instant); live nodes' `wall_us` equals this.
    pub end_us: u64,
    /// Per-node breakdowns, ascending node id.
    pub nodes: Vec<NodeBreakdown>,
    /// Critical-path segments in barrier order.
    pub crit: Vec<CritSegment>,
    /// Blame ranking, descending score (ties toward the smaller node id).
    pub blame: Vec<BlameEntry>,
}

/// Lower median of a non-empty slice (exact in integer microseconds; no
/// interpolation so the excess arithmetic stays ε = 0).
fn median(vals: &mut [u64]) -> u64 {
    if vals.is_empty() {
        return 0;
    }
    vals.sort_unstable();
    vals[(vals.len() - 1) / 2]
}

/// Run the blame analysis on a finalized ledger.
pub fn analyze(l: &Ledger, end_us: u64) -> Analysis {
    let ids = l.node_ids();
    let nodes: Vec<NodeBreakdown> = ids
        .iter()
        .map(|&n| NodeBreakdown {
            node: n,
            wall_us: l.wall_us(n),
            totals_us: l.totals(n),
            dead: l.is_dead(n),
        })
        .collect();

    // Per-role, per-cause fleet medians. Dead nodes are excluded — their
    // truncated timelines would drag the median down and inflate everyone
    // else's excess.
    let mut medians: [[u64; WaitCause::COUNT]; 2] = [[0; WaitCause::COUNT]; 2];
    for (role, is_role) in
        [(0usize, (|n: u32| n < 1000) as fn(u32) -> bool), (1, (|n: u32| n >= 1000) as _)]
    {
        for (c, slot) in medians[role].iter_mut().enumerate() {
            let mut vals: Vec<u64> = nodes
                .iter()
                .filter(|b| is_role(b.node) && !b.dead)
                .map(|b| b.totals_us[c])
                .collect();
            *slot = median(&mut vals);
        }
    }

    let crit: Vec<CritSegment> = l
        .barriers()
        .iter()
        .map(|b| CritSegment {
            iter: b.iter,
            node: b.node,
            gap_us: b.arrival_us.saturating_sub(b.runner_up_us),
        })
        .collect();
    let have_barriers = !crit.is_empty();

    let mut blame: Vec<BlameEntry> = nodes
        .iter()
        .map(|b| {
            let crit_us = crit.iter().filter(|c| c.node == b.node).map(|c| c.gap_us).sum();
            let m = &medians[usize::from(b.node >= 1000)];
            let excess_us =
                (0..WaitCause::COUNT).map(|c| b.totals_us[c].saturating_sub(m[c])).sum();
            let score_us = if have_barriers { crit_us } else { excess_us };
            BlameEntry { node: b.node, crit_us, excess_us, score_us }
        })
        .collect();
    blame.sort_by(|a, b| b.score_us.cmp(&a.score_us).then(a.node.cmp(&b.node)));

    Analysis { end_us, nodes, crit, blame }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straggler_ledger() -> Ledger {
        // Three workers; worker 2 is slow and determines every barrier.
        let mut l = Ledger::new();
        for iter in 0..4u64 {
            let base = iter * 1_000;
            for w in 0..3u32 {
                let compute = if w == 2 { 900 } else { 500 };
                l.sync_to(w, base, 0);
                l.fill(w, base + compute, WaitCause::Compute);
                l.fill(w, base + compute + 50, WaitCause::Comm);
            }
            l.barrier(iter, &[(0, base + 550), (1, base + 550), (2, base + 950)]);
        }
        l.finalize(4_000);
        l
    }

    #[test]
    fn top_blame_is_the_barrier_determiner() {
        let l = straggler_ledger();
        l.check_conservation().unwrap();
        let a = analyze(&l, 4_000);
        assert_eq!(a.blame[0].node, 2);
        // 4 barriers x (950 - 550) margin.
        assert_eq!(a.blame[0].crit_us, 4 * 400);
        assert_eq!(a.blame[0].score_us, a.blame[0].crit_us);
        assert_eq!(a.crit.len(), 4);
        assert!(a.crit.iter().all(|c| c.node == 2 && c.gap_us == 400));
    }

    #[test]
    fn excess_signal_flags_the_compute_outlier() {
        let l = straggler_ledger();
        let a = analyze(&l, 4_000);
        let slow = a.blame.iter().find(|b| b.node == 2).unwrap();
        // Worker 2 computes 400us/iter above the 500us median.
        assert!(slow.excess_us >= 4 * 400);
        let fast = a.blame.iter().find(|b| b.node == 0).unwrap();
        assert!(fast.excess_us < slow.excess_us);
    }

    #[test]
    fn no_barriers_falls_back_to_excess() {
        let mut l = Ledger::new();
        l.fill(0, 100, WaitCause::Compute);
        l.fill(1, 100, WaitCause::Compute);
        l.fill(2, 300, WaitCause::Compute);
        l.finalize(300);
        let a = analyze(&l, 300);
        assert!(a.crit.is_empty());
        assert_eq!(a.blame[0].node, 2);
        assert_eq!(a.blame[0].score_us, a.blame[0].excess_us);
        // Worker 2 is 200us of compute above the fleet median of 100us; its
        // zero sync wait sits below the median, contributing nothing.
        assert_eq!(a.blame[0].score_us, 200);
    }

    #[test]
    fn breakdown_conserves() {
        let a = analyze(&straggler_ledger(), 4_000);
        for n in &a.nodes {
            assert_eq!(n.totals_us.iter().sum::<u64>(), n.wall_us);
            assert_eq!(n.wall_us, 4_000);
        }
    }
}
