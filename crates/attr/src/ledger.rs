//! The per-node time ledger: every microsecond of a node's wall time is
//! attributed to exactly one [`WaitCause`].
//!
//! The ledger is *cursor-chained*: each node carries a cursor (the end of its
//! attributed timeline, starting at virtual time zero) and every
//! [`Ledger::fill`] extends the timeline contiguously from the cursor to a
//! target instant. There is no way to leave a hole or to double-book an
//! interval, so conservation — `sum(per-cause totals) == cursor` — holds by
//! construction and [`Ledger::check_conservation`] re-verifies it from the
//! segment list in integer microseconds (ε = 0).

use std::collections::BTreeMap;

/// Why a node spent an interval of wall time. Exactly one cause per interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// Forward/backward passes, including iterations replayed after a rewind.
    Compute,
    /// Waiting on the DDS for a shard lease: starvation polls and the
    /// per-batch lease-sync overhead.
    DataWait,
    /// Parked at a BSP/ring barrier, or idle waiting for peers (includes
    /// a finished worker waiting for the fleet to drain).
    SyncWait,
    /// Gradient push, parameter pull, or ring all-reduce transfer time.
    Comm,
    /// Trailing share of an idle gap spent waiting on a late control-bus
    /// directive (zero under the default `Ideal` channel).
    ControlBus,
    /// Copy-on-snapshot server stall while a checkpoint is captured.
    CkptStall,
    /// Failover window between a kill and the replacement pod's first step
    /// (includes checkpoint read-back under replay recovery).
    FaultRecovery,
}

impl WaitCause {
    /// Number of causes; per-cause totals are `[u64; COUNT]` indexed by
    /// [`WaitCause::index`].
    pub const COUNT: usize = 7;

    /// Every cause, in index order.
    pub const ALL: [WaitCause; Self::COUNT] = [
        WaitCause::Compute,
        WaitCause::DataWait,
        WaitCause::SyncWait,
        WaitCause::Comm,
        WaitCause::ControlBus,
        WaitCause::CkptStall,
        WaitCause::FaultRecovery,
    ];

    /// Stable snake_case label (Prometheus label values, trace track names,
    /// golden dumps).
    pub fn as_str(self) -> &'static str {
        match self {
            WaitCause::Compute => "compute",
            WaitCause::DataWait => "data_wait",
            WaitCause::SyncWait => "sync_wait",
            WaitCause::Comm => "comm",
            WaitCause::ControlBus => "control_bus",
            WaitCause::CkptStall => "ckpt_stall",
            WaitCause::FaultRecovery => "fault_recovery",
        }
    }

    /// Position in [`WaitCause::ALL`] and in per-cause total arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One attributed interval `[start_us, end_us)` of a node's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seg {
    pub start_us: u64,
    pub end_us: u64,
    pub cause: WaitCause,
}

/// A barrier close: which node determined it and by how much. Fed by the
/// BSP/ring drivers (one record per iteration/round with ≥ 2 arrivals); the
/// determiner's margin over the runner-up is the iteration's critical-path
/// slack attributable to that node alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierRec {
    /// Iteration (BSP) or round (ring) ordinal.
    pub iter: u64,
    /// The last node to arrive — the barrier's determiner.
    pub node: u32,
    /// The determiner's arrival instant.
    pub arrival_us: u64,
    /// The second-latest arrival: where the barrier would have closed had the
    /// determiner been as fast as the rest.
    pub runner_up_us: u64,
}

#[derive(Clone, Debug)]
struct NodeLedger {
    /// End of the attributed timeline (timeline starts at virtual time 0).
    cursor: u64,
    /// Cause to charge the *next* idle gap to (set while the gap is open,
    /// consumed by the next [`Ledger::sync_to`]).
    pending: WaitCause,
    /// Per-cause totals, indexed by [`WaitCause::index`].
    totals: [u64; WaitCause::COUNT],
    /// Contiguous attributed segments (adjacent same-cause segments coalesce).
    segs: Vec<Seg>,
    /// A dead node's timeline is frozen: kills without failover stop the
    /// clock at the kill instant and `finalize` skips the node.
    dead: bool,
}

impl Default for NodeLedger {
    fn default() -> Self {
        NodeLedger {
            cursor: 0,
            pending: WaitCause::SyncWait,
            totals: [0; WaitCause::COUNT],
            segs: Vec::new(),
            dead: false,
        }
    }
}

/// Per-node attribution ledgers plus the barrier record stream.
///
/// Node ids follow the runtime's lane convention: workers are `w`, servers
/// are `1000 + s`.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    nodes: BTreeMap<u32, NodeLedger>,
    barriers: Vec<BarrierRec>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Attribute `[cursor, to_us)` of `node`'s timeline to `cause` and
    /// advance the cursor. No-op if the target is not ahead of the cursor or
    /// the node is dead.
    pub fn fill(&mut self, node: u32, to_us: u64, cause: WaitCause) {
        let nl = self.nodes.entry(node).or_default();
        if nl.dead || to_us <= nl.cursor {
            return;
        }
        nl.totals[cause.index()] += to_us - nl.cursor;
        match nl.segs.last_mut() {
            Some(s) if s.cause == cause && s.end_us == nl.cursor => s.end_us = to_us,
            _ => nl.segs.push(Seg { start_us: nl.cursor, end_us: to_us, cause }),
        }
        nl.cursor = to_us;
    }

    /// Close the open idle gap `[cursor, to_us)` with the pending cause,
    /// carving the trailing `ctrl_us` (clamped to the gap) as [`ControlBus`]
    /// — the share of the wait spent on a late directive — then reset the
    /// pending cause to the default `SyncWait`.
    ///
    /// [`ControlBus`]: WaitCause::ControlBus
    pub fn sync_to(&mut self, node: u32, to_us: u64, ctrl_us: u64) {
        let nl = self.nodes.entry(node).or_default();
        let (pending, cursor) = (nl.pending, nl.cursor);
        if to_us > cursor {
            let ctrl = ctrl_us.min(to_us - cursor);
            self.fill(node, to_us - ctrl, pending);
            self.fill(node, to_us, WaitCause::ControlBus);
        }
        self.nodes.entry(node).or_default().pending = WaitCause::SyncWait;
    }

    /// Set the cause the next [`Ledger::sync_to`] will charge the open gap
    /// to (e.g. `DataWait` when a worker starts a starvation poll).
    pub fn set_pending(&mut self, node: u32, cause: WaitCause) {
        self.nodes.entry(node).or_default().pending = cause;
    }

    /// Clip `node`'s timeline back to `at_us`: a kill interrupts work that
    /// was attributed ahead of real time (compute is booked to its end when
    /// it starts). Totals are rebated exactly; no-op if the cursor is behind.
    pub fn truncate(&mut self, node: u32, at_us: u64) {
        let Some(nl) = self.nodes.get_mut(&node) else {
            return;
        };
        while let Some(s) = nl.segs.last_mut() {
            if s.end_us <= at_us {
                break;
            }
            if s.start_us >= at_us {
                nl.totals[s.cause.index()] -= s.end_us - s.start_us;
                nl.segs.pop();
            } else {
                nl.totals[s.cause.index()] -= s.end_us - at_us;
                s.end_us = at_us;
                break;
            }
        }
        nl.cursor = nl.cursor.min(at_us);
    }

    /// Freeze the node's timeline (kill without failover): later fills and
    /// the final [`Ledger::finalize`] skip it.
    pub fn mark_dead(&mut self, node: u32) {
        self.nodes.entry(node).or_default().dead = true;
    }

    /// Record a barrier close from its arrival instants (one `(node,
    /// arrival_us)` pair per participant). Skipped with fewer than two
    /// arrivals — a single-node barrier has no determiner margin. Ties are
    /// broken toward the smaller node id, deterministically.
    pub fn barrier(&mut self, iter: u64, arrivals: &[(u32, u64)]) {
        if arrivals.len() < 2 {
            return;
        }
        let mut det = arrivals[0];
        for &(n, at) in &arrivals[1..] {
            if at > det.1 || (at == det.1 && n < det.0) {
                det = (n, at);
            }
        }
        let runner_up_us =
            arrivals.iter().filter(|&&(n, _)| n != det.0).map(|&(_, at)| at).max().unwrap_or(det.1);
        self.barriers.push(BarrierRec { iter, node: det.0, arrival_us: det.1, runner_up_us });
    }

    /// Fill every live node's timeline out to the job end with its pending
    /// cause (a finished worker's tail is `SyncWait` on the fleet). After
    /// this, each live node's cursor equals the job's measured wall time.
    pub fn finalize(&mut self, end_us: u64) {
        let ids: Vec<u32> = self.nodes.keys().copied().collect();
        for node in ids {
            let pending = self.nodes[&node].pending;
            self.fill(node, end_us, pending);
        }
    }

    /// All node ids with a ledger, ascending.
    pub fn node_ids(&self) -> Vec<u32> {
        self.nodes.keys().copied().collect()
    }

    /// The node's attributed wall time (== its cursor).
    pub fn wall_us(&self, node: u32) -> u64 {
        self.nodes.get(&node).map_or(0, |nl| nl.cursor)
    }

    /// Per-cause totals, indexed by [`WaitCause::index`].
    pub fn totals(&self, node: u32) -> [u64; WaitCause::COUNT] {
        self.nodes.get(&node).map_or([0; WaitCause::COUNT], |nl| nl.totals)
    }

    /// The node's attributed segments in time order.
    pub fn segs(&self, node: u32) -> &[Seg] {
        self.nodes.get(&node).map_or(&[], |nl| &nl.segs)
    }

    pub fn is_dead(&self, node: u32) -> bool {
        self.nodes.get(&node).is_some_and(|nl| nl.dead)
    }

    /// Barrier records in arrival order.
    pub fn barriers(&self) -> &[BarrierRec] {
        &self.barriers
    }

    /// Re-verify conservation from first principles for every node: segments
    /// are contiguous from 0 to the cursor, non-overlapping, and the
    /// per-cause totals re-derived from them match the running totals
    /// exactly. Returns the first violation as an error string.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (&node, nl) in &self.nodes {
            let mut at = 0u64;
            let mut derived = [0u64; WaitCause::COUNT];
            for s in &nl.segs {
                if s.start_us != at {
                    return Err(format!(
                        "node {node}: gap/overlap at {at}us (segment starts {}us)",
                        s.start_us
                    ));
                }
                if s.end_us <= s.start_us {
                    return Err(format!("node {node}: empty segment at {}us", s.start_us));
                }
                derived[s.cause.index()] += s.end_us - s.start_us;
                at = s.end_us;
            }
            if at != nl.cursor {
                return Err(format!("node {node}: segments end {at}us != cursor {}us", nl.cursor));
            }
            if derived != nl.totals {
                return Err(format!("node {node}: totals {:?} != derived {derived:?}", nl.totals));
            }
            let sum: u64 = nl.totals.iter().sum();
            if sum != nl.cursor {
                return Err(format!("node {node}: sum(causes) {sum}us != wall {}us", nl.cursor));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_chains_and_coalesces() {
        let mut l = Ledger::new();
        l.fill(0, 10, WaitCause::Compute);
        l.fill(0, 25, WaitCause::Compute);
        l.fill(0, 30, WaitCause::Comm);
        assert_eq!(l.segs(0).len(), 2, "adjacent same-cause segments coalesce");
        assert_eq!(l.wall_us(0), 30);
        assert_eq!(l.totals(0)[WaitCause::Compute.index()], 25);
        assert_eq!(l.totals(0)[WaitCause::Comm.index()], 5);
        l.check_conservation().unwrap();
    }

    #[test]
    fn fill_backward_is_noop() {
        let mut l = Ledger::new();
        l.fill(3, 100, WaitCause::Compute);
        l.fill(3, 40, WaitCause::Comm);
        assert_eq!(l.wall_us(3), 100);
        l.check_conservation().unwrap();
    }

    #[test]
    fn sync_to_charges_pending_then_resets() {
        let mut l = Ledger::new();
        l.set_pending(1, WaitCause::DataWait);
        l.sync_to(1, 50, 0);
        assert_eq!(l.totals(1)[WaitCause::DataWait.index()], 50);
        // Pending reset to the SyncWait default.
        l.sync_to(1, 80, 0);
        assert_eq!(l.totals(1)[WaitCause::SyncWait.index()], 30);
        l.check_conservation().unwrap();
    }

    #[test]
    fn sync_to_carves_trailing_control_latency() {
        let mut l = Ledger::new();
        l.sync_to(2, 100, 30);
        assert_eq!(l.totals(2)[WaitCause::SyncWait.index()], 70);
        assert_eq!(l.totals(2)[WaitCause::ControlBus.index()], 30);
        // The carve clamps to the gap.
        l.sync_to(2, 110, 500);
        assert_eq!(l.totals(2)[WaitCause::ControlBus.index()], 40);
        l.check_conservation().unwrap();
    }

    #[test]
    fn truncate_rebates_exactly() {
        let mut l = Ledger::new();
        l.fill(0, 40, WaitCause::SyncWait);
        l.fill(0, 100, WaitCause::Compute);
        l.truncate(0, 60);
        assert_eq!(l.wall_us(0), 60);
        assert_eq!(l.totals(0)[WaitCause::Compute.index()], 20);
        l.truncate(0, 10);
        assert_eq!(l.wall_us(0), 10);
        assert_eq!(l.totals(0)[WaitCause::Compute.index()], 0);
        assert_eq!(l.totals(0)[WaitCause::SyncWait.index()], 10);
        l.check_conservation().unwrap();
        // Truncating ahead of the cursor changes nothing.
        l.truncate(0, 1_000);
        assert_eq!(l.wall_us(0), 10);
    }

    #[test]
    fn dead_nodes_freeze() {
        let mut l = Ledger::new();
        l.fill(5, 30, WaitCause::Compute);
        l.mark_dead(5);
        l.fill(5, 90, WaitCause::Comm);
        l.finalize(200);
        assert_eq!(l.wall_us(5), 30);
        l.check_conservation().unwrap();
    }

    #[test]
    fn finalize_fills_live_nodes_to_end() {
        let mut l = Ledger::new();
        l.fill(0, 30, WaitCause::Compute);
        l.fill(1, 10, WaitCause::Compute);
        l.set_pending(1, WaitCause::DataWait);
        l.finalize(100);
        assert_eq!(l.wall_us(0), 100);
        assert_eq!(l.totals(0)[WaitCause::SyncWait.index()], 70);
        assert_eq!(l.totals(1)[WaitCause::DataWait.index()], 90);
        l.check_conservation().unwrap();
    }

    #[test]
    fn barrier_picks_determiner_and_runner_up() {
        let mut l = Ledger::new();
        l.barrier(7, &[(0, 100), (1, 180), (2, 150)]);
        l.barrier(8, &[(0, 10)]); // single arrival: skipped
        assert_eq!(l.barriers().len(), 1);
        let b = l.barriers()[0];
        assert_eq!((b.iter, b.node, b.arrival_us, b.runner_up_us), (7, 1, 180, 150));
    }

    #[test]
    fn barrier_tie_breaks_to_smaller_node() {
        let mut l = Ledger::new();
        l.barrier(0, &[(3, 100), (1, 100), (2, 90)]);
        assert_eq!(l.barriers()[0].node, 1);
        assert_eq!(l.barriers()[0].runner_up_us, 100);
    }
}
