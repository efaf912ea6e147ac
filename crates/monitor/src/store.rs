//! The metric store: per-node BPT windows plus the node-event log, assembled
//! into [`MonitorSnapshot`]s for the Controller.

use crate::events::NodeEvent;
use crate::snapshot::{ClusterInfo, MonitorSnapshot, NodeStats};
use crate::window::BptWindow;
use crate::{NodeId, Role};
use antdt_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Monitor configuration: the two sliding windows of §VI-A2 (defaults from
/// §VII-A5: `L_trans` = 5 min, `L_per` = 10 min).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    pub l_trans: SimDuration,
    pub l_per: SimDuration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            l_trans: SimDuration::from_minutes(5),
            l_per: SimDuration::from_minutes(10),
        }
    }
}

impl MonitorConfig {
    /// Retention needed to answer both window queries.
    pub fn retention(&self) -> SimDuration {
        self.l_trans.max(self.l_per)
    }
}

#[derive(Debug, Clone)]
struct NodeEntry {
    window: BptWindow,
    alive: bool,
}

/// Ingestion counts a [`MetricStore`] always keeps ([`MetricStore::counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorCounts {
    /// BPT reports ingested.
    pub bpt_reports: u64,
    /// Node lifecycle events ingested.
    pub node_events: u64,
}

/// The Monitor's metric store.
#[derive(Debug, Clone)]
pub struct MetricStore {
    cfg: MonitorConfig,
    nodes: BTreeMap<NodeId, NodeEntry>,
    events: Vec<NodeEvent>,
    cluster: ClusterInfo,
    counts: MonitorCounts,
}

impl MetricStore {
    pub fn new(cfg: MonitorConfig) -> Self {
        MetricStore {
            cfg,
            nodes: BTreeMap::new(),
            events: Vec::new(),
            cluster: ClusterInfo::default(),
            counts: MonitorCounts::default(),
        }
    }

    /// Ingestion counts since construction (the telemetry source).
    pub fn counts(&self) -> MonitorCounts {
        self.counts
    }

    pub fn config(&self) -> MonitorConfig {
        self.cfg
    }

    fn entry(&mut self, node: NodeId) -> &mut NodeEntry {
        let retention = self.cfg.retention();
        self.nodes
            .entry(node)
            .or_insert_with(|| NodeEntry { window: BptWindow::new(retention), alive: true })
    }

    /// Register a node up front so it appears in snapshots even before its
    /// first report (fresh nodes show `None` statistics, not absence).
    pub fn register(&mut self, node: NodeId) {
        self.entry(node);
    }

    /// Application-state report from an Agent: one iteration's BPT + batch.
    pub fn report_bpt(&mut self, node: NodeId, t: SimTime, bpt_secs: f64, batch: u64) {
        self.entry(node).window.push(t, bpt_secs, batch);
        self.counts.bpt_reports += 1;
    }

    /// Node-state notification.
    pub fn report_event(&mut self, event: NodeEvent) {
        match event {
            NodeEvent::Killed { node, .. } => {
                let e = self.entry(node);
                e.alive = false;
            }
            NodeEvent::Restarted { node, .. } => {
                let e = self.entry(node);
                e.alive = true;
                // A restarted pod is a new process on (likely) new hardware:
                // its predecessor's BPT history must not bias detection.
                e.window.clear();
            }
        }
        self.events.push(event);
        self.counts.node_events += 1;
    }

    /// Third-party information update.
    pub fn set_cluster_info(&mut self, info: ClusterInfo) {
        self.cluster = info;
    }

    pub fn events(&self) -> &[NodeEvent] {
        &self.events
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.get(&node).is_none_or(|e| e.alive)
    }

    /// Build the Controller-facing snapshot at time `now`.
    pub fn snapshot(&self, now: SimTime) -> MonitorSnapshot {
        let mut workers = Vec::new();
        let mut servers = Vec::new();
        for (&node, e) in &self.nodes {
            let stats = NodeStats {
                node,
                bpt_trans: e.window.mean_bpt(now, self.cfg.l_trans),
                bpt_per: e.window.mean_bpt(now, self.cfg.l_per),
                throughput: e.window.mean_throughput(now, self.cfg.l_trans),
                batch: e.window.last_batch(),
                alive: e.alive,
            };
            match node.role {
                Role::Worker => workers.push(stats),
                Role::Server => servers.push(stats),
            }
        }
        MonitorSnapshot { workers, servers, cluster: self.cluster }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ErrorClass, RetryableError};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig { l_trans: SimDuration::from_secs(60), l_per: SimDuration::from_secs(300) }
    }

    #[test]
    fn snapshot_separates_roles_and_windows() {
        let mut m = MetricStore::new(cfg());
        // Worker 0: slow recently, fast before.
        for i in 0..10 {
            m.report_bpt(NodeId::worker(0), t(i as f64 * 30.0), 1.0, 100);
        }
        for i in 10..12 {
            m.report_bpt(NodeId::worker(0), t(i as f64 * 30.0), 5.0, 100);
        }
        m.report_bpt(NodeId::server(0), t(330.0), 0.5, 0);

        let snap = m.snapshot(t(330.0));
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.servers.len(), 1);
        let w = &snap.workers[0];
        // Short window (60s ending at 330): samples at 270 (1.0), 300 and 330 (5.0).
        assert!((w.bpt_trans.unwrap() - 11.0 / 3.0).abs() < 1e-9);
        // Long window mean is pulled toward the fast history.
        assert!(w.bpt_per.unwrap() < w.bpt_trans.unwrap());
        assert_eq!(w.batch, Some(100));
    }

    #[test]
    fn kill_marks_dead_and_restart_resets_history() {
        let mut m = MetricStore::new(cfg());
        m.report_bpt(NodeId::worker(1), t(10.0), 9.0, 100);
        m.report_event(NodeEvent::Killed {
            node: NodeId::worker(1),
            at: t(20.0),
            class: ErrorClass::Retryable(RetryableError::ProactiveKill),
        });
        assert!(!m.is_alive(NodeId::worker(1)));
        let snap = m.snapshot(t(20.0));
        assert!(!snap.workers[0].alive);

        m.report_event(NodeEvent::Restarted { node: NodeId::worker(1), at: t(50.0) });
        assert!(m.is_alive(NodeId::worker(1)));
        let snap = m.snapshot(t(50.0));
        assert!(snap.workers[0].alive);
        // Pre-kill BPT history is gone.
        assert_eq!(snap.workers[0].bpt_per, None);
        assert_eq!(m.events().len(), 2);
    }

    #[test]
    fn registered_nodes_appear_without_reports() {
        let mut m = MetricStore::new(cfg());
        m.register(NodeId::worker(0));
        m.register(NodeId::server(0));
        let snap = m.snapshot(t(0.0));
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.servers.len(), 1);
        assert_eq!(snap.workers[0].bpt_trans, None);
        assert!(snap.workers[0].alive);
    }

    #[test]
    fn ingestion_counts_track_reports_and_events() {
        let mut m = MetricStore::new(cfg());
        m.report_bpt(NodeId::worker(0), t(1.0), 1.0, 100);
        m.report_bpt(NodeId::worker(1), t(2.0), 1.0, 100);
        m.report_event(NodeEvent::Killed {
            node: NodeId::worker(0),
            at: t(3.0),
            class: ErrorClass::Retryable(RetryableError::ProactiveKill),
        });
        assert_eq!(m.counts(), MonitorCounts { bpt_reports: 2, node_events: 1 });
    }

    #[test]
    fn cluster_info_flows_through() {
        let mut m = MetricStore::new(cfg());
        m.set_cluster_info(ClusterInfo { busy: true });
        let snap = m.snapshot(t(0.0));
        assert!(snap.cluster.busy);
    }
}
