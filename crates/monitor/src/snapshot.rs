//! The aggregated view the Monitor hands to the Controller on each decision
//! tick: per-node short/long-window BPT means, throughputs, batch sizes, plus
//! the third-party cluster signals.

use crate::NodeId;

/// Per-node statistics at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    pub node: NodeId,
    /// `T̄ᵢᵗʳᵃⁿˢ` — mean BPT over the short window, if any samples exist.
    pub bpt_trans: Option<f64>,
    /// `T̄ᵢᵖᵉʳ` — mean BPT over the long window.
    pub bpt_per: Option<f64>,
    /// `vᵢ` — mean throughput (samples/s) over the short window.
    pub throughput: Option<f64>,
    /// Most recent local batch size.
    pub batch: Option<u64>,
    /// Whether the node is currently alive (dead nodes are mid-failover).
    pub alive: bool,
}

/// Third-party information (§V-D): cluster-scheduler signals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterInfo {
    pub busy: bool,
}

/// Everything the Controller sees.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    pub workers: Vec<NodeStats>,
    pub servers: Vec<NodeStats>,
    pub cluster: ClusterInfo,
}

impl MonitorSnapshot {
    /// Mean of the available short-window worker BPTs (`T̄ᵗʳᵃⁿˢ`), over *alive*
    /// workers only.
    pub fn mean_worker_bpt_trans(&self) -> Option<f64> {
        mean(self.workers.iter().filter(|s| s.alive).filter_map(|s| s.bpt_trans))
    }

    /// Mean of the long-window worker BPTs (`T̄ᵖᵉʳ`).
    pub fn mean_worker_bpt_per(&self) -> Option<f64> {
        mean(self.workers.iter().filter(|s| s.alive).filter_map(|s| s.bpt_per))
    }

    /// Mean of the long-window server BPTs.
    pub fn mean_server_bpt_per(&self) -> Option<f64> {
        mean(self.servers.iter().filter(|s| s.alive).filter_map(|s| s.bpt_per))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u32;
    for v in it {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(idx: u32, trans: Option<f64>, per: Option<f64>, alive: bool) -> NodeStats {
        NodeStats {
            node: NodeId::worker(idx),
            bpt_trans: trans,
            bpt_per: per,
            throughput: None,
            batch: None,
            alive,
        }
    }

    #[test]
    fn means_skip_missing_and_dead() {
        let snap = MonitorSnapshot {
            workers: vec![
                stat(0, Some(2.0), Some(3.0), true),
                stat(1, Some(4.0), None, true),
                stat(2, Some(100.0), Some(100.0), false), // dead: excluded
                stat(3, None, Some(5.0), true),
            ],
            servers: vec![],
            cluster: ClusterInfo::default(),
        };
        assert_eq!(snap.mean_worker_bpt_trans(), Some(3.0));
        assert_eq!(snap.mean_worker_bpt_per(), Some(4.0));
        assert_eq!(snap.mean_server_bpt_per(), None);
    }
}
