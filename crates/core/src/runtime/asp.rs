//! ASP flavor: fully asynchronous pushes, no barrier, no staleness bound.
//!
//! Each compute completion books its own server pass and applies its gradient
//! immediately; the only coordination is parking pushes while a server is
//! down and resuming them on recovery.

use super::kernel::Kernel;
use super::ps_common::{self, PsFlavor, PsStrategy};
use crate::events::RtEngine;
use antdt_sim::SimTime;

/// The ASP flavor over the shared PS driver.
#[derive(Clone)]
pub struct AspFlavor {
    /// Pushes that arrived while a server was down: `(worker, gen, at)`.
    parked: Vec<(u32, u32, SimTime)>,
}

/// The ASP parameter-server runtime.
pub type AspPs = PsStrategy<AspFlavor>;

impl AspPs {
    pub fn new() -> Self {
        PsStrategy { flavor: AspFlavor { parked: Vec::new() } }
    }
}

impl Default for AspPs {
    fn default() -> Self {
        Self::new()
    }
}

impl PsFlavor for AspFlavor {
    fn on_push(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32, gen: u32, _iter: u64) {
        let now = eng.now();
        if k.servers.iter().any(|s| !s.alive) {
            self.parked.push((w, gen, now));
            return;
        }
        ps_common::finish_asp_push(k, eng, w, gen, now);
    }

    fn on_servers_recovered(&mut self, k: &mut Kernel, eng: &mut RtEngine, now: SimTime) {
        let parked = std::mem::take(&mut self.parked);
        for (w, g, _computed_at) in parked {
            // The push resumes now: the gradient transfer restarts against
            // the fresh server.
            ps_common::finish_asp_push(k, eng, w, g, now);
        }
    }
}
