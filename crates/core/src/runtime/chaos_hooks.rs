//! Kernel chaos hooks: injected-fault firing/lifting, report-drop windows and
//! the liveness watchdog.
//!
//! The kernel owns every windowed fault (network degrade, DDS outage, report
//! drops) and the injection/action audit logs; kill-class faults are handed
//! to the job's strategy because what "killing a node" means is
//! consistency-specific — a PS worker fails over, a DDP rank leaves the ring
//! for good.

use super::kernel::Kernel;
use super::ps_common;
use super::strategy::Strategy;
use crate::config::{Fault, NodeRef};
use crate::events::{Ev, RtEngine};
use crate::report::InjectionRecord;
use antdt_sim::rng::StdRng;
use antdt_sim::SimDuration;

/// An injected fault fires. The target generation is resolved *now*, so a
/// plan survives unrelated restarts; kills of already-dead nodes no-op but
/// are still logged.
pub(crate) fn chaos_fault(k: &mut Kernel, strat: &mut Strategy, eng: &mut RtEngine, idx: u32) {
    let now = eng.now();
    let inj = k.cfg.injections[idx as usize].clone();
    k.injections_log.push(InjectionRecord {
        index: idx,
        at: now,
        desc: inj.fault.describe(),
        restarted_at: None,
        recovered_at: None,
    });
    let rec_idx = k.injections_log.len() - 1;
    if let Some(tele) = &mut k.tele {
        tele.tracer.instant(
            "chaos-fault",
            "chaos",
            now.as_micros(),
            0,
            &[("fault", &inj.fault.describe())],
        );
    }
    match inj.fault {
        // Kill-class (instantaneous, consistency-specific) faults go to the
        // strategy.
        Fault::KillNode { .. } | Fault::KillNodeNoFailover { .. } | Fault::RestartDelay { .. } => {
            match strat {
                Strategy::Bsp(f) => ps_common::inject_kill(k, f, eng, &inj.fault, rec_idx),
                Strategy::Asp(f) => ps_common::inject_kill(k, f, eng, &inj.fault, rec_idx),
                Strategy::Ring(r) => r.inject_kill(k, eng, &inj.fault),
            }
        }
        Fault::NetworkDegrade { node: NodeRef::Worker(w), factor, window_secs } => {
            let link = &mut k.workers[w as usize].link;
            k.chaos_degraded.push((idx, w, link.bandwidth_bps));
            link.bandwidth_bps /= factor;
            eng.schedule(now + SimDuration::from_secs_f64(window_secs), Ev::ChaosLift { k: idx });
        }
        Fault::NetworkDegrade { node: NodeRef::Server(_), .. } => {
            unreachable!("validated out: only kills target servers")
        }
        Fault::DdsOutage { window_secs } => {
            k.chaos_outages += 1;
            if let Some(dds) = &mut k.dds {
                dds.set_paused(true);
            }
            eng.schedule(now + SimDuration::from_secs_f64(window_secs), Ev::ChaosLift { k: idx });
        }
        Fault::DropReports { prob, window_secs, seed } => {
            k.chaos_droppers.push((idx, prob, StdRng::seed_from_u64(seed)));
            eng.schedule(now + SimDuration::from_secs_f64(window_secs), Ev::ChaosLift { k: idx });
        }
    }
}

/// A windowed fault's window closes: undo its effect.
pub(crate) fn chaos_lift(k: &mut Kernel, strat: &Strategy, eng: &mut RtEngine, idx: u32) {
    match k.cfg.injections[idx as usize].fault {
        Fault::NetworkDegrade { .. } => {
            if let Some(pos) = k.chaos_degraded.iter().position(|d| d.0 == idx) {
                let (_, w, bw) = k.chaos_degraded.swap_remove(pos);
                k.workers[w as usize].link.bandwidth_bps = bw;
            }
        }
        Fault::DdsOutage { .. } => {
            k.chaos_outages = k.chaos_outages.saturating_sub(1);
            if k.chaos_outages == 0 {
                if let Some(dds) = &mut k.dds {
                    dds.set_paused(false);
                }
                match strat {
                    Strategy::Bsp(_) | Strategy::Asp(_) => ps_common::on_dds_restored(k, eng),
                    // A ring round that found no data retries on its own.
                    Strategy::Ring(_) => {}
                }
            }
        }
        Fault::DropReports { .. } => {
            k.chaos_droppers.retain(|d| d.0 != idx);
        }
        _ => {}
    }
}

impl Kernel {
    /// True when an active DropReports window swallows this Agent→Monitor
    /// report. Every active window samples its own seeded stream per attempted
    /// report, so drills stay deterministic.
    pub(crate) fn report_dropped(&mut self) -> bool {
        let mut dropped = false;
        for (_, prob, rng) in &mut self.chaos_droppers {
            if rng.gen_bool(*prob) {
                dropped = true;
            }
        }
        dropped
    }

    /// Liveness watchdog: abort loudly (`stalled`) when nothing has progressed
    /// for a full timeout window; otherwise re-arm at the earliest instant the
    /// window could next expire.
    pub(crate) fn liveness_check(&mut self, eng: &mut RtEngine) {
        let timeout = self.cfg.liveness_timeout.expect("liveness event without timeout");
        let now = eng.now();
        if now.since(self.last_progress) >= timeout {
            self.stalled = true;
            if let Some(tele) = &mut self.tele {
                tele.tracer.instant("stalled", "chaos", now.as_micros(), 0, &[]);
                tele.flight.record(
                    now.as_micros(),
                    "liveness",
                    format!("stalled: no progress since {}us", self.last_progress.as_micros()),
                );
            }
            eng.clear();
        } else {
            eng.schedule(self.last_progress + timeout, Ev::LivenessCheck);
        }
    }
}
