//! The job report: every quantity the paper's tables and figures consume.

use crate::config::FailoverMode;
use crate::events::Ev;
use antdt_agent::OverheadLedger;
use antdt_controller::Action;
use antdt_dds::{ConsumptionStats, IntegrityAudit};
use antdt_monitor::NodeId;
use antdt_sim::{Gantt, SimDuration, SimTime, TimeSeries};
use antdt_telemetry::{DecisionRecord, TelemetryReport};
use std::sync::Arc;

/// One injected chaos fault as it actually played out at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Index into `JobConfig::injections`.
    pub index: u32,
    /// When the fault fired.
    pub at: SimTime,
    /// Human label (`Fault::describe`).
    pub desc: String,
    /// For kills: when the replacement pod came up (`None` if never).
    pub restarted_at: Option<SimTime>,
    /// For kills: when the node committed its first post-restart work —
    /// i.e. it is back on full duty (`None` if never).
    pub recovered_at: Option<SimTime>,
}

/// What finally became of one fenced directive on the control bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DirectiveFate {
    /// Still in flight (or queued in an inbox) when the job ended.
    Pending,
    /// Applied by the target at an iteration boundary.
    Applied { gen: u32, at: SimTime },
    /// Rejected at delivery: the fence named a dead incarnation
    /// (`agent_gen` is the incarnation that rejected it).
    RejectedStale { agent_gen: u32, at: SimTime },
    /// Redelivery of an already-seen seq; idempotently dropped.
    Deduped { at: SimTime },
    /// Wiped from a dead incarnation's inbox at restart, never applied.
    Wiped { at: SimTime },
    /// Dropped by the channel until the retry budget ran out.
    Expired { at: SimTime },
    /// A `KILL_RESTART` signal handed to the event scheduler (the kill path
    /// is fenced downstream by the event's generation guard, not the agent).
    Fired { at: SimTime },
}

/// The audited life of one Controller directive carried by the control bus —
/// the raw material for the no-stale-directive invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectiveRecord {
    pub seq: u64,
    pub target: NodeId,
    /// The target's incarnation at decision time (the fence).
    pub fence_gen: u32,
    pub decided_at: SimTime,
    /// Debug rendering of the action (stable across same-seed runs), shared
    /// by every target of one broadcast.
    pub action: Arc<str>,
    pub fate: DirectiveFate,
}

/// One global Controller action as applied by one worker — the raw material
/// for the global-action convergence invariant (all survivors must apply the
/// same action delivered at the same instant, at the same iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionApplication {
    pub worker: u32,
    /// When the Agent's inbox received the action (broadcast arrival).
    pub delivered_at: SimTime,
    /// When the worker actually applied it (start of its next iteration).
    pub applied_at: SimTime,
    /// The global iteration the worker was at when it applied the action.
    pub iter: u64,
    /// Debug rendering of the action: the text of the directive that
    /// carried it.
    pub action: Arc<str>,
}

/// One checkpoint capture as recorded by the `antdt-ckpt` subsystem: when it
/// was taken, when its async drain write made it durable, and the snapshot's
/// size and content digest (the digest is what the determinism tests pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptRecord {
    pub taken_at_us: u64,
    pub durable_at_us: u64,
    pub bytes: u64,
    pub digest: u64,
}

/// One checkpoint-replay restore: which snapshot was loaded and how much
/// completed work the rewind sent back to the TODO queue for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayRecord {
    pub restored_at_us: u64,
    /// `meta.taken_at_us` of the snapshot that was loaded (0 for the empty
    /// cold-start snapshot when nothing was durable yet).
    pub snapshot_at_us: u64,
    pub requeued_shards: u64,
    pub requeued_samples: u64,
}

/// Checkpoint-subsystem section of the report; present iff the job had
/// parameter servers (every Parameter Server job checkpoints).
#[derive(Debug, Clone, PartialEq)]
pub struct CkptReport {
    /// The job's worker-recovery policy: under `Replay` a worker kill
    /// restores a snapshot too, under `DdsBased` only a server kill does.
    pub failover: FailoverMode,
    pub snapshots: Vec<CkptRecord>,
    pub restores: Vec<ReplayRecord>,
    /// The fixed interval the job checkpointed at (`CkptConfig::interval_secs`).
    pub final_interval_secs: f64,
}

/// One node's per-cause time decomposition, frozen from the `antdt-attr`
/// ledger. Conservation holds exactly: `totals_us` sums to `wall_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrNode {
    /// Worker `w` or server `1000 + s` (the telemetry lane convention).
    pub node: u32,
    /// The node's attributed wall time in microseconds.
    pub wall_us: u64,
    /// Killed without failover: the timeline is frozen at the kill instant.
    pub dead: bool,
    /// Per-cause microsecond totals, indexed by
    /// [`antdt_attr::WaitCause::index`].
    pub totals_us: [u64; antdt_attr::WaitCause::COUNT],
}

/// One critical-path segment: barrier `iter` was determined by `node`,
/// `gap_us` after the runner-up arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrCrit {
    pub iter: u64,
    pub node: u32,
    pub gap_us: u64,
}

/// One node's blame scores (see `antdt-attr`'s `blame` module for the two
/// signals and when each becomes the headline score).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrBlame {
    pub node: u32,
    /// Summed barrier-determiner margins (exact for BSP/ring).
    pub crit_us: u64,
    /// Summed per-cause time above the role-group median (ASP fallback).
    pub excess_us: u64,
    /// `crit_us` when any barrier was recorded, `excess_us` otherwise.
    pub score_us: u64,
}

/// One counterfactual replay next to its analytical prediction: the job was
/// deterministically re-run with the perturbation applied and the measured
/// JCT delta is reported beside what the blame analysis predicted.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterfactualRow {
    /// `Perturbation::label()` of the applied edit.
    pub label: String,
    /// JCT reduction the blame analysis predicts, in microseconds.
    pub predicted_delta_us: u64,
    /// Measured `base JCT − what-if JCT` (negative if the edit hurt).
    pub measured_delta_us: i64,
    pub base_jct_us: u64,
    pub what_if_jct_us: u64,
}

/// Straggler-attribution section of the report; present iff
/// `JobConfig::attribution` armed the engine. `counterfactuals` is filled by
/// the separate what-if harness ([`crate::whatif`]), not by the run itself.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrReport {
    /// Job end used to finalize the ledgers (the measured JCT).
    pub end_us: u64,
    /// Per-node breakdowns, ascending node id.
    pub nodes: Vec<AttrNode>,
    /// Critical-path segments in barrier order.
    pub crit: Vec<AttrCrit>,
    /// Blame ranking, descending score (`blame[0]` is the top-blamed node).
    pub blame: Vec<AttrBlame>,
    pub counterfactuals: Vec<CounterfactualRow>,
}

impl AttrReport {
    /// Render the attribution report as deterministic JSON (fixed field
    /// order), via the same hand-rolled writer the telemetry exporters use.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{");
        let w = &mut s;
        let _ = write!(w, "\"end_us\":{},\"nodes\":[", self.end_us);
        for (i, n) in self.nodes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                w,
                "{sep}{{\"node\":{},\"wall_us\":{},\"dead\":{},\"causes\":{{",
                n.node, n.wall_us, n.dead
            );
            for (j, c) in antdt_attr::WaitCause::ALL.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(w, "{sep}\"{}\":{}", c.as_str(), n.totals_us[c.index()]);
            }
            w.push_str("}}");
        }
        w.push_str("],\"blame\":[");
        for (i, b) in self.blame.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                w,
                "{sep}{{\"node\":{},\"crit_us\":{},\"excess_us\":{},\"score_us\":{}}}",
                b.node, b.crit_us, b.excess_us, b.score_us
            );
        }
        w.push_str("],\"counterfactuals\":[");
        for (i, r) in self.counterfactuals.iter().enumerate() {
            if i > 0 {
                w.push(',');
            }
            w.push('{');
            w.push_str("\"label\":");
            antdt_telemetry::json::write_str(w, &r.label);
            let _ = write!(
                w,
                ",\"predicted_delta_us\":{},\"measured_delta_us\":{},\"base_jct_us\":{},\"what_if_jct_us\":{}}}",
                r.predicted_delta_us, r.measured_delta_us, r.base_jct_us, r.what_if_jct_us
            );
        }
        w.push_str("]}");
        s
    }
}

/// What a job's event loop did: the events it handled per [`Ev`] kind, and
/// how many handlings changed nothing. The kinds sum to
/// [`JobReport::events_processed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkCensus {
    /// Handled events per kind, indexed like [`Ev::KINDS`].
    pub events: [u64; Ev::KINDS.len()],
    /// Node events addressed to a previous generation, dropped on receipt.
    pub stale_gen: u64,
    /// Worker starts that took no batch (starving, sitting out, done).
    pub empty_starts: u64,
    /// Worker starts before the worker's barrier release.
    pub early_starts: u64,
}

impl WorkCensus {
    /// Count one handled event.
    pub(crate) fn handled(&mut self, ev: &Ev) {
        self.events[ev.kind()] += 1;
    }

    /// Total handled events.
    pub fn total(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// Set-once divergence instants collected by every run: for each supported
/// [`Perturbation`](antdt_attr::Perturbation) kind, the first simulated
/// instant at which the perturbed job would have behaved differently from
/// this one. `None` means the perturbation never bites — the edit is a
/// provable no-op for this run.
///
/// These feed fork-based counterfactual replay ([`crate::whatif::plan_replays`],
/// driven by the `antdt-whatif` service): the shared prefix up to the
/// divergence instant is simulated once and each what-if only replays its
/// suffix. The marks are bookkeeping *about* the schedule, never part of it —
/// they are deliberately not rendered in [`JobReport::golden_dump`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DivergenceMarks {
    /// Per worker slot: the first iteration start whose cost was changed by
    /// the worker's contention phases (`Perturbation::HealthyNode`).
    pub worker_contended: Vec<Option<SimTime>>,
    /// First control-plane transmission sampled on the job's `Modeled`
    /// channel (`Perturbation::ZeroControlLatency`).
    pub control_modeled: Option<SimTime>,
    /// First checkpoint capture that charged a nonzero stall
    /// (`Perturbation::NoCkptStalls`).
    pub ckpt_stall: Option<SimTime>,
}

#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job completion time.
    pub jct: SimDuration,
    /// Global iterations (BSP/AllReduce rounds, or total worker iterations in ASP).
    pub iterations: u64,
    pub samples_done: u64,
    /// Samples computed but rolled back (dropped backup-worker pushes,
    /// mid-compute deaths) — recomputed later by the at-least-once machinery.
    pub rolled_back_samples: u64,
    /// Samples requeued by checkpoint-replay restores and re-done through the
    /// real drivers. Zero unless a kill restored a checkpoint.
    pub replayed_samples: u64,
    /// `true` if the safety cap fired before the data was exhausted.
    pub timed_out: bool,
    /// `true` if the liveness watchdog aborted the run: no training progress
    /// for `JobConfig::liveness_timeout` while the job was incomplete.
    pub stalled: bool,

    /// Reported BPT per worker over time (paper Figs. 1a, 13).
    pub worker_bpt: Vec<TimeSeries>,
    /// Local batch size per worker over time (Fig. 12).
    pub worker_batch: Vec<TimeSeries>,
    /// Reported BPT per server over time (Figs. 1b, 14).
    pub server_bpt: Vec<TimeSeries>,
    /// Global throughput (samples/sec, bucketed) over time (Fig. 14).
    pub global_throughput: TimeSeries,

    /// Controller decisions with timestamps.
    pub actions: Vec<(SimTime, Action)>,
    pub kills: Vec<(SimTime, NodeId)>,
    pub restarts: Vec<(SimTime, NodeId)>,
    /// Chaos-drill timeline: each injected fault with its recovery marks.
    /// Empty unless the job carried `injections`.
    pub injections: Vec<InjectionRecord>,
    /// Per-worker application log of global Controller actions (convergence
    /// invariant input). Empty unless the job carried `injections`.
    pub action_log: Vec<ActionApplication>,
    /// Control-bus directive audit: every fenced directive with its final
    /// fate (applied / rejected-stale / deduped / wiped / expired).
    pub directives: Vec<DirectiveRecord>,

    pub overhead: OverheadLedger,
    /// Data-integrity audit (§VII-D2); absent for even-partition runs.
    pub audit: Option<IntegrityAudit>,
    pub consumption: Option<ConsumptionStats>,
    /// Holdout AUC when the job trained a real model.
    pub auc: Option<f64>,
    pub gantt: Option<Gantt>,
    pub events_processed: u64,
    /// Events handled per kind, and the handlings that changed nothing.
    pub census: WorkCensus,
    /// Controller decision audit: per emitted action, the window stats, solver
    /// inputs/outputs and the rule that fired. Populated by auditing policies
    /// (AntDT-ND); empty for baselines that don't audit.
    pub decision_log: Vec<DecisionRecord>,
    /// Rendered telemetry artifacts; present when `JobConfig::telemetry` was
    /// set.
    pub telemetry: Option<TelemetryReport>,
    /// Checkpoint-subsystem ledger (captures, restores, final cadence);
    /// `None` for ring AllReduce jobs, which take no checkpoints.
    pub ckpt: Option<CkptReport>,
    /// Straggler-attribution section (per-cause decomposition, blame
    /// ranking); `None` unless `JobConfig::attribution` armed the engine.
    pub attr: Option<AttrReport>,
    /// Per-perturbation divergence instants for fork-based counterfactual
    /// replay. Always collected (set-once, no schedule impact); deliberately
    /// absent from [`JobReport::golden_dump`].
    pub divergence: DivergenceMarks,
}

impl JobReport {
    /// Deterministic line-oriented rendering of every simulated quantity in the
    /// report — the golden-fixture format of `tests/refactor_equivalence.rs`.
    ///
    /// Two same-seed runs must produce byte-identical dumps, so everything
    /// rendered here is derived purely from the simulated schedule (ordered
    /// `Vec`s, `BTreeMap`s, virtual timestamps — never wall clock or hash
    /// iteration order). Telemetry and Gantt artifacts are reduced to presence
    /// flags: they are render-format concerns, not simulation results, and have
    /// their own byte-identity tests in `job.rs`.
    pub fn golden_dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let w = &mut s;
        let _ = writeln!(w, "jct_us: {}", self.jct.as_micros());
        let _ = writeln!(w, "iterations: {}", self.iterations);
        let _ = writeln!(w, "samples_done: {}", self.samples_done);
        let _ = writeln!(w, "rolled_back_samples: {}", self.rolled_back_samples);
        let _ = writeln!(w, "timed_out: {}", self.timed_out);
        let _ = writeln!(w, "stalled: {}", self.stalled);
        let series = |w: &mut String, tag: &str, list: &[TimeSeries]| {
            for (i, ts) in list.iter().enumerate() {
                let _ = writeln!(w, "{tag}[{i}]: {ts:?}");
            }
        };
        series(w, "worker_bpt", &self.worker_bpt);
        series(w, "worker_batch", &self.worker_batch);
        series(w, "server_bpt", &self.server_bpt);
        let _ = writeln!(w, "global_throughput: {:?}", self.global_throughput);
        for (t, a) in &self.actions {
            let _ = writeln!(w, "action: {} {a:?}", t.as_micros());
        }
        for (t, n) in &self.kills {
            let _ = writeln!(w, "kill: {} {n}", t.as_micros());
        }
        for (t, n) in &self.restarts {
            let _ = writeln!(w, "restart: {} {n}", t.as_micros());
        }
        for r in &self.injections {
            let _ = writeln!(w, "injection: {r:?}");
        }
        for a in &self.action_log {
            let _ = writeln!(w, "applied: {a:?}");
        }
        // Only fence rejections are rendered: they are a simulation result
        // (a stale action provably not applied); the rest of the directive
        // audit is bus bookkeeping, and rendering it would force a re-bless
        // of every pre-bus fixture.
        for d in &self.directives {
            if matches!(d.fate, DirectiveFate::RejectedStale { .. }) {
                let _ = writeln!(w, "rejection: {d:?}");
            }
        }
        let _ = writeln!(w, "overhead_dds_us: {}", self.overhead.dds.as_micros());
        let _ = writeln!(w, "overhead_sync_us: {}", self.overhead.sync.as_micros());
        let _ = writeln!(w, "audit: {:?}", self.audit);
        let _ = writeln!(w, "consumption: {:?}", self.consumption);
        let _ = writeln!(w, "auc: {:?}", self.auc);
        let _ = writeln!(w, "gantt_recorded: {}", self.gantt.is_some());
        let _ = writeln!(w, "events_processed: {}", self.events_processed);
        let c = &self.census;
        let _ = write!(w, "census:");
        for (name, n) in Ev::KINDS.iter().zip(c.events).filter(|&(_, n)| n > 0) {
            let _ = write!(w, " {name}={n}");
        }
        let _ = writeln!(
            w,
            " | stale_gen={} empty_starts={} early_starts={}",
            c.stale_gen, c.empty_starts, c.early_starts
        );
        for d in &self.decision_log {
            let _ = writeln!(w, "decision: {d:?}");
        }
        // Checkpoint-subsystem lines render only when a checkpoint was
        // captured or restored: a job that ends before its first capture
        // renders none.
        if let Some(c) =
            self.ckpt.as_ref().filter(|c| !c.snapshots.is_empty() || !c.restores.is_empty())
        {
            let _ = writeln!(w, "replayed_samples: {}", self.replayed_samples);
            for r in &c.snapshots {
                let _ = writeln!(w, "ckpt: {r:?}");
            }
            for r in &c.restores {
                let _ = writeln!(w, "ckpt_restore: {r:?}");
            }
            let _ = writeln!(w, "ckpt_interval_final: {:?}", c.final_interval_secs);
        }
        // Attribution lines render only when the engine was armed, keeping
        // every attribution-off fixture byte-identical. Counterfactual rows
        // are deliberately excluded: they come from *separate* what-if runs
        // stapled on after the fact, not from this run's schedule.
        if let Some(a) = &self.attr {
            let _ = writeln!(w, "attr_end_us: {}", a.end_us);
            for n in &a.nodes {
                let _ = writeln!(w, "attr_node: {n:?}");
            }
            for c in &a.crit {
                let _ = writeln!(w, "attr_crit: {c:?}");
            }
            for b in &a.blame {
                let _ = writeln!(w, "attr_blame: {b:?}");
            }
        }
        let _ = writeln!(w, "telemetry_recorded: {}", self.telemetry.is_some());
        s
    }

    /// Mean reported BPT of one worker (for summary tables).
    pub fn mean_worker_bpt(&self, w: usize) -> Option<f64> {
        self.worker_bpt.get(w).and_then(|s| s.mean())
    }

    /// Number of KILL_RESTART actions that actually fired.
    pub fn n_kills(&self) -> usize {
        self.kills.len()
    }
}
