//! # antdt-whatif — the batch what-if query service
//!
//! The one engine that answers counterfactual queries: it drives the
//! fork-replay building blocks of `antdt-core` (`plan_replays`, `PrefixRun`)
//! and is what every what-if call site goes through; `antdt_core`'s naive
//! `what_if_table` survives only as its test oracle, and
//! `antdt_core::counterfactual_rows` turns answers into measured-vs-predicted
//! rows. A [`WhatIfService`] accepts batches of `(config, Perturbation)`
//! queries, plans each batch by divergence instant, and answers it off three
//! accelerating layers:
//!
//! 1. **Memo store** — a repeated `(config digest, perturbation)` query —
//!    across batches or within one — returns its memoized [`JobReport`]
//!    without simulating anything.
//! 2. **Snapshot cache** — an LRU, byte-budgeted store of advanced prefix
//!    runs keyed by `(config digest, instant)` with nearest-predecessor
//!    lookup ([`SnapshotCache`]); a query forks the closest cached snapshot
//!    at or before its divergence instant instead of re-simulating the
//!    prelude. A **snapshot spine** seeds the cache during the base run:
//!    the first simulation of a config checkpoints itself every
//!    [`ServiceConfig::spine_every`] sim-seconds.
//! 3. **Fork replay** — within a batch, queries sharing a config fork one
//!    monotonically-advancing prefix at their (sorted) divergence instants
//!    and only simulate their suffixes.
//!
//! Suffix finishes and unavoidable full reruns fan out over the `antdt-par`
//! work-stealing pool in input order, so every answer is **byte-identical**
//! to a serial full rerun of the perturbed config — the differential tests
//! and the `whatif` bench assert this via `JobReport::golden_dump`.
//! Telemetry-armed configs always take the full-rerun path (forks share
//! telemetry counters), so arming the service changes no existing behavior.

mod cache;

pub use cache::{CacheStats, SnapshotCache};

use antdt_core::{
    apply_perturbation, config_digest, plan_replays, Job, JobConfig, JobReport, Perturbation,
    PrefixRun,
};
use antdt_sim::{SimDuration, SimTime};
use antdt_telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;

/// One counterfactual query: the job (identified by its full config — the
/// "trace") and the edit to measure against it.
#[derive(Clone)]
pub struct WhatIfQuery {
    pub cfg: JobConfig,
    pub perturbation: Perturbation,
}

/// How the service produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// This exact `(config, perturbation)` was answered before.
    Memo,
    /// Forked a prefix at the divergence instant; `from_cache` says whether
    /// the prefix was seeded from a cached snapshot (vs built fresh).
    Forked { from_cache: bool },
    /// Full rerun: no divergence mark, a mark at time zero, or a
    /// telemetry-armed config.
    FullRerun,
}

/// One query's answer. The report is byte-identical to
/// `Job::run(apply_perturbation(cfg, p))`, whatever the source.
pub struct WhatIfAnswer {
    pub report: JobReport,
    pub source: AnswerSource,
    /// Events inherited from a shared/cached prefix (0 for memo hits and
    /// full reruns).
    pub prefix_events: u64,
    /// Events this answer actually simulated (0 for memo hits).
    pub suffix_events: u64,
}

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Snapshot-cache byte budget (estimated bytes, see
    /// [`PrefixRun::estimate_bytes`]).
    pub cache_budget_bytes: usize,
    /// Snapshot-spine cadence: while first simulating a config's base run,
    /// checkpoint it into the cache every this many sim-seconds so later
    /// queries at any divergence instant find a near predecessor.
    /// [`SimDuration::ZERO`] disables the spine.
    pub spine_every: SimDuration,
    /// Also cache a snapshot at each query's fork instant, so repeats of
    /// *similar* (not just identical) batches start even closer.
    pub cache_fork_points: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_budget_bytes: 256 << 20,
            spine_every: SimDuration::from_secs(300),
            cache_fork_points: true,
        }
    }
}

/// Cache and throughput counters, exported through `antdt-telemetry`.
struct ServiceCounters {
    queries: Counter,
    memo_hits: Counter,
    forked: Counter,
    full_reruns: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_insertions: Counter,
    cache_evictions: Counter,
    cache_bytes: Gauge,
}

impl ServiceCounters {
    fn new(reg: &MetricsRegistry) -> Self {
        let c = |name| reg.counter(name, &[]);
        ServiceCounters {
            queries: c("antdt_whatif_queries_total"),
            memo_hits: c("antdt_whatif_memo_hits_total"),
            forked: c("antdt_whatif_forked_total"),
            full_reruns: c("antdt_whatif_full_reruns_total"),
            cache_hits: c("antdt_whatif_cache_hits_total"),
            cache_misses: c("antdt_whatif_cache_misses_total"),
            cache_insertions: c("antdt_whatif_cache_insertions_total"),
            cache_evictions: c("antdt_whatif_cache_evictions_total"),
            cache_bytes: reg.gauge("antdt_whatif_cache_bytes", &[]),
        }
    }
}

/// What one item of the fan-out stage simulates.
enum WorkItem {
    /// A perturbed fork to finish; `prefix_events` were inherited.
    Branch { run: PrefixRun, prefix_events: u64 },
    /// A full perturbed rerun from time zero.
    Rerun(Box<JobConfig>),
}

/// An answer slot before the reports come home.
enum Pending {
    Memo(Box<JobReport>),
    /// Index into the fan-out work list.
    Work {
        item: usize,
        source: AnswerSource,
    },
    /// An in-batch repeat of the query that owns work item `item`: answered
    /// from its report without simulating anything, like a memo hit.
    Shared {
        item: usize,
    },
}

/// See the crate docs. The service is stateful on purpose: the memo store,
/// the base-report store and the snapshot cache persist across
/// [`WhatIfService::answer_batch`] calls, so throughput improves as the
/// query history grows.
pub struct WhatIfService {
    cfg: ServiceConfig,
    cache: SnapshotCache,
    /// Base (unperturbed) report per config digest — divergence marks and
    /// memo identity both key off it.
    bases: HashMap<u128, JobReport>,
    memo: HashMap<(u128, Perturbation), JobReport>,
    counters: Option<ServiceCounters>,
}

impl WhatIfService {
    pub fn new(cfg: ServiceConfig) -> Self {
        let cache = SnapshotCache::new(cfg.cache_budget_bytes);
        WhatIfService { cfg, cache, bases: HashMap::new(), memo: HashMap::new(), counters: None }
    }

    /// Export cache/throughput counters into `reg` (see the
    /// `antdt_whatif_*` metric family).
    pub fn attach_telemetry(&mut self, reg: &MetricsRegistry) {
        self.counters = Some(ServiceCounters::new(reg));
    }

    /// Snapshot-cache totals (hits/misses/insertions/evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Estimated bytes the snapshot cache currently holds.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Number of cached snapshots.
    pub fn cached_snapshots(&self) -> usize {
        self.cache.len()
    }

    /// The base (unperturbed) report of `cfg`, simulating it — with the
    /// snapshot spine — on first sight.
    pub fn base_report(&mut self, cfg: &JobConfig) -> &JobReport {
        let digest = config_digest(cfg);
        if !self.bases.contains_key(&digest) {
            let report = self.run_base_with_spine(digest, cfg);
            self.bases.insert(digest, report);
        }
        &self.bases[&digest]
    }

    /// Answer one query (see [`WhatIfService::answer_batch`]).
    pub fn answer(&mut self, query: &WhatIfQuery) -> WhatIfAnswer {
        self.answer_batch(std::slice::from_ref(query)).pop().expect("one query, one answer")
    }

    /// Answer a batch of queries. Answers come back in query order, each
    /// byte-identical to a serial full rerun of the perturbed config; the
    /// service only changes *how much simulation* that answer costs.
    pub fn answer_batch(&mut self, queries: &[WhatIfQuery]) -> Vec<WhatIfAnswer> {
        let stats_before = self.cache.stats();

        // Group query indices by config digest, preserving first-seen order.
        let digests: Vec<u128> = queries.iter().map(|q| config_digest(&q.cfg)).collect();
        let mut group_order: Vec<u128> = Vec::new();
        let mut groups: HashMap<u128, Vec<usize>> = HashMap::new();
        for (i, &d) in digests.iter().enumerate() {
            let g = groups.entry(d).or_default();
            if g.is_empty() {
                group_order.push(d);
            }
            g.push(i);
        }

        // Plan every group: memo hits answer immediately, in-batch repeats
        // share their first occurrence's work item, forkable queries branch a
        // shared prefix seeded from the cache, the rest full-rerun.
        let mut pending: Vec<Option<Pending>> = (0..queries.len()).map(|_| None).collect();
        let mut work: Vec<WorkItem> = Vec::new();
        for digest in group_order {
            let members = &groups[&digest];
            let cfg = &queries[members[0]].cfg;
            if !self.bases.contains_key(&digest) {
                let report = self.run_base_with_spine(digest, cfg);
                self.bases.insert(digest, report);
            }

            // Unique un-memoized perturbations, keyed back to every member
            // that asked for them (`member_slots`): a 64-query batch with
            // repeats simulates each distinct suffix exactly once.
            let mut todo: Vec<usize> = Vec::new();
            let mut todo_of: HashMap<Perturbation, usize> = HashMap::new();
            let mut member_slots: Vec<(usize, usize)> = Vec::new();
            for &qi in members {
                let p = queries[qi].perturbation;
                match self.memo.get(&(digest, p)) {
                    Some(report) => pending[qi] = Some(Pending::Memo(Box::new(report.clone()))),
                    None => {
                        let ti = *todo_of.entry(p).or_insert_with(|| {
                            todo.push(qi);
                            todo.len() - 1
                        });
                        member_slots.push((qi, ti));
                    }
                }
            }
            let perts: Vec<Perturbation> =
                todo.iter().map(|&qi| queries[qi].perturbation).collect();
            let plan = plan_replays(cfg, &self.bases[&digest], &perts);

            // The shared prefix only ever advances forward; the plan sorted
            // the forkable queries by divergence instant to match.
            let mut planned: Vec<Option<(usize, AnswerSource)>> = vec![None; todo.len()];
            let mut cursor: Option<(bool, PrefixRun)> = None;
            for &(ti, t) in &plan.forkable {
                // Events AT the divergence instant belong to the suffix.
                let target = SimTime(t.as_micros() - 1);
                let (from_cache, run) =
                    cursor.get_or_insert_with(|| match self.cache.fork_at(digest, target) {
                        Some((_, run)) => (true, run),
                        None => (false, PrefixRun::new(cfg)),
                    });
                run.advance_until(target);
                if self.cfg.cache_fork_points {
                    self.cache.insert(digest, target, run.fork());
                }
                let branch = run.fork_perturbed(&perts[ti]);
                let prefix_events = branch.processed();
                planned[ti] = Some((work.len(), AnswerSource::Forked { from_cache: *from_cache }));
                work.push(WorkItem::Branch { run: branch, prefix_events });
            }
            for &ti in &plan.full_reruns {
                planned[ti] = Some((work.len(), AnswerSource::FullRerun));
                work.push(WorkItem::Rerun(Box::new(apply_perturbation(cfg.clone(), &perts[ti]))));
            }
            for (qi, ti) in member_slots {
                let (item, source) = planned[ti].expect("every todo slot was planned");
                // The first occurrence owns the work item (and memoizes its
                // report); repeats are in-batch memo hits on that report.
                pending[qi] = Some(if todo[ti] == qi {
                    Pending::Work { item, source }
                } else {
                    Pending::Shared { item }
                });
            }
        }

        // Fan the whole batch — suffix finishes and full reruns alike —
        // over the work-stealing pool. Results come home in input order and
        // every job is an independent deterministic simulation, so the
        // reports are byte-identical to a serial loop's.
        let reports: Vec<(JobReport, u64)> = antdt_par::par_map(work, |item| match item {
            WorkItem::Branch { run, prefix_events } => (run.finish(), prefix_events),
            WorkItem::Rerun(cfg) => (Job::run(*cfg), 0),
        });

        // Assemble answers in query order and memoize the fresh reports.
        let answers: Vec<WhatIfAnswer> = pending
            .into_iter()
            .enumerate()
            .map(|(qi, slot)| match slot.expect("every query was planned") {
                Pending::Memo(report) => WhatIfAnswer {
                    report: *report,
                    source: AnswerSource::Memo,
                    prefix_events: 0,
                    suffix_events: 0,
                },
                Pending::Work { item, source } => {
                    let (report, prefix_events) = &reports[item];
                    let key = (digests[qi], queries[qi].perturbation);
                    self.memo.entry(key).or_insert_with(|| report.clone());
                    WhatIfAnswer {
                        report: report.clone(),
                        source,
                        prefix_events: *prefix_events,
                        suffix_events: report.events_processed - prefix_events,
                    }
                }
                Pending::Shared { item } => WhatIfAnswer {
                    report: reports[item].0.clone(),
                    source: AnswerSource::Memo,
                    prefix_events: 0,
                    suffix_events: 0,
                },
            })
            .collect();

        self.update_counters(&answers, stats_before);
        answers
    }

    /// Simulate the base run of `cfg`, inserting a spine of snapshots every
    /// [`ServiceConfig::spine_every`] sim-seconds along the way. The stepwise
    /// advance fires exactly the events `Job::run` fires, so the report is
    /// byte-identical to an un-spined base run.
    fn run_base_with_spine(&mut self, digest: u128, cfg: &JobConfig) -> JobReport {
        if cfg.telemetry || self.cfg.spine_every == SimDuration::ZERO {
            // Telemetry-armed configs cannot fork (shared counters); no
            // spine, and every query against them full-reruns.
            return Job::run(cfg.clone());
        }
        let mut run = PrefixRun::new(cfg);
        let mut t = SimTime::ZERO + self.cfg.spine_every;
        while t < cfg.max_sim_time {
            let drained = run.advance_until(t);
            if drained || run.finished() {
                break;
            }
            self.cache.insert(digest, t, run.fork());
            t += self.cfg.spine_every;
        }
        run.finish()
    }

    fn update_counters(&self, answers: &[WhatIfAnswer], before: CacheStats) {
        let Some(c) = &self.counters else { return };
        c.queries.add(answers.len() as u64);
        for a in answers {
            match a.source {
                AnswerSource::Memo => c.memo_hits.inc(),
                AnswerSource::Forked { .. } => c.forked.inc(),
                AnswerSource::FullRerun => c.full_reruns.inc(),
            }
        }
        let now = self.cache.stats();
        c.cache_hits.add(now.hits - before.hits);
        c.cache_misses.add(now.misses - before.misses);
        c.cache_insertions.add(now.insertions - before.insertions);
        c.cache_evictions.add(now.evictions - before.evictions);
        c.cache_bytes.set(self.cache.bytes() as u64);
    }
}
