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
//!    without simulating anything. So does a query whose edit leaves a
//!    config the service already holds a base report for: equal config
//!    digests mean the same simulated schedule.
//! 2. **Snapshot cache** — an LRU, byte-budgeted store of advanced prefix
//!    runs keyed by `(config digest, instant)` with nearest-predecessor
//!    lookup ([`SnapshotCache`]); a query forks the closest cached snapshot
//!    at or before its divergence instant instead of re-simulating the
//!    prelude. A **snapshot spine** seeds the cache during the base run:
//!    the first simulation of a config holds a fork of itself at every
//!    [`ServiceConfig::spine_every`] tick and keeps it only if the run sets
//!    a divergence mark before the next tick. A query can only fork just
//!    before a mark, so that tick is the one snapshot it can read; the
//!    spine stops once every mark the config can set is set. The cache
//!    holds a snapshot only while a later query can read it: an **open
//!    target** is `mark − 1 µs` of a perturbation with a mark above zero
//!    that is not yet memoized, and a snapshot is kept only if it is the
//!    nearest held predecessor of one. A batch caches a fork point only if
//!    an open target outside the batch would read it, and once its answers
//!    are memoized it drops every snapshot of its configs that none reads.
//! 3. **Fork replay** — within a batch, queries sharing a config fork one
//!    monotonically-advancing prefix at their (sorted) divergence instants
//!    and only simulate their suffixes.
//!
//! A query with no divergence mark (or one at t = 0) cannot fork. An edit
//! that changes nothing in the config (`perturbation_edits`) is answered
//! from the trace's own report, one that turns it into another held trace
//! from that trace's report; other non-forkable edits full-rerun. Within a
//! group, the last forkable query takes the shared prefix itself rather
//! than a copy. Suffix finishes and those full reruns fan out over the
//! `antdt-par` fan-out in input order, so every answer is
//! **byte-identical** to a serial full rerun of the perturbed config — the
//! differential tests and the `whatif` bench assert this via
//! `JobReport::golden_dump`. A fork carries the telemetry its prefix
//! recorded, so telemetry-armed configs fork like any other and their
//! answers carry the same `TelemetryReport` a rerun renders.

mod cache;

pub use cache::{CacheStats, SnapshotCache};

use antdt_core::{
    apply_perturbation, config_digest, divergence_instant, divergence_mark_bound,
    perturbation_edits, plan_replays, Job, JobConfig, JobReport, Perturbation, PrefixRun,
    MAX_SIM_TIME,
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
    /// Answered from a report the service already held: this exact
    /// `(config, perturbation)` was answered before, or the edit leaves a
    /// config whose digest matches a held base report (e.g. healing a node
    /// that was never contended).
    Memo,
    /// Forked a prefix at the divergence instant; `from_cache` says whether
    /// the prefix was seeded from a cached snapshot (vs built fresh).
    Forked { from_cache: bool },
    /// Full rerun: no divergence mark, or a mark at time zero, and the
    /// edited config matches no held report.
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
    /// snapshot it every this many sim-seconds so later queries at any
    /// divergence instant find a near predecessor; only ticks that precede
    /// a mark are kept. [`SimDuration::ZERO`] disables the spine.
    pub spine_every: SimDuration,
    /// Also cache a query's fork point when a later query can read it:
    /// when it is the nearest predecessor of an open target outside the
    /// batch (see the crate docs), which then starts closer.
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

/// Where a query diverging at `mark` forks: events AT the divergence
/// instant belong to the suffix.
fn fork_instant(mark: SimTime) -> SimTime {
    SimTime(mark.as_micros() - 1)
}

/// Whether an open query would read a snapshot at `s`: for some target
/// `t` in `open`, `s` is the nearest held predecessor — `s <= t` and no
/// other instant of `held` lies in `(s, t]`.
fn readable(s: SimTime, held: &[SimTime], open: &[SimTime]) -> bool {
    open.iter().any(|&t| s <= t && !held.iter().any(|&h| s < h && h <= t))
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
    Branch { run: Box<PrefixRun>, prefix_events: u64 },
    /// A full perturbed rerun from time zero.
    Rerun(Box<JobConfig>),
}

/// The prefix a group's forkable queries branch off, advanced in
/// divergence order.
struct Cursor {
    /// Whether the prefix was seeded from a cached snapshot.
    from_cache: bool,
    /// The newest instant the cache holds a snapshot of this prefix at.
    cached_at: Option<SimTime>,
    run: PrefixRun,
}

/// An answer slot before the reports come home.
#[derive(Clone)]
enum Pending {
    Memo(Box<JobReport>),
    /// Index into the fan-out work list.
    Work {
        item: usize,
        source: AnswerSource,
    },
    /// An in-batch repeat of a query that owns a work item: answered from
    /// the report that query memoized, without simulating anything, like a
    /// memo hit.
    Shared,
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

    /// The instants the snapshot cache holds snapshots of `cfg` at,
    /// ascending.
    pub fn snapshot_instants(&self, cfg: &JobConfig) -> Vec<SimTime> {
        self.cache.instants(config_digest(cfg))
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
        for &digest in &group_order {
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
            let plan = plan_replays(&self.bases[&digest], &perts);
            // Every perturbation of this batch is memoized below, so none of
            // them reads a fork point after it.
            let open = self.open_targets(digest, &perts);

            // The shared prefix only ever advances forward; the plan sorted
            // the forkable queries by divergence instant to match. The last
            // branch takes the cursor itself instead of a copy of it.
            let mut planned: Vec<Option<Pending>> = vec![None; todo.len()];
            let mut cursor: Option<Cursor> = None;
            let last = plan.forkable.len().saturating_sub(1);
            for (j, &(ti, t)) in plan.forkable.iter().enumerate() {
                let target = fork_instant(t);
                let mut c =
                    cursor.take().unwrap_or_else(|| match self.cache.fork_at(digest, target) {
                        Some((at, run)) => Cursor { from_cache: true, cached_at: Some(at), run },
                        None => {
                            Cursor { from_cache: false, cached_at: None, run: PrefixRun::new(cfg) }
                        }
                    });
                c.run.advance_until(target);
                if self.cfg.cache_fork_points
                    && c.cached_at != Some(target)
                    && readable(target, &self.cache.instants(digest), &open)
                {
                    self.cache.insert(digest, target, c.run.fork());
                    c.cached_at = Some(target);
                }
                let source = AnswerSource::Forked { from_cache: c.from_cache };
                let branch = if j == last {
                    c.run.into_perturbed(&perts[ti])
                } else {
                    let branch = c.run.fork_perturbed(&perts[ti]);
                    cursor = Some(c);
                    branch
                };
                let prefix_events = branch.processed();
                planned[ti] = Some(Pending::Work { item: work.len(), source });
                work.push(WorkItem::Branch { run: Box::new(branch), prefix_events });
            }
            for &ti in &plan.full_reruns {
                let p = &perts[ti];
                // An edit that changes nothing is answered from this trace's
                // own report. Otherwise equal digests mean the same simulated
                // schedule, so an edit that turns the config into another
                // held trace is answered from that trace's report.
                if !perturbation_edits(cfg, p) {
                    planned[ti] = Some(Pending::Memo(Box::new(self.bases[&digest].clone())));
                    continue;
                }
                let edited = apply_perturbation(cfg.clone(), p);
                planned[ti] = Some(match self.bases.get(&config_digest(&edited)) {
                    Some(report) => {
                        self.memo.insert((digest, *p), report.clone());
                        Pending::Memo(Box::new(report.clone()))
                    }
                    None => {
                        work.push(WorkItem::Rerun(Box::new(edited)));
                        Pending::Work { item: work.len() - 1, source: AnswerSource::FullRerun }
                    }
                });
            }
            for (qi, ti) in member_slots {
                // The first occurrence owns the work item (and memoizes its
                // report); repeats are in-batch memo hits on that report.
                pending[qi] =
                    Some(match planned[ti].as_ref().expect("every todo slot was planned") {
                        Pending::Work { .. } if todo[ti] != qi => Pending::Shared,
                        slot => slot.clone(),
                    });
            }
        }

        // Fan the whole batch — suffix finishes and full reruns alike —
        // out over `antdt_par`'s scoped threads. Results come home in input
        // order and every job is an independent deterministic simulation,
        // so the reports are byte-identical to a serial loop's.
        let mut reports: Vec<Option<(JobReport, u64)>> =
            antdt_par::par_map(work, |item| match item {
                WorkItem::Branch { run, prefix_events } => Some((run.finish(), prefix_events)),
                WorkItem::Rerun(cfg) => Some((Job::run(*cfg), 0)),
            });

        // Assemble answers in query order and memoize the fresh reports.
        // Each report moves into its owner's answer and is cloned once for
        // the memo; an in-batch repeat comes after its owner in query order,
        // so it clones the memoized copy.
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
                    let (report, prefix_events) =
                        reports[item].take().expect("each work item has one owner");
                    self.memo.insert((digests[qi], queries[qi].perturbation), report.clone());
                    WhatIfAnswer {
                        suffix_events: report.events_processed - prefix_events,
                        report,
                        source,
                        prefix_events,
                    }
                }
                Pending::Shared => WhatIfAnswer {
                    report: self.memo[&(digests[qi], queries[qi].perturbation)].clone(),
                    source: AnswerSource::Memo,
                    prefix_events: 0,
                    suffix_events: 0,
                },
            })
            .collect();

        // The batch's perturbations are memoized now and never fork again:
        // drop the snapshots only they would have read.
        for &digest in &group_order {
            let open = self.open_targets(digest, &[]);
            let held = self.cache.instants(digest);
            for &s in held.iter().filter(|&&s| !readable(s, &held, &open)) {
                self.cache.remove(digest, s);
            }
        }

        self.update_counters(&answers, stats_before);
        answers
    }

    /// Simulate the base run of `cfg`, keeping the snapshots a query can
    /// fork from. A query forks just before a divergence mark, from the
    /// nearest cached predecessor, so of the [`ServiceConfig::spine_every`]
    /// ticks only the last one before each mark is read: the run holds a
    /// fork at each tick and caches it only if the next advance sets a mark.
    /// Once every mark the config can set ([`divergence_mark_bound`]) is
    /// set, the run finishes without stopping. The stepwise advance fires
    /// exactly the events `Job::run` fires, so the report is byte-identical
    /// to an un-spined base run.
    fn run_base_with_spine(&mut self, digest: u128, cfg: &JobConfig) -> JobReport {
        let bound = divergence_mark_bound(cfg);
        if self.cfg.spine_every == SimDuration::ZERO || bound == 0 {
            return Job::run(cfg.clone());
        }
        let mut run = PrefixRun::new(cfg);
        let mut held: Option<(SimTime, PrefixRun)> = None;
        let mut t = SimTime::ZERO;
        loop {
            let set = run.marks_set();
            // No tick at or past the deadline; `finish` re-runs the last
            // advance as a no-op.
            t = (t + self.cfg.spine_every).min(MAX_SIM_TIME);
            let drained = run.advance_until(t);
            if run.marks_set() > set {
                if let Some((at, snapshot)) = held.take() {
                    self.cache.insert(digest, at, snapshot);
                }
            }
            if drained || run.finished() || t == MAX_SIM_TIME || run.marks_set() >= bound {
                break;
            }
            held = Some((t, run.fork()));
        }
        run.finish()
    }

    /// The instants open queries on `digest` would fork at: `mark − 1 µs`
    /// for every perturbation whose base-report divergence mark is above
    /// zero, that is not memoized (the memo never evicts, so an answered
    /// perturbation never forks again) and not in `skip`.
    fn open_targets(&self, digest: u128, skip: &[Perturbation]) -> Vec<SimTime> {
        let base = &self.bases[&digest];
        let workers =
            (0..base.divergence.worker_contended.len() as u32).map(Perturbation::HealthyNode);
        workers
            .chain([Perturbation::ZeroControlLatency, Perturbation::NoCkptStalls])
            .filter(|p| !skip.contains(p) && !self.memo.contains_key(&(digest, *p)))
            .filter_map(|p| divergence_instant(base, &p))
            .filter(|&t| t > SimTime::ZERO)
            .map(fork_instant)
            .collect()
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
