//! Per-node speed and contention profiles.
//!
//! A node's iteration cost is composed as
//!
//! ```text
//! T = base_cost(batch) / speed_factor * slowdown(t) * jitter + extra_delay(t)
//! ```
//!
//! * `speed_factor` models *deterministic* stragglers (hardware heterogeneity:
//!   a P100 at 1/3 of a V100's speed, older CPU series…).
//! * `slowdown(t)` and `extra_delay(t)` model *non-deterministic* stragglers from
//!   resource contention, following the paper's FlexRR-style injection (§VII-A4):
//!   `T_delay = SleepDuration × Intensity` with a certain probability, either in
//!   periodic 15-minutes-in-30 windows (transient) or from start to end
//!   (persistent).
//! * `jitter` is small multiplicative log-normal noise so that even leader nodes
//!   show realistic BPT variance.
//!
//! Episode coin flips are addressed deterministically by `(stream, episode
//! index)` via [`RngPool::bernoulli_at`], so a profile can be queried at any time
//! in any order and always answers the same.
//!
//! Both contention terms are piecewise constant: they change only at a
//! window edge or at the edge of a transient episode's active or idle half.
//! [`NodeProfile::span_at`] answers with the window [`ContentionSpan`] over
//! which its values hold, and a [`NodeContention`] keeps the span it last
//! read, so a node re-scans its phases and re-hashes its episode coin once
//! per span instead of once per cost.

use crate::dist::unit_mean_jitter;
use crate::rng::{RngPool, StdRng};
use crate::time::{SimDuration, SimTime};

/// Periodic transient-contention pattern: every `period`, an episode of length
/// `active` begins; with probability `probability` this node is disturbed for
/// the whole episode, adding `sleep_secs * intensity` to every iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientPattern {
    pub period: SimDuration,
    pub active: SimDuration,
    pub probability: f64,
    pub sleep_secs: f64,
    pub intensity: f64,
}

impl TransientPattern {
    /// The paper's default injection: 15 minutes of contention every 30 minutes
    /// with probability 0.3, `SleepDuration = 1.5 s` (§VII-A4).
    pub fn paper_default(intensity: f64) -> Self {
        TransientPattern {
            period: SimDuration::from_minutes(30),
            active: SimDuration::from_minutes(15),
            probability: 0.3,
            sleep_secs: 1.5,
            intensity,
        }
    }

    /// The delay at `now`, narrowing `window` to the half-episode (active or
    /// idle) that holds `now`: the delay is the same at every instant of it.
    fn delay_at(&self, pool: &RngPool, stream: u64, now: SimTime, window: &mut Window) -> f64 {
        let period = self.period.as_micros();
        if period == 0 {
            return 0.0;
        }
        let t = now.as_micros();
        let episode = t / period;
        let start = episode * period;
        let offset = t - start;
        let active = self.active.as_micros();
        let in_active = offset < active;
        let (from, to) = if in_active {
            (start, start.saturating_add(active.min(period)))
        } else {
            (start + active, start.saturating_add(period))
        };
        window.narrow(SimTime(from), SimTime(to));
        if in_active && pool.bernoulli_at(stream, episode, self.probability) {
            self.sleep_secs * self.intensity
        } else {
            0.0
        }
    }
}

/// The window `[lo, hi)` a phase scan narrows as it reads each phase.
struct Window {
    lo: SimTime,
    hi: SimTime,
}

impl Window {
    fn narrow(&mut self, lo: SimTime, hi: SimTime) {
        self.lo = self.lo.max(lo);
        self.hi = self.hi.min(hi);
    }

    /// Whether `[from, to)` holds `now`, narrowing the window to the
    /// instants where that answer is the same.
    fn phase(&mut self, now: SimTime, from: SimTime, to: SimTime) -> bool {
        for edge in [from, to] {
            if now < edge {
                self.hi = self.hi.min(edge);
            } else {
                self.lo = self.lo.max(edge);
            }
        }
        from <= now && now < to
    }
}

/// A node's contention terms together with the window `[lo, hi)` over which
/// both hold: every phase is in the same state at each instant of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionSpan {
    pub lo: SimTime,
    pub hi: SimTime,
    /// Multiplicative slowdown factor (≥ 1.0).
    pub slowdown: f64,
    /// Additive per-iteration delay (seconds).
    pub extra_delay: f64,
}

impl ContentionSpan {
    /// A span that holds at no instant, so the first read replaces it.
    const EMPTY: ContentionSpan =
        ContentionSpan { lo: SimTime::ZERO, hi: SimTime::ZERO, slowdown: 1.0, extra_delay: 0.0 };

    /// Whether the span's terms hold at `now`.
    #[inline]
    pub fn holds_at(&self, now: SimTime) -> bool {
        self.lo <= now && now < self.hi
    }

    /// Whether the node is under any contention over the span.
    pub fn contended(&self) -> bool {
        self.extra_delay > 0.0 || self.slowdown > 1.0
    }
}

/// One contention phase contributing additive delay or multiplicative slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionPhase {
    /// Constant extra delay per iteration over `[from, to)` — the paper's
    /// persistent straggler (`T_delay = 4 s`, start to end).
    Persistent { delay_secs: f64, from: SimTime, to: SimTime },
    /// FlexRR-style periodic transient contention.
    Transient(TransientPattern),
    /// Multiplicative slowdown over `[from, to)` (e.g. a co-located production
    /// job stealing half the cores).
    Slowdown { factor: f64, from: SimTime, to: SimTime },
}

/// Full per-node profile. See the module docs for the composition rule.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Deterministic hardware speed relative to the reference device (1.0).
    pub speed_factor: f64,
    /// Sigma of the unit-mean multiplicative log-normal iteration jitter.
    pub jitter_sigma: f64,
    /// Contention phases, all evaluated and summed/multiplied together.
    pub phases: Vec<ContentionPhase>,
    /// RNG stream id for this node's episode coin flips.
    pub stream: u64,
}

impl NodeProfile {
    /// A clean leader node: reference speed, mild jitter, no contention.
    pub fn clean(stream: u64) -> Self {
        NodeProfile { speed_factor: 1.0, jitter_sigma: 0.02, phases: Vec::new(), stream }
    }

    /// A deterministic straggler: hardware `factor`× slower than reference.
    pub fn deterministic(stream: u64, factor_slower: f64) -> Self {
        NodeProfile {
            speed_factor: 1.0 / factor_slower.max(f64::MIN_POSITIVE),
            ..NodeProfile::clean(stream)
        }
    }

    pub fn with_jitter(mut self, sigma: f64) -> Self {
        self.jitter_sigma = sigma;
        self
    }

    pub fn with_phase(mut self, phase: ContentionPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Paper persistent straggler: constant `delay_secs` for the whole job.
    pub fn persistent(stream: u64, delay_secs: f64) -> Self {
        NodeProfile::clean(stream).with_phase(ContentionPhase::Persistent {
            delay_secs,
            from: SimTime::ZERO,
            to: SimTime::MAX,
        })
    }

    /// Paper transient straggler with the default FlexRR pattern.
    pub fn transient(stream: u64, intensity: f64) -> Self {
        NodeProfile::clean(stream)
            .with_phase(ContentionPhase::Transient(TransientPattern::paper_default(intensity)))
    }

    /// Both contention terms at `now` and the span over which they hold
    /// (`lo ≤ now < hi` for every `now` below [`SimTime::MAX`]). Each term
    /// folds the phases in order, so it has the bits of a per-instant scan.
    pub fn span_at(&self, pool: &RngPool, now: SimTime) -> ContentionSpan {
        let mut window = Window { lo: SimTime::ZERO, hi: SimTime::MAX };
        let (mut slowdown, mut extra_delay) = (1.0, 0.0);
        for p in &self.phases {
            match *p {
                ContentionPhase::Persistent { delay_secs, from, to } => {
                    if window.phase(now, from, to) {
                        extra_delay += delay_secs;
                    }
                }
                ContentionPhase::Transient(t) => {
                    extra_delay += t.delay_at(pool, self.stream, now, &mut window)
                }
                ContentionPhase::Slowdown { factor, from, to } => {
                    if window.phase(now, from, to) {
                        slowdown *= factor.max(1.0);
                    }
                }
            }
        }
        ContentionSpan { lo: window.lo, hi: window.hi, slowdown, extra_delay }
    }

    /// Additive contention delay (seconds) at instant `now`.
    pub fn extra_delay(&self, pool: &RngPool, now: SimTime) -> f64 {
        self.span_at(pool, now).extra_delay
    }

    /// Multiplicative slowdown factor (≥ 1.0) at instant `now`.
    pub fn slowdown(&self, pool: &RngPool, now: SimTime) -> f64 {
        self.span_at(pool, now).slowdown
    }

    /// Whether the node is currently under any contention phase (used by tests
    /// and visualisation, not by the mitigation logic — AntDT only observes BPT).
    pub fn contended(&self, pool: &RngPool, now: SimTime) -> bool {
        self.span_at(pool, now).contended()
    }

    /// Compose the full iteration cost in seconds for a base (contention-free,
    /// reference-device) cost, under the contention terms of `span`.
    #[inline]
    pub fn iteration_secs(
        &self,
        span: &ContentionSpan,
        base_cost_secs: f64,
        rng: &mut StdRng,
    ) -> f64 {
        let jitter = unit_mean_jitter(rng, self.jitter_sigma);
        base_cost_secs / self.speed_factor * span.slowdown * jitter + span.extra_delay
    }
}

/// A node's profile plus the [`ContentionSpan`] it last read. The profile
/// is read through `Deref` and replaced only by
/// [`NodeContention::set_profile`], which drops the span read from the old
/// one.
#[derive(Debug, Clone)]
pub struct NodeContention {
    profile: NodeProfile,
    span: ContentionSpan,
}

impl NodeContention {
    pub fn new(profile: NodeProfile) -> Self {
        NodeContention { profile, span: ContentionSpan::EMPTY }
    }

    /// Replace the profile (a restart onto clean hardware, a what-if edit).
    pub fn set_profile(&mut self, profile: NodeProfile) {
        self.profile = profile;
        self.span = ContentionSpan::EMPTY;
    }

    /// The contention terms at `now`: the held span while it holds, else
    /// the profile's span there, which is then held.
    #[inline]
    pub fn at(&mut self, pool: &RngPool, now: SimTime) -> ContentionSpan {
        if !self.span.holds_at(now) {
            self.span = self.profile.span_at(pool, now);
        }
        self.span
    }
}

impl std::ops::Deref for NodeContention {
    type Target = NodeProfile;

    fn deref(&self) -> &NodeProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> RngPool {
        RngPool::new(2024)
    }

    #[test]
    fn clean_node_has_no_delay() {
        let n = NodeProfile::clean(0);
        assert_eq!(n.extra_delay(&pool(), SimTime::from_secs_f64(100.0)), 0.0);
        assert_eq!(n.slowdown(&pool(), SimTime::ZERO), 1.0);
    }

    #[test]
    fn persistent_delay_is_constant() {
        let n = NodeProfile::persistent(1, 4.0);
        for s in [0.0, 10.0, 10_000.0, 1e6] {
            assert_eq!(n.extra_delay(&pool(), SimTime::from_secs_f64(s)), 4.0);
        }
    }

    #[test]
    fn persistent_delay_respects_interval() {
        let n = NodeProfile::clean(1).with_phase(ContentionPhase::Persistent {
            delay_secs: 2.0,
            from: SimTime::from_secs_f64(100.0),
            to: SimTime::from_secs_f64(200.0),
        });
        assert_eq!(n.extra_delay(&pool(), SimTime::from_secs_f64(50.0)), 0.0);
        assert_eq!(n.extra_delay(&pool(), SimTime::from_secs_f64(150.0)), 2.0);
        assert_eq!(n.extra_delay(&pool(), SimTime::from_secs_f64(250.0)), 0.0);
    }

    #[test]
    fn transient_active_only_in_window_and_episode() {
        let n = NodeProfile::transient(3, 0.8);
        let p = pool();
        // Find an episode where the coin flip succeeded and one where it failed.
        let mut hit = None;
        let mut miss = None;
        for e in 0..200u64 {
            let t_active = SimTime(
                e * SimDuration::from_minutes(30).as_micros()
                    + SimDuration::from_minutes(5).as_micros(),
            );
            let d = n.extra_delay(&p, t_active);
            if d > 0.0 {
                hit = Some((e, d));
            } else {
                miss = Some(e);
            }
            // Outside the active window there is never delay.
            let t_idle = SimTime(
                e * SimDuration::from_minutes(30).as_micros()
                    + SimDuration::from_minutes(20).as_micros(),
            );
            assert_eq!(n.extra_delay(&p, t_idle), 0.0);
        }
        let (_, d) = hit.expect("some episode should hit with p=0.3 over 200 tries");
        assert!((d - 1.5 * 0.8).abs() < 1e-12);
        assert!(miss.is_some());
    }

    #[test]
    fn transient_rate_near_probability() {
        let n = NodeProfile::transient(5, 1.0);
        let p = pool();
        let active = (0..2000u64)
            .filter(|e| {
                let t = SimTime(e * SimDuration::from_minutes(30).as_micros() + 1);
                n.extra_delay(&p, t) > 0.0
            })
            .count();
        let rate = active as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn deterministic_straggler_scales_cost() {
        let n = NodeProfile::deterministic(0, 3.0).with_jitter(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let t = n.iteration_secs(&n.span_at(&pool(), SimTime::ZERO), 1.0, &mut rng);
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_phase_multiplies() {
        let n = NodeProfile::clean(0).with_jitter(0.0).with_phase(ContentionPhase::Slowdown {
            factor: 2.5,
            from: SimTime::ZERO,
            to: SimTime::MAX,
        });
        let mut rng = StdRng::seed_from_u64(0);
        let t = n.iteration_secs(&n.span_at(&pool(), SimTime::ZERO), 2.0, &mut rng);
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_secs_composition() {
        // 3x-slower hardware + persistent 4s + no jitter on a 1.5s base cost.
        let n = NodeProfile {
            speed_factor: 1.0 / 3.0,
            jitter_sigma: 0.0,
            phases: vec![ContentionPhase::Persistent {
                delay_secs: 4.0,
                from: SimTime::ZERO,
                to: SimTime::MAX,
            }],
            stream: 9,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let t = n.iteration_secs(&n.span_at(&pool(), SimTime::ZERO), 1.5, &mut rng);
        assert!((t - (1.5 * 3.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_unit_mean() {
        let n = NodeProfile::clean(0).with_jitter(0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let k = 50_000;
        let m: f64 = (0..k)
            .map(|_| n.iteration_secs(&n.span_at(&pool(), SimTime::ZERO), 1.0, &mut rng))
            .sum::<f64>()
            / k as f64;
        assert!((m - 1.0).abs() < 0.01, "mean {m}");
    }

    /// The per-instant phase scan spans replaced: each term folded over the
    /// phases in order, the transient episode found with `/` and `%`.
    fn oracle_terms(n: &NodeProfile, pool: &RngPool, now: SimTime) -> (f64, f64) {
        let (mut slowdown, mut delay) = (1.0, 0.0);
        for p in &n.phases {
            match *p {
                ContentionPhase::Persistent { delay_secs, from, to } => {
                    if now >= from && now < to {
                        delay += delay_secs;
                    }
                }
                ContentionPhase::Transient(t) => {
                    let period = t.period.as_micros();
                    if let Some(episode) = now.as_micros().checked_div(period) {
                        let offset = now.as_micros() % period;
                        let hit = offset < t.active.as_micros()
                            && pool.bernoulli_at(n.stream, episode, t.probability);
                        delay += if hit { t.sleep_secs * t.intensity } else { 0.0 };
                    }
                }
                ContentionPhase::Slowdown { factor, from, to } => {
                    if now >= from && now < to {
                        slowdown *= factor.max(1.0);
                    }
                }
            }
        }
        (slowdown, delay)
    }

    /// A seeded profile of 1–5 phases on a 0–400 s axis: windows that
    /// overlap, share an edge or have zero (or negative) length, transient
    /// patterns with `period = 0`, `active` longer than `period`, and coin
    /// probabilities 0, 0.3 and 1.
    fn random_profile(rng: &mut StdRng, stream: u64) -> NodeProfile {
        let mut edges = vec![0u64];
        let edge = |rng: &mut StdRng, edges: &mut Vec<u64>| {
            let e = if edges.len() > 1 && rng.gen_bool(0.4) {
                edges[rng.gen_range(0..edges.len())]
            } else {
                rng.gen_range(0..400u64) * 1_000_000 + rng.gen_range(0..3u64)
            };
            edges.push(e);
            SimTime(e)
        };
        let mut n = NodeProfile::clean(stream);
        for _ in 0..rng.gen_range(1..6usize) {
            let (from, to) = (edge(rng, &mut edges), edge(rng, &mut edges));
            let to = if rng.gen_bool(0.2) { SimTime::MAX } else { to };
            let phase = match rng.gen_range(0..3u32) {
                0 => ContentionPhase::Persistent { delay_secs: rng.gen_range(0.5..4.0), from, to },
                1 => ContentionPhase::Slowdown { factor: rng.gen_range(0.5..3.0), from, to },
                _ => {
                    let period = [0, 7, 60, 1_800][rng.gen_range(0..4usize)] * 1_000_000;
                    let active = [0, 3, 60, 900][rng.gen_range(0..4usize)] * 1_000_000;
                    ContentionPhase::Transient(TransientPattern {
                        period: SimDuration(period),
                        active: SimDuration(active),
                        probability: [0.0, 0.3, 1.0][rng.gen_range(0..3usize)],
                        sleep_secs: 1.5,
                        intensity: rng.gen_range(0.1..1.0),
                    })
                }
            };
            n = n.with_phase(phase);
        }
        n
    }

    /// Over 256 seeded profiles, the span read at a sampled instant holds
    /// it, and at its first instant, its last microsecond and instants in
    /// between the per-instant scan gives exactly the span's bits.
    #[test]
    fn spans_match_the_per_instant_scan_bit_for_bit() {
        let p = pool();
        let mut rng = StdRng::seed_from_u64(47);
        let bits = |(s, d): (f64, f64)| (s.to_bits(), d.to_bits());
        let (mut bounded, mut contended) = (0, 0);
        for case in 0..256u64 {
            let n = random_profile(&mut rng, case);
            for _ in 0..24 {
                let now = SimTime(rng.gen_range(0..500_000_000u64));
                let span = n.span_at(&p, now);
                assert!(span.holds_at(now), "case {case}: {span:?} misses {now:?}");
                bounded += usize::from(span.hi < SimTime::MAX);
                contended += usize::from(span.contended());
                let last = SimTime(span.hi.0.min(600_000_000) - 1);
                let mids = (0..4).map(|_| SimTime(rng.gen_range(span.lo.0..=last.0)));
                for t in [span.lo, now, last].into_iter().chain(mids) {
                    assert_eq!(
                        bits((span.slowdown, span.extra_delay)),
                        bits(oracle_terms(&n, &p, t)),
                        "case {case} at {t:?} in {span:?}"
                    );
                }
                // Past either end the scan may answer differently, and the
                // re-read span there starts or ends at that edge.
                if span.hi < SimTime::MAX {
                    assert_eq!(n.span_at(&p, span.hi).lo, span.hi, "case {case}");
                }
                if span.lo > SimTime::ZERO {
                    assert_eq!(n.span_at(&p, SimTime(span.lo.0 - 1)).hi, span.lo, "case {case}");
                }
            }
        }
        assert!(bounded > 1_000 && contended > 1_000, "{bounded} bounded, {contended} contended");
    }

    /// A held span answers until its end, then the cache re-reads; a new
    /// profile drops the span read from the old one.
    #[test]
    fn node_contention_rereads_past_the_span_and_after_set_profile() {
        let p = pool();
        let secs = |s: f64| SimTime::from_secs_f64(s);
        let window = |delay_secs| ContentionPhase::Persistent {
            delay_secs,
            from: secs(10.0),
            to: secs(20.0),
        };
        let mut c = NodeContention::new(NodeProfile::clean(1).with_phase(window(2.0)));
        assert_eq!(c.at(&p, secs(5.0)).extra_delay, 0.0);
        assert_eq!(c.at(&p, secs(10.0)).extra_delay, 2.0);
        assert_eq!(c.at(&p, secs(19.0)).extra_delay, 2.0);
        assert_eq!(c.at(&p, secs(20.0)).extra_delay, 0.0);
        assert_eq!(c.at(&p, secs(15.0)).extra_delay, 2.0);
        c.set_profile(NodeProfile::clean(1).with_phase(window(3.0)));
        assert_eq!(c.at(&p, secs(15.0)).extra_delay, 3.0, "the old span must not answer");
        assert_eq!(c.stream, 1, "the profile reads through");
    }
}
