//! The chaos-drill driver: runs a (fault-plan × mitigation-policy) matrix,
//! pairing every drill with a fault-free run of the same seed and policy, and
//! emits one [`DrillReport`] per cell with the full invariant verdict.

use crate::invariants::{self, InvariantOutcome};
use crate::plan::FaultPlan;
use antdt_core::{
    Arch, AttrBlame, Consistency, InjectionRecord, Job, JobConfig, JobReport, MitigationChoice,
};
use antdt_sim::SimDuration;
use antdt_telemetry::FlightDump;

/// Everything one drill produced. Deliberately `PartialEq` (and built only
/// from deterministic simulation outputs) so bit-for-bit reproducibility can
/// be asserted as `run_one(..) == run_one(..)` on the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillReport {
    pub plan: String,
    /// Debug rendering of the [`MitigationChoice`] under drill.
    pub policy: String,
    pub faults_injected: usize,
    /// Per-fault timeline: fire time, restart, first post-restart commit.
    pub injections: Vec<InjectionRecord>,
    pub invariants: Vec<InvariantOutcome>,
    pub jct_clean_secs: f64,
    pub jct_drill_secs: f64,
    /// JCT overhead of the faults relative to the clean run
    /// (`drill/clean - 1`); negative overhead is possible but suspicious.
    pub overhead_frac: f64,
    pub samples_done: u64,
    pub stalled: bool,
    pub timed_out: bool,
    /// All invariants passed.
    pub passed: bool,
    /// The drill run's flight-recorder dump — the last events before the end
    /// of the run. Present only when the drill stalled or an invariant failed
    /// (the cases where a post-mortem is wanted).
    pub flight_dump: Option<FlightDump>,
    /// The drill run's blame ranking (descending score), from the attribution
    /// engine — who made this drill slow, with the faults in play.
    pub blame: Vec<AttrBlame>,
}

impl DrillReport {
    /// The invariant outcome with the given checker name, if it ran.
    pub fn invariant(&self, name: &str) -> Option<&InvariantOutcome> {
        self.invariants.iter().find(|o| o.name == name)
    }
}

/// The whole matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    pub drills: Vec<DrillReport>,
}

impl MatrixReport {
    pub fn all_passed(&self) -> bool {
        self.drills.iter().all(|d| d.passed)
    }

    /// Plain-text table for examples and the bench harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:<18} {:>6} {:>11} {:>11} {:>9} {:>14}  {}\n",
            "plan",
            "policy",
            "faults",
            "clean JCT",
            "drill JCT",
            "overhead",
            "top blame",
            "verdict"
        ));
        for d in &self.drills {
            let verdict = if d.passed {
                "PASS".to_string()
            } else {
                let failed: Vec<&str> =
                    d.invariants.iter().filter(|o| !o.passed).map(|o| o.name.as_str()).collect();
                format!("FAIL [{}]", failed.join(", "))
            };
            let top = d
                .blame
                .first()
                .map(|b| format!("n{} {:.1}s", b.node, b.score_us as f64 / 1e6))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<22} {:<18} {:>6} {:>10.1}s {:>10.1}s {:>8.1}% {:>14}  {}\n",
                d.plan,
                d.policy,
                d.faults_injected,
                d.jct_clean_secs,
                d.jct_drill_secs,
                d.overhead_frac * 100.0,
                top,
                verdict
            ));
        }
        out
    }
}

/// Largest AUC drop a drill may show against its clean twin (real-math runs).
const AUC_TOLERANCE: f64 = 0.02;

/// Runs chaos drills: each drill runs the base job with the plan's faults
/// injected and audits it against the invariant suite, comparing with the
/// clean run of the same policy (its fault-free twin).
pub struct ChaosDriver {
    base: JobConfig,
    plans: Vec<FaultPlan>,
    policies: Vec<MitigationChoice>,
    liveness_timeout: SimDuration,
}

impl ChaosDriver {
    /// `base` should carry everything but mitigation/injections; the driver
    /// overrides those per matrix cell.
    pub fn new(base: JobConfig) -> Self {
        ChaosDriver {
            base,
            plans: Vec::new(),
            policies: vec![MitigationChoice::AntDtNd],
            // Generous default: an order of magnitude above the scheduler
            // model's worst restart (pending_busy tops out at 1500 s).
            liveness_timeout: SimDuration::from_secs(3600),
        }
    }

    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plans.push(plan);
        self
    }

    pub fn with_policies(mut self, policies: Vec<MitigationChoice>) -> Self {
        assert!(!policies.is_empty());
        self.policies = policies;
        self
    }

    pub fn with_liveness_timeout(mut self, d: SimDuration) -> Self {
        self.liveness_timeout = d;
        self
    }

    /// Drill a single (plan, policy) cell against its own clean twin.
    pub fn run_one(&self, plan: &FaultPlan, policy: &MitigationChoice) -> DrillReport {
        self.drill(plan, policy, &Job::run(self.base.clone().with_mitigation(policy.clone())))
    }

    /// Drill one cell against `clean`, the fault-free run of the same seed
    /// and policy.
    fn drill(&self, plan: &FaultPlan, policy: &MitigationChoice, clean: &JobReport) -> DrillReport {
        // Drills run with telemetry and attribution on so a failure leaves a
        // flight-recorder trail and a blame ranking; neither changes the
        // simulated schedule.
        let drill_cfg = self
            .base
            .clone()
            .with_mitigation(policy.clone())
            .with_injections(plan.compile())
            .with_liveness_timeout(self.liveness_timeout)
            .with_telemetry()
            .with_attribution();
        let drill = Job::run(drill_cfg);

        let synchronous =
            !matches!(self.base.arch, Arch::ParameterServer { consistency: Consistency::Asp });
        let invariants = invariants::check_all(
            &drill,
            clean,
            plan.has_kills(),
            plan.expects_stall(),
            synchronous,
            AUC_TOLERANCE,
        );
        let jct_clean_secs = clean.jct.as_secs_f64();
        let jct_drill_secs = drill.jct.as_secs_f64();
        let overhead_frac =
            if jct_clean_secs > 0.0 { jct_drill_secs / jct_clean_secs - 1.0 } else { 0.0 };
        let passed = invariants.iter().all(|o| o.passed);
        let flight_dump = if drill.stalled || !passed {
            drill.telemetry.as_ref().map(|t| t.flight.clone())
        } else {
            None
        };
        let blame = drill.attr.as_ref().map(|a| a.blame.clone()).unwrap_or_default();
        DrillReport {
            plan: plan.name.clone(),
            policy: format!("{policy:?}"),
            faults_injected: drill.injections.len(),
            injections: drill.injections.clone(),
            passed,
            invariants,
            jct_clean_secs,
            jct_drill_secs,
            overhead_frac,
            samples_done: drill.samples_done,
            stalled: drill.stalled,
            timed_out: drill.timed_out,
            flight_dump,
            blame,
        }
    }

    /// Drill the full plan × policy matrix. The clean twins depend only on
    /// the policy, so each runs once; then the drill cells fan out with
    /// [`antdt_par::par_map`]. Every run is an independent deterministic
    /// simulation, so the report is bit-for-bit identical to a serial run
    /// (`antdt_par::with_serial(|| driver.run())`) — the parity tests assert
    /// it.
    pub fn run(&self) -> MatrixReport {
        let clean = antdt_par::par_map(self.policies.clone(), |policy| {
            Job::run(self.base.clone().with_mitigation(policy))
        });
        let cells: Vec<(usize, usize)> = (0..self.plans.len())
            .flat_map(|i| (0..self.policies.len()).map(move |j| (i, j)))
            .collect();
        let drills = antdt_par::par_map(cells, |(i, j)| {
            self.drill(&self.plans[i], &self.policies[j], &clean[j])
        });
        MatrixReport { drills }
    }
}
