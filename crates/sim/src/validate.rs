//! Empirical validation of schedulability verdicts.
//!
//! A sound schedulability test's "accept" must survive *every* legal
//! runtime behaviour. This module runs an adversarial battery of scenarios
//! against an accepted task set and reports the first observed
//! counterexample — the workhorse behind the cross-crate property tests
//! that tie the reconstructed analyses (`mcsched-analysis`) to executable
//! behaviour (`tests/analysis_vs_simulation.rs` at the workspace root).

use crate::engine::Simulator;
use crate::policy::Policy;
use crate::report::MissRecord;
use crate::scenario::Scenario;
use mcsched_model::TaskSet;

/// The default adversarial scenario battery: nominal, sustained-overrun,
/// and a spread of randomized overrun/sporadic behaviours derived from
/// `seed`.
pub fn battery(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario::lo_only(),
        Scenario::all_hi(),
        Scenario::random_overrun(0.25, seed),
        Scenario::random_overrun(0.5, seed.wrapping_add(1)),
        Scenario::random_overrun(0.75, seed.wrapping_add(2)),
        Scenario::sporadic(0.3, 0.5, seed.wrapping_add(3)),
        Scenario::sporadic(0.8, 1.0, seed.wrapping_add(4)),
    ]
}

/// A validation failure: the scenario under which a required deadline was
/// missed, with the first miss.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// The scenario that produced the miss.
    pub scenario: Scenario,
    /// The first recorded miss.
    pub miss: MissRecord,
}

impl std::fmt::Display for CounterExample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} under {:?}", self.miss, self.scenario)
    }
}

/// A sensible default horizon: enough periods of the longest task for
/// several busy intervals, capped to keep validation fast.
pub fn default_horizon(ts: &TaskSet) -> u64 {
    ts.max_period()
        .as_ticks()
        .saturating_mul(25)
        .clamp(1_000, 50_000)
}

/// Runs the battery against one processor's task set under a policy.
///
/// # Errors
///
/// Returns the first [`CounterExample`] encountered; `Ok(())` means every
/// scenario in the battery met all required deadlines.
pub fn validate_uniprocessor(
    ts: &TaskSet,
    policy: &Policy,
    horizon: u64,
    seed: u64,
) -> Result<(), CounterExample> {
    for scenario in battery(seed) {
        let report = Simulator::new(ts, policy.clone()).run(&scenario, horizon);
        if let Some(&miss) = report.misses().first() {
            return Err(CounterExample { scenario, miss });
        }
    }
    Ok(())
}

/// Validates an EDF-VD acceptance end to end: derives the scaling factor,
/// builds the runtime policy and runs the battery.
///
/// # Errors
///
/// Returns a [`CounterExample`] if any battery scenario misses a required
/// deadline.
///
/// # Panics
///
/// Panics if the task set is *not* EDF-VD-accepted (callers validate
/// accepted sets only).
pub fn validate_edfvd_acceptance(ts: &TaskSet, seed: u64) -> Result<(), CounterExample> {
    let x = mcsched_analysis::EdfVd::new()
        .scaling_factor(ts)
        .expect("caller must pass an EDF-VD-accepted set");
    let policy = Policy::edf_vd_scaled(ts, x);
    validate_uniprocessor(ts, &policy, default_horizon(ts), seed)
}

/// Validates an EY/ECDF acceptance: uses the tuner's virtual-deadline
/// assignment as the runtime policy.
///
/// # Errors
///
/// Returns a [`CounterExample`] if any battery scenario misses a required
/// deadline.
pub fn validate_vd_assignment(
    ts: &TaskSet,
    assignment: &mcsched_analysis::VdAssignment,
    seed: u64,
) -> Result<(), CounterExample> {
    let policy = Policy::edf_vd_from_assignment(assignment);
    validate_uniprocessor(ts, &policy, default_horizon(ts), seed)
}

/// Validates an AMC acceptance under deadline-monotonic fixed priorities.
///
/// # Errors
///
/// Returns a [`CounterExample`] if any battery scenario misses a required
/// deadline.
pub fn validate_amc_acceptance(ts: &TaskSet, seed: u64) -> Result<(), CounterExample> {
    let policy = Policy::deadline_monotonic(ts);
    validate_uniprocessor(ts, &policy, default_horizon(ts), seed)
}

/// Validates every processor of a partition with the given per-processor
/// policy factory.
///
/// # Errors
///
/// Returns the processor index together with its [`CounterExample`].
pub fn validate_partition(
    processors: &[TaskSet],
    mut policy_for: impl FnMut(&TaskSet) -> Policy,
    seed: u64,
) -> Result<(), (usize, CounterExample)> {
    for (k, proc) in processors.iter().enumerate() {
        let policy = policy_for(proc);
        let horizon = default_horizon(proc);
        validate_uniprocessor(proc, &policy, horizon, seed.wrapping_add(k as u64))
            .map_err(|ce| (k, ce))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_analysis::{Ecdf, EdfVd, SchedulabilityTest};
    use mcsched_model::Task;

    #[test]
    fn battery_is_deterministic_and_diverse() {
        let b = battery(42);
        assert_eq!(b, battery(42));
        assert!(b.len() >= 5);
        assert!(b.contains(&Scenario::LoOnly));
        assert!(b.contains(&Scenario::AllHi));
    }

    #[test]
    fn edfvd_accepted_sets_survive() {
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::hi(1, 20, 3, 8).unwrap(),
            Task::lo(2, 25, 5).unwrap(),
        ])
        .unwrap();
        assert!(EdfVd::new().is_schedulable(&ts));
        validate_edfvd_acceptance(&ts, 7).expect("accepted set must survive the battery");
    }

    #[test]
    fn ecdf_assignment_survives() {
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 12, 4).unwrap(),
        ])
        .unwrap();
        let a = Ecdf::new().tune(&ts).expect("tunable");
        validate_vd_assignment(&ts, &a, 3).expect("tuned assignment must survive");
    }

    #[test]
    fn amc_accepted_sets_survive() {
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
        ])
        .unwrap();
        assert!(mcsched_analysis::AmcMax::new().is_schedulable(&ts));
        validate_amc_acceptance(&ts, 11).expect("AMC-accepted set must survive");
    }

    #[test]
    fn unschedulable_set_yields_counterexample() {
        // Overloaded in high mode; EDF-VD would reject, and the battery
        // finds the miss when forced to run anyway.
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 3, 8).unwrap(),
            Task::hi(1, 10, 3, 8).unwrap(),
        ])
        .unwrap();
        let policy = Policy::edf_vd_scaled(&ts, 0.9);
        let err = validate_uniprocessor(&ts, &policy, 500, 5).unwrap_err();
        assert!(err.to_string().contains("missed"));
    }

    #[test]
    fn partition_validation() {
        use mcsched_core::{presets, AlgorithmSpec, TestName};
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 5).unwrap(),
            Task::lo(1, 10, 4).unwrap(),
            Task::hi(2, 20, 4, 9).unwrap(),
            Task::lo(3, 25, 5).unwrap(),
        ])
        .unwrap();
        let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
        let partition = algo.try_partition(&ts, 2).unwrap();
        let procs: Vec<TaskSet> = partition.iter().cloned().collect();
        validate_partition(
            &procs,
            |p| {
                let x = EdfVd::new().scaling_factor(p).unwrap_or(1.0);
                Policy::edf_vd_scaled(p, x)
            },
            13,
        )
        .expect("partitioned allocation must survive per-processor");
    }

    #[test]
    fn horizons() {
        let ts = TaskSet::try_from_tasks(vec![Task::lo(0, 100, 5).unwrap()]).unwrap();
        assert!(default_horizon(&ts) >= 1000);
        assert!(default_horizon(&ts) <= 50_000);
        // 25 periods overflow u64: the horizon saturates into the cap.
        let huge = TaskSet::try_from_tasks(vec![Task::lo(0, u64::MAX / 2, 5).unwrap()]).unwrap();
        assert_eq!(default_horizon(&huge), 50_000);
    }

    #[test]
    fn huge_period_runs_the_whole_battery() {
        // The sporadic scenarios scale the release delay by the period;
        // for this period the product overflows u64.
        let huge = TaskSet::try_from_tasks(vec![Task::lo(0, u64::MAX / 2, 5).unwrap()]).unwrap();
        let policy = Policy::deadline_monotonic(&huge);
        assert_eq!(
            validate_uniprocessor(&huge, &policy, default_horizon(&huge), 1),
            Ok(())
        );
    }
}
