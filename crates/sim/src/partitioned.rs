//! Partitioned multiprocessor simulation: independent per-processor
//! engines with isolated mode switches.

use crate::engine::Simulator;
use crate::policy::Policy;
use crate::report::SimReport;
use crate::scenario::Scenario;
use mcsched_core::Partition;
use mcsched_model::TaskSet;

/// Simulates a [`Partition`] by running one single-processor
/// [`Simulator`] per processor. Mode switches stay local to the processor
/// whose HC job overran — the isolation property §II of the paper
/// highlights as the practical advantage of partitioned over global MC
/// scheduling.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::EdfVd;
/// use mcsched_core::{presets, AlgorithmSpec, TestName};
/// use mcsched_sim::{PartitionedSimulator, Policy, Scenario};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 5)?,
///     Task::lo(1, 10, 4)?,
///     Task::hi(2, 20, 4, 9)?,
///     Task::lo(3, 25, 5)?,
/// ])?;
/// let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
/// let partition = algo.try_partition(&ts, 2)?;
/// let sim = PartitionedSimulator::from_partition(&partition, |proc| {
///     let x = EdfVd::new().scaling_factor(proc).unwrap_or(1.0);
///     Policy::edf_vd_scaled(proc, x)
/// });
/// let reports = sim.run(&Scenario::all_hi(), 500);
/// assert!(reports.iter().all(|r| r.is_success()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedSimulator {
    processors: Vec<TaskSet>,
    policies: Vec<Policy>,
    record_trace: bool,
}

impl PartitionedSimulator {
    /// Builds a simulator from a partition, deriving each processor's
    /// policy from its assigned task set.
    pub fn from_partition(
        partition: &Partition,
        mut policy_for: impl FnMut(&TaskSet) -> Policy,
    ) -> Self {
        let processors: Vec<TaskSet> = partition.iter().cloned().collect();
        let policies = processors.iter().map(&mut policy_for).collect();
        PartitionedSimulator {
            processors,
            policies,
            record_trace: false,
        }
    }

    /// Builds a simulator from explicit per-processor task sets and
    /// policies.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors disagree in length.
    pub fn new(processors: Vec<TaskSet>, policies: Vec<Policy>) -> Self {
        assert_eq!(
            processors.len(),
            policies.len(),
            "one policy per processor required"
        );
        PartitionedSimulator {
            processors,
            policies,
            record_trace: false,
        }
    }

    /// Enables event-trace recording on every processor.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }

    /// Runs every processor under (a reseeded clone of) the same scenario;
    /// processor `k` uses `seed + k` for randomized scenarios.
    pub fn run(&self, scenario: &Scenario, horizon: u64) -> Vec<SimReport> {
        let scenarios: Vec<Scenario> = (0..self.processors.len())
            .map(|k| reseed(scenario, k as u64))
            .collect();
        self.run_each(&scenarios, horizon)
    }

    /// Runs with an explicit scenario per processor (e.g. overruns injected
    /// on one processor only, for the isolation demonstration).
    ///
    /// # Panics
    ///
    /// Panics if `scenarios.len()` differs from the processor count.
    pub fn run_each(&self, scenarios: &[Scenario], horizon: u64) -> Vec<SimReport> {
        assert_eq!(
            scenarios.len(),
            self.processors.len(),
            "one scenario per processor required"
        );
        self.processors
            .iter()
            .zip(&self.policies)
            .zip(scenarios)
            .map(|((proc, policy), scenario)| {
                let mut sim = Simulator::new(proc, policy.clone());
                if self.record_trace {
                    sim = sim.with_trace();
                }
                sim.run(scenario, horizon)
            })
            .collect()
    }
}

/// Clones a scenario with its seed shifted by `offset` (deterministic but
/// decorrelated across processors).
fn reseed(scenario: &Scenario, offset: u64) -> Scenario {
    match scenario {
        Scenario::LoOnly => Scenario::LoOnly,
        Scenario::AllHi => Scenario::AllHi,
        Scenario::RandomOverrun { prob_millis, seed } => Scenario::RandomOverrun {
            prob_millis: *prob_millis,
            seed: seed.wrapping_add(offset),
        },
        Scenario::Sporadic {
            max_delay_millis,
            prob_millis,
            seed,
        } => Scenario::Sporadic {
            max_delay_millis: *max_delay_millis,
            prob_millis: *prob_millis,
            seed: seed.wrapping_add(offset),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_analysis::EdfVd;
    use mcsched_core::{presets, AlgorithmSpec, TestName};
    use mcsched_model::Task;

    fn partitioned() -> PartitionedSimulator {
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 5).unwrap(),
            Task::lo(1, 10, 4).unwrap(),
            Task::hi(2, 20, 4, 9).unwrap(),
            Task::lo(3, 25, 5).unwrap(),
        ])
        .unwrap();
        let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
        let partition = algo.try_partition(&ts, 2).unwrap();
        PartitionedSimulator::from_partition(&partition, |proc| {
            let x = EdfVd::new().scaling_factor(proc).unwrap_or(1.0);
            Policy::edf_vd_scaled(proc, x)
        })
    }

    #[test]
    fn all_processors_meet_deadlines_under_overrun() {
        let sim = partitioned();
        let reports = sim.run(&Scenario::all_hi(), 1000);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.is_success(), "{:?}", r.misses());
        }
    }

    #[test]
    fn mode_switch_isolation() {
        // Overruns injected only on processor 0: processor 1 must never
        // switch or drop anything.
        let sim = partitioned();
        let scenarios = vec![Scenario::all_hi(), Scenario::lo_only()];
        let reports = sim.run_each(&scenarios, 1000);
        assert!(reports[0].mode_switches() > 0);
        assert_eq!(
            reports[1].mode_switches(),
            0,
            "partitioned scheduling must isolate the switch"
        );
        assert_eq!(reports[1].dropped(), 0);
    }

    #[test]
    fn explicit_construction_and_trace() {
        let a = TaskSet::try_from_tasks(vec![Task::lo(0, 10, 3).unwrap()]).unwrap();
        let b = TaskSet::try_from_tasks(vec![Task::lo(1, 10, 3).unwrap()]).unwrap();
        let sim =
            PartitionedSimulator::new(vec![a, b], vec![Policy::Edf, Policy::Edf]).with_trace();
        assert_eq!(sim.processor_count(), 2);
        let reports = sim.run(&Scenario::lo_only(), 50);
        assert!(reports.iter().all(|r| !r.trace().is_empty()));
    }

    #[test]
    #[should_panic(expected = "one policy per processor")]
    fn mismatched_lengths_panic() {
        let a = TaskSet::try_from_tasks(vec![Task::lo(0, 10, 3).unwrap()]).unwrap();
        let _ = PartitionedSimulator::new(vec![a], vec![]);
    }

    #[test]
    fn reseed_decorrelates_but_preserves_kind() {
        let s = Scenario::random_overrun(0.5, 100);
        match reseed(&s, 3) {
            Scenario::RandomOverrun { prob_millis, seed } => {
                assert_eq!(prob_millis, 500);
                assert_eq!(seed, 103);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reseed(&Scenario::LoOnly, 9), Scenario::LoOnly);
    }
}
