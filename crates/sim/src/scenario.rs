//! Execution scenarios: which jobs overrun and how releases arrive.

use mcsched_model::{Task, Time};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// How job execution demands and release jitter are chosen during a
/// simulation run.
///
/// Scenarios are deterministic: randomized variants carry a seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Every job signals completion at `C^L` — the nominal low-mode
    /// behaviour; no mode switch ever happens.
    LoOnly,
    /// Every HC job demands its full `C^H` — the adversarial sustained
    /// high-mode behaviour (a switch happens in the first busy interval).
    AllHi,
    /// Each HC job independently overruns to `C^H` with the given
    /// probability (per-mill, 0–1000); releases stay periodic.
    RandomOverrun {
        /// Overrun probability in thousandths (e.g. 250 = 25%).
        prob_millis: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Sporadic arrivals: each release is delayed from its earliest legal
    /// instant by a uniform random fraction of the period (up to
    /// `max_delay_millis`/1000), and HC jobs overrun with the given
    /// probability.
    Sporadic {
        /// Maximum release delay as thousandths of the period.
        max_delay_millis: u32,
        /// Overrun probability in thousandths.
        prob_millis: u32,
        /// RNG seed.
        seed: u64,
    },
}

impl Scenario {
    /// The nominal low-mode scenario.
    pub fn lo_only() -> Self {
        Scenario::LoOnly
    }

    /// The adversarial all-overrun scenario.
    pub fn all_hi() -> Self {
        Scenario::AllHi
    }

    /// Random overruns with probability `prob` (clamped to `[0, 1]`).
    pub fn random_overrun(prob: f64, seed: u64) -> Self {
        Scenario::RandomOverrun {
            prob_millis: ((prob.clamp(0.0, 1.0)) * 1000.0) as u32,
            seed,
        }
    }

    /// Sporadic arrivals with up to `max_delay` (fraction of period)
    /// release jitter and `prob` overruns.
    pub fn sporadic(max_delay: f64, prob: f64, seed: u64) -> Self {
        Scenario::Sporadic {
            max_delay_millis: ((max_delay.clamp(0.0, 1.0)) * 1000.0) as u32,
            prob_millis: ((prob.clamp(0.0, 1.0)) * 1000.0) as u32,
            seed,
        }
    }

    /// Instantiates the per-run sampler.
    pub(crate) fn sampler(&self) -> ScenarioSampler {
        let rng = match self {
            Scenario::LoOnly | Scenario::AllHi => StdRng::seed_from_u64(0),
            Scenario::RandomOverrun { seed, .. } | Scenario::Sporadic { seed, .. } => {
                StdRng::seed_from_u64(*seed)
            }
        };
        ScenarioSampler {
            scenario: self.clone(),
            rng,
        }
    }
}

/// Stateful sampler for one simulation run.
#[derive(Debug)]
pub(crate) struct ScenarioSampler {
    scenario: Scenario,
    rng: StdRng,
}

impl ScenarioSampler {
    /// The execution demand of the next job of `task`.
    pub fn demand(&mut self, task: &Task) -> Time {
        if task.criticality().is_low() {
            return task.wcet_lo();
        }
        match &self.scenario {
            Scenario::LoOnly => task.wcet_lo(),
            Scenario::AllHi => task.wcet_hi(),
            Scenario::RandomOverrun { prob_millis, .. }
            | Scenario::Sporadic { prob_millis, .. } => {
                if self.rng.random_range(0..1000) < *prob_millis {
                    task.wcet_hi()
                } else {
                    task.wcet_lo()
                }
            }
        }
    }

    /// The release delay added on top of the earliest legal release.
    pub fn release_delay(&mut self, task: &Task) -> Time {
        match &self.scenario {
            Scenario::Sporadic {
                max_delay_millis, ..
            } => {
                // The product can exceed u64 for huge periods; the
                // quotient is at most the period whenever the fraction
                // is at most 1 (as `Scenario::sporadic` clamps it).
                let wide = u128::from(task.period().as_ticks()) * u128::from(*max_delay_millis);
                let max = u64::try_from(wide / 1000).unwrap_or(u64::MAX);
                if max == 0 {
                    Time::ZERO
                } else {
                    Time::new(self.rng.random_range(0..=max))
                }
            }
            _ => Time::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn hc() -> Task {
        Task::hi(0, 10, 2, 5).unwrap()
    }
    fn lc() -> Task {
        Task::lo(1, 10, 3).unwrap()
    }

    #[test]
    fn lo_only_never_overruns() {
        let mut s = Scenario::lo_only().sampler();
        for _ in 0..10 {
            assert_eq!(s.demand(&hc()), Time::new(2));
            assert_eq!(s.demand(&lc()), Time::new(3));
            assert_eq!(s.release_delay(&hc()), Time::ZERO);
        }
    }

    #[test]
    fn all_hi_always_overruns_hc_only() {
        let mut s = Scenario::all_hi().sampler();
        assert_eq!(s.demand(&hc()), Time::new(5));
        assert_eq!(s.demand(&lc()), Time::new(3));
    }

    #[test]
    fn random_overrun_respects_probability_extremes() {
        let mut never = Scenario::random_overrun(0.0, 1).sampler();
        let mut always = Scenario::random_overrun(1.0, 1).sampler();
        for _ in 0..50 {
            assert_eq!(never.demand(&hc()), Time::new(2));
            assert_eq!(always.demand(&hc()), Time::new(5));
        }
    }

    #[test]
    fn random_overrun_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut s = Scenario::random_overrun(0.5, seed).sampler();
            (0..32).map(|_| s.demand(&hc())).collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
    }

    #[test]
    fn sporadic_delay_bounded() {
        let mut s = Scenario::sporadic(0.3, 0.0, 4).sampler();
        for _ in 0..100 {
            let d = s.release_delay(&hc());
            assert!(d <= Time::new(3), "delay {d} above 30% of period 10");
        }
    }

    #[test]
    fn sporadic_delay_of_a_huge_period_does_not_overflow() {
        let huge = Task::lo(0, u64::MAX / 2, 5).unwrap();
        let mut s = Scenario::sporadic(0.8, 0.5, 1).sampler();
        let max = u64::try_from(u128::from(u64::MAX / 2) * 800 / 1000).unwrap();
        for _ in 0..100 {
            let d = s.release_delay(&huge);
            assert!(d.as_ticks() <= max, "delay {d} above 80% of the period");
        }
    }

    #[test]
    fn constructor_clamping() {
        match Scenario::random_overrun(7.0, 0) {
            Scenario::RandomOverrun { prob_millis, .. } => assert_eq!(prob_millis, 1000),
            other => panic!("unexpected {other:?}"),
        }
        match Scenario::sporadic(-1.0, 0.5, 0) {
            Scenario::Sporadic {
                max_delay_millis, ..
            } => assert_eq!(max_delay_millis, 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
