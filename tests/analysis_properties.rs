//! Property-based tests (proptest) on the schedulability analyses: demand
//! bounds, response times and acceptance regions.

use mcsched::analysis::dbf::{self, VdTask};
use mcsched::analysis::{AmcMax, DemandKernel, Ecdf, EdfVd, Ey, LoRta, SchedulabilityTest};
use mcsched::model::{Task, TaskSet, Time};
use mcsched_oracle::dbf::DemandCurve;
use proptest::prelude::*;

/// The kernel's checks of a freshly loaded assignment.
fn checks(tasks: &[VdTask]) -> (dbf::DemandCheck, dbf::DemandCheck) {
    let mut kernel = DemandKernel::new();
    kernel.load(tasks);
    (kernel.check_lo(), kernel.check_hi())
}

fn arb_hc_task(id: u32) -> impl Strategy<Value = Task> {
    (2u64..=50).prop_flat_map(move |period| {
        (1u64..=period).prop_flat_map(move |c_lo| {
            (c_lo..=period).prop_map(move |c_hi| Task::hi(id, period, c_lo, c_hi).expect("valid"))
        })
    })
}

fn arb_vd_task(id: u32) -> impl Strategy<Value = VdTask> {
    arb_hc_task(id).prop_flat_map(|task| {
        (task.wcet_lo().as_ticks()..=task.deadline().as_ticks()).prop_map(move |v| VdTask {
            task,
            vd: Time::new(v),
        })
    })
}

fn arb_mixed_set() -> impl Strategy<Value = TaskSet> {
    (1usize..=6).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32)
            .map(|i| {
                (2u64..=40, any::<bool>())
                    .prop_flat_map(move |(period, hi)| {
                        (1u64..=period, Just(period), Just(hi)).prop_flat_map(
                            move |(c_lo, period, hi)| {
                                let upper = if hi { period } else { c_lo };
                                (c_lo..=upper).prop_map(move |c_hi| {
                                    if hi {
                                        Task::hi(i, period, c_lo, c_hi).expect("valid")
                                    } else {
                                        Task::lo(i, period, c_lo).expect("valid")
                                    }
                                })
                            },
                        )
                    })
                    .boxed()
            })
            .collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dbf_lo_is_nondecreasing_and_superadditive_on_periods(vt in arb_vd_task(0)) {
        let mut prev = Time::ZERO;
        for t in 0..200u64 {
            let d = dbf::dbf_lo(&vt, Time::new(t));
            prop_assert!(d >= prev);
            prev = d;
        }
        // One full period later there is exactly one more job's demand.
        let t0 = vt.vd;
        let a = dbf::dbf_lo(&vt, t0);
        let b = dbf::dbf_lo(&vt, t0 + vt.task.period());
        prop_assert_eq!(b, a + vt.task.wcet_lo());
    }

    #[test]
    fn dbf_hi_is_nondecreasing(vt in arb_vd_task(0)) {
        let mut prev = Time::ZERO;
        for t in 0..200u64 {
            let d = dbf::dbf_hi(&vt, Time::new(t));
            prop_assert!(d >= prev, "decrease at t={t}");
            prev = d;
        }
    }

    #[test]
    fn dbf_hi_bounded_by_job_count_times_ch(vt in arb_vd_task(0)) {
        for t in 0..200u64 {
            let t = Time::new(t);
            let d = dbf::dbf_hi(&vt, t);
            let di = vt.dist();
            if t >= di {
                let k = (t - di).div_floor(vt.task.period()) + 1;
                prop_assert!(d <= vt.task.wcet_hi() * k);
                // And at least (k−1)·C^H + (C^H − C^L): the carry-over can
                // discount at most C^L.
                let lower = vt.task.wcet_hi() * k - vt.task.wcet_lo();
                prop_assert!(d >= lower);
            } else {
                prop_assert_eq!(d, Time::ZERO);
            }
        }
    }

    #[test]
    fn tightening_never_increases_first_period_hi_demand(task in arb_hc_task(0)) {
        // Within the first job window (t ≤ T, where exactly one job's real
        // deadline can fall), tightening the virtual deadline only grows
        // the carry-over job's guaranteed progress, so demand cannot rise.
        let lo = task.wcet_lo().as_ticks();
        let d = task.deadline().as_ticks();
        for v_tight in lo..=d {
            let loose = VdTask { task, vd: Time::new(d) };
            let tight = VdTask { task, vd: Time::new(v_tight) };
            for t in 0..=task.period().as_ticks() {
                let t = Time::new(t);
                prop_assert!(
                    dbf::dbf_hi(&tight, t) <= dbf::dbf_hi(&loose, t),
                    "tightening to V={v_tight} raised demand at t={t}"
                );
            }
        }
    }

    #[test]
    fn qpa_matches_brute_force_lo(tasks in proptest::collection::vec(arb_vd_task(0), 1..4)) {
        // Re-id tasks to keep them distinct.
        let tasks: Vec<VdTask> = tasks.into_iter().enumerate().map(|(i, mut vt)| {
            let t = vt.task;
            vt.task = Task::hi(i as u32, t.period().as_ticks(), t.wcet_lo().as_ticks(),
                               t.wcet_hi().as_ticks()).expect("valid");
            vt
        }).collect();
        let qpa = checks(&tasks).0;
        let brute = DemandCurve::lo_mode(&tasks, 400).first_violation();
        match (qpa, brute) {
            (dbf::DemandCheck::Ok, None) => {},
            (dbf::DemandCheck::Violation(_), Some(_)) => {},
            (dbf::DemandCheck::Ok, Some(v)) =>
                prop_assert!(false, "QPA said Ok but brute force found violation at {v}"),
            (dbf::DemandCheck::Violation(v), None) => {
                // The violation may lie beyond the brute-force horizon.
                prop_assert!(v > Time::new(400), "QPA violation {v} missed by brute force");
            }
            (dbf::DemandCheck::Unbounded, _) => {}, // conservative; allowed
        }
    }

    #[test]
    fn qpa_matches_brute_force_hi(tasks in proptest::collection::vec(arb_vd_task(0), 1..4)) {
        let tasks: Vec<VdTask> = tasks.into_iter().enumerate().map(|(i, mut vt)| {
            let t = vt.task;
            vt.task = Task::hi(i as u32, t.period().as_ticks(), t.wcet_lo().as_ticks(),
                               t.wcet_hi().as_ticks()).expect("valid");
            vt
        }).collect();
        let qpa = checks(&tasks).1;
        let brute = DemandCurve::hi_mode(&tasks, 400).first_violation();
        match (qpa, brute) {
            (dbf::DemandCheck::Ok, None) => {},
            (dbf::DemandCheck::Violation(_), Some(_)) => {},
            (dbf::DemandCheck::Ok, Some(v)) =>
                prop_assert!(false, "QPA said Ok but brute force violates at {v}"),
            (dbf::DemandCheck::Violation(v), None) =>
                prop_assert!(v > Time::new(400)),
            (dbf::DemandCheck::Unbounded, _) => {},
        }
    }

    #[test]
    fn lo_rta_bounds_are_real_response_times(ts in arb_mixed_set()) {
        // Response times are at least the task's own budget and at most its
        // deadline when accepted.
        if let Some(resp) = LoRta::compute(&ts) {
            for (i, t) in ts.iter().enumerate() {
                prop_assert!(resp[i] >= t.wcet_lo());
                prop_assert!(resp[i] <= t.deadline());
            }
        }
    }

    #[test]
    fn edfvd_scaling_factor_in_range(ts in arb_mixed_set()) {
        if let Some(x) = EdfVd::new().scaling_factor(&ts) {
            prop_assert!(x > 0.0 && x <= 1.0, "x = {x}");
            // The returned virtual deadlines respect budget and deadline.
            for (vd, t) in EdfVd::new().virtual_deadlines(&ts, x).iter().zip(ts.iter()) {
                prop_assert!(*vd >= t.wcet_lo());
                prop_assert!(*vd <= t.deadline());
            }
        }
    }

    #[test]
    fn tuner_outputs_are_always_valid(ts in arb_mixed_set()) {
        for assignment in [Ey::new().tune(&ts), Ecdf::new().tune(&ts)].into_iter().flatten() {
            let (lo, hi) = checks(assignment.as_slice());
            prop_assert!(lo.is_ok());
            prop_assert!(hi.is_ok());
            for (vt, t) in assignment.as_slice().iter().zip(ts.iter()) {
                prop_assert!(vt.vd >= t.wcet_lo());
                prop_assert!(vt.vd <= t.deadline());
                if t.criticality().is_low() {
                    prop_assert_eq!(vt.vd, t.deadline());
                }
            }
        }
    }

    #[test]
    fn acceptance_is_antitone_in_added_load(ts in arb_mixed_set()) {
        // Adding a task can never turn a rejected set into an accepted one
        // ... for monotone tests like EDF-VD on the same structure
        // (check the contrapositive: accept(superset) ⇒ accept(subset)).
        let extra = Task::lo(999, 10, 1).expect("valid");
        let mut bigger = ts.clone();
        bigger.push_unchecked(extra);
        for test in [&EdfVd::new() as &dyn SchedulabilityTest, &AmcMax::new()] {
            if test.is_schedulable(&bigger) {
                prop_assert!(test.is_schedulable(&ts),
                    "{} accepted a superset but rejected the subset", test.name());
            }
        }
    }
}
