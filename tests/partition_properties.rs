//! Property-based tests (proptest) on the partitioning engine and the
//! core data structures: structural invariants that must hold for *every*
//! input, not just generator-shaped ones.

use mcsched::analysis::{EdfVd, SchedulabilityTest};
use mcsched::core::{presets, Partition, PartitionStrategy};
use mcsched::model::{Task, TaskId, TaskSet};
use proptest::prelude::*;

/// An arbitrary valid task: period 2..=60, budgets inside it, optional
/// criticality/constrained deadline.
fn arb_task(id: u32) -> impl Strategy<Value = Task> {
    (2u64..=60, any::<bool>()).prop_flat_map(move |(period, is_hi)| {
        (1u64..=period, Just(period), Just(is_hi)).prop_flat_map(move |(c_lo, period, is_hi)| {
            if is_hi {
                (c_lo..=period, Just(period), Just(c_lo))
                    .prop_flat_map(move |(c_hi, period, c_lo)| {
                        (c_hi..=period).prop_map(move |d| {
                            Task::hi_constrained(id, period, c_lo, c_hi, d).expect("valid")
                        })
                    })
                    .boxed()
            } else {
                (c_lo..=period)
                    .prop_map(move |d| Task::lo_constrained(id, period, c_lo, d).expect("valid"))
                    .boxed()
            }
        })
    })
}

/// An arbitrary task set of 1..=8 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=8).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(arb_task).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

fn all_strategies() -> Vec<PartitionStrategy> {
    presets::all()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partition_conserves_tasks(ts in arb_taskset(), m in 1usize..=4) {
        let test = EdfVd::new();
        for strategy in all_strategies() {
            if let Ok(p) = Partition::build(&strategy, &test, &ts, m) {
                // Every task appears exactly once.
                prop_assert_eq!(p.task_count(), ts.len());
                for t in &ts {
                    let procs_with_t = (0..m)
                        .filter(|&k| p.processor(k).unwrap().get(t.id()).is_some())
                        .count();
                    prop_assert_eq!(procs_with_t, 1, "{} duplicated or lost", t.id());
                }
            }
        }
    }

    #[test]
    fn partition_processors_pass_the_admission_test(ts in arb_taskset(), m in 1usize..=4) {
        let test = EdfVd::new();
        for strategy in all_strategies() {
            if let Ok(p) = Partition::build(&strategy, &test, &ts, m) {
                for proc in &p {
                    prop_assert!(test.is_schedulable(proc),
                        "strategy {} produced an inadmissible processor", strategy.name());
                }
            }
        }
    }

    #[test]
    fn partition_failure_names_a_real_task(ts in arb_taskset(), m in 1usize..=3) {
        let test = EdfVd::new();
        for strategy in all_strategies() {
            if let Err(e) = Partition::build(&strategy, &test, &ts, m) {
                prop_assert!(ts.get(e.task).is_some(), "error names unknown task {}", e.task);
                prop_assert_eq!(e.processors, m);
                prop_assert!(e.placed < ts.len());
            }
        }
    }

    #[test]
    fn single_processor_equals_uniprocessor_test(ts in arb_taskset()) {
        let test = EdfVd::new();
        for strategy in all_strategies() {
            let partitioned = Partition::build(&strategy, &test, &ts, 1).is_ok();
            prop_assert_eq!(partitioned, test.is_schedulable(&ts),
                "m = 1 must degenerate to the uniprocessor test ({})", strategy.name());
        }
    }

    #[test]
    fn allocation_orders_are_permutations(ts in arb_taskset()) {
        use mcsched::core::AllocationOrder;
        for order in [
            AllocationOrder::CriticalityAware { sorted: true },
            AllocationOrder::CriticalityAware { sorted: false },
            AllocationOrder::CriticalityUnaware,
            AllocationOrder::HeavyLcFirst { threshold_millis: 500 },
        ] {
            let seq = order.sequence(&ts);
            prop_assert_eq!(seq.len(), ts.len());
            let mut ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
            ids.sort_unstable();
            let mut expect: Vec<u32> = ts.iter().map(|t| t.id().0).collect();
            expect.sort_unstable();
            prop_assert_eq!(ids, expect);
        }
    }

    #[test]
    fn criticality_aware_orders_hc_first(ts in arb_taskset()) {
        use mcsched::core::AllocationOrder;
        let seq = AllocationOrder::CriticalityAware { sorted: true }.sequence(&ts);
        let first_lc = seq.iter().position(|t| t.criticality().is_low());
        if let Some(pos) = first_lc {
            prop_assert!(seq[pos..].iter().all(|t| t.criticality().is_low()),
                "an HC task appeared after an LC task");
        }
    }

    #[test]
    fn sorted_orders_are_nonincreasing_within_class(ts in arb_taskset()) {
        use mcsched::core::AllocationOrder;
        let seq = AllocationOrder::CriticalityUnaware.sequence(&ts);
        for w in seq.windows(2) {
            prop_assert!(w[0].utilization_own() >= w[1].utilization_own() - 1e-12);
        }
    }

    #[test]
    fn utilization_difference_nonnegative(ts in arb_taskset()) {
        let u = ts.system_utilization();
        prop_assert!(u.difference() >= -1e-12, "C^H ≥ C^L must imply U_HH ≥ U_HL");
    }

    #[test]
    fn partition_error_is_deterministic(ts in arb_taskset(), m in 1usize..=3) {
        let test = EdfVd::new();
        let a = Partition::build(&presets::cu_udp(), &test, &ts, m);
        let b = Partition::build(&presets::cu_udp(), &test, &ts, m);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn processor_of_finds_everything_in_a_big_partition() {
    // Deterministic companion to the proptests: a 12-task set on 4
    // processors, checked id by id.
    let tasks: Vec<Task> = (0..12u32)
        .map(|i| {
            if i % 2 == 0 {
                Task::hi(i, 20 + u64::from(i), 1, 2 + u64::from(i % 3)).unwrap()
            } else {
                Task::lo(i, 25 + u64::from(i), 2).unwrap()
            }
        })
        .collect();
    let ts = TaskSet::try_from_tasks(tasks).unwrap();
    let p = Partition::build(&presets::ca_udp(), &EdfVd::new(), &ts, 4).unwrap();
    for i in 0..12u32 {
        assert!(p.processor_of(TaskId(i)).is_some());
    }
    assert!(p.processor_of(TaskId(99)).is_none());
}
