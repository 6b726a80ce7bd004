//! Exact reproductions of the §III worked examples (Figs. 1 and 2 of the
//! paper): the allocation traces, the failure/success outcomes and the
//! mechanism behind them.

use mcsched::analysis::EdfVd;
use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::model::{Task, TaskId, TaskSet};

fn fig1_set() -> TaskSet {
    TaskSet::try_from_tasks(vec![
        Task::hi(1, 100, 30, 60).unwrap(), // u = .30/.60, diff .30
        Task::hi(2, 100, 5, 55).unwrap(),  // u = .05/.55, diff .50
        Task::hi(3, 100, 25, 30).unwrap(), // u = .25/.30, diff .05
        Task::lo(4, 100, 58).unwrap(),     // u = .58
    ])
    .unwrap()
}

fn fig2_set() -> TaskSet {
    TaskSet::try_from_tasks(vec![
        Task::hi(1, 200, 4, 120).unwrap(), // u = .02/.60
        Task::hi(2, 200, 2, 120).unwrap(), // u = .01/.60
        Task::hi(3, 200, 37, 40).unwrap(), // u = .185/.20
        Task::hi(4, 200, 39, 40).unwrap(), // u = .195/.20
        Task::lo(5, 200, 100).unwrap(),    // u = .50
    ])
    .unwrap()
}

#[test]
fn fig1_ca_wu_f_fails_on_the_lc_task() {
    let algo = AlgorithmSpec::new(presets::ca_wu_f(), TestName::EdfVd);
    let err = algo.try_partition(&fig1_set(), 2).unwrap_err();
    // All three HC tasks place; the LC task τ4 strands.
    assert_eq!(err.task, TaskId(4));
    assert_eq!(err.placed, 3);
}

#[test]
fn fig1_ca_udp_succeeds_with_the_papers_allocation() {
    let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
    let p = algo.try_partition(&fig1_set(), 2).unwrap();
    // Balancing the difference pairs τ1 (diff .30) with τ3 (diff .05) and
    // leaves τ2 (diff .50) alone; τ4 then fits beside τ2 — exactly the
    // paper's narrative ("τ1 and τ3 on one processor, τ2 on the other,
    // τ4 with τ2").
    assert_eq!(p.processor_of(TaskId(1)), p.processor_of(TaskId(3)));
    assert_eq!(p.processor_of(TaskId(4)), p.processor_of(TaskId(2)));
    assert_ne!(p.processor_of(TaskId(1)), p.processor_of(TaskId(2)));
}

#[test]
fn fig1_mechanism_gap_bound() {
    // The paper explains the failure through the EDF-VD inequality
    // U_LL ≤ (1−U_HH)/(1−(U_HH−U_HL)). Under CA-Wu-F both processors end
    // with U_HH = 0.60/0.85 and identical U_HL = 0.30, leaving gap bounds
    // ≈ 0.571 and ≈ 0.333 — both below τ4's 0.58.
    let phi1 = TaskSet::try_from_tasks(vec![
        Task::hi(1, 100, 30, 60).unwrap(),
        Task::lo(4, 100, 58).unwrap(),
    ])
    .unwrap();
    let phi2 = TaskSet::try_from_tasks(vec![
        Task::hi(2, 100, 5, 55).unwrap(),
        Task::hi(3, 100, 25, 30).unwrap(),
        Task::lo(4, 100, 58).unwrap(),
    ])
    .unwrap();
    let t = EdfVd::new();
    assert!(!t.gap_form_accepts(&phi1));
    assert!(!t.gap_form_accepts(&phi2));
}

#[test]
fn fig2_ca_udp_fails_on_the_heavy_lc_task() {
    let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
    let err = algo.try_partition(&fig2_set(), 2).unwrap_err();
    assert_eq!(err.task, TaskId(5));
    assert_eq!(err.placed, 4, "all four HC tasks placed first");
}

#[test]
fn fig2_ca_udp_intermediate_allocation_matches_paper() {
    // Verify the CA-UDP HC allocation that strands τ5: {τ1, τ4} vs
    // {τ2, τ3} (the paper's "τ1 and τ3 to φ1, τ2 and τ4 to φ2" modulo
    // processor naming — the pairing is what matters).
    let hc_only = TaskSet::try_from_tasks(vec![
        Task::hi(1, 200, 4, 120).unwrap(),
        Task::hi(2, 200, 2, 120).unwrap(),
        Task::hi(3, 200, 37, 40).unwrap(),
        Task::hi(4, 200, 39, 40).unwrap(),
    ])
    .unwrap();
    let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
    let p = algo.try_partition(&hc_only, 2).unwrap();
    // τ3 joins the *other* heavy task than τ4 (worst-fit on difference
    // spreads the two heavies and then packs against the smaller diff).
    assert_ne!(p.processor_of(TaskId(1)), p.processor_of(TaskId(2)));
    assert_ne!(p.processor_of(TaskId(3)), p.processor_of(TaskId(4)));
}

#[test]
fn fig2_cu_udp_succeeds_placing_the_lc_task_early() {
    let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
    let p = algo.try_partition(&fig2_set(), 2).unwrap();
    // τ5 shares a processor with exactly one of the heavy HC tasks
    // (τ1 or τ2), and the remaining three HC tasks pack on the other.
    let p5 = p.processor_of(TaskId(5)).unwrap();
    let heavy_with_5 = [1u32, 2]
        .iter()
        .filter(|&&id| p.processor_of(TaskId(id)) == Some(p5))
        .count();
    assert_eq!(heavy_with_5, 1);
    let other = 1 - p5;
    assert_eq!(p.processor(other).unwrap().len(), 3);
    // Every processor passes the admission test, of course.
    assert!(mcsched::core::verify_partition(&p, &EdfVd::new()));
}

#[test]
fn fig2_cu_ordering_places_tau5_third() {
    use mcsched::core::AllocationOrder;
    let seq = AllocationOrder::CriticalityUnaware.sequence(&fig2_set());
    let ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
    // Own-level utilizations: τ1 .60, τ2 .60, τ5 .50, τ3 .20, τ4 .20.
    assert_eq!(ids, vec![1, 2, 5, 3, 4]);
}

#[test]
fn examples_survive_the_simulator() {
    // Execute both successful partitions under sustained overruns: the
    // admitted allocations must hold at runtime.
    use mcsched::sim::{PartitionedSimulator, Policy, Scenario};
    for (strategy, ts) in [
        (presets::ca_udp(), fig1_set()),
        (presets::cu_udp(), fig2_set()),
    ] {
        let algo = AlgorithmSpec::new(strategy, TestName::EdfVd);
        let partition = algo.try_partition(&ts, 2).unwrap();
        let sim = PartitionedSimulator::from_partition(&partition, |proc| {
            let x = EdfVd::new().scaling_factor(proc).expect("admitted");
            Policy::edf_vd_scaled(proc, x)
        });
        for r in sim.run(&Scenario::all_hi(), 10_000) {
            assert!(r.is_success(), "{:?}", r.misses());
        }
    }
}
