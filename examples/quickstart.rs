//! Quickstart: build a dual-criticality task set, partition it with the
//! paper's CU-UDP strategy under the EDF-VD test, inspect the result, and
//! execute it in the simulator.
//!
//! Run with: `cargo run --example quickstart`

use mcsched::analysis::EdfVd;
use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::model::{Task, TaskSet};
use mcsched::sim::{PartitionedSimulator, Policy, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small mixed-criticality workload: two HC tasks (flight-critical),
    // two LC tasks (best-effort).
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi(0, 10, 2, 5)?, // HC: T=D=10, C^L=2, C^H=5
        Task::hi(1, 20, 4, 9)?, // HC: T=D=20, C^L=4, C^H=9
        Task::lo(2, 10, 4)?,    // LC: T=D=10, C=4
        Task::lo(3, 25, 5)?,    // LC: T=D=25, C=5
    ])?;

    let u = ts.system_utilization();
    println!("Task set: {} tasks", ts.len());
    println!(
        "  U_LL = {:.3}, U_HL = {:.3}, U_HH = {:.3}, difference = {:.3}\n",
        u.u_ll,
        u.u_hl,
        u.u_hh,
        u.difference()
    );

    // Partition onto 2 processors: CU-UDP ordering (criticality-unaware,
    // decreasing own-level utilization), worst-fit on the utilization
    // difference for HC tasks, first-fit for LC tasks, admission by the
    // EDF-VD utilization test.
    let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
    println!("Partitioning with {} onto 2 processors...\n", algo.name());
    let partition = algo.try_partition(&ts, 2)?;
    print!("{partition}");

    println!(
        "max per-processor utilization difference: {:.3}",
        partition.max_utilization_difference()
    );

    // Execute the partition: every processor runs EDF-VD with its own
    // scaling factor, under sustained worst-case overruns.
    let sim = PartitionedSimulator::from_partition(&partition, |proc| {
        let x = EdfVd::new().scaling_factor(proc).expect("admitted");
        Policy::edf_vd_scaled(proc, x)
    });
    let reports = sim.run(&Scenario::all_hi(), 2_000);
    for (k, r) in reports.iter().enumerate() {
        println!("φ{}: {r}", k + 1);
        assert!(r.is_success(), "φ{} missed a deadline!", k + 1);
    }
    println!("\nAll deadlines met under sustained HC overruns.");
    Ok(())
}
