//! The two worked examples from §III of the paper, reproduced with
//! concrete task sets (the paper's figures describe the allocations; the
//! numeric parameters here were derived to exhibit exactly the same
//! traces — see `tests/paper_figures.rs` for the assertions).
//!
//! * **Fig. 1** — CA-Wu-F (worst-fit on `U_H^H` alone) fails to place the
//!   LC task τ4, while CA-UDP (worst-fit on `U_H^H − U_H^L`) succeeds.
//! * **Fig. 2** — CA-UDP fails on a heavy LC task that CU-UDP places
//!   early thanks to criticality-unaware ordering.
//!
//! Run with: `cargo run --example paper_examples`

use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::model::{Task, TaskSet};

fn fig1_set() -> TaskSet {
    // u^L/u^H:  τ1 = .30/.60, τ2 = .05/.55, τ3 = .25/.30; τ4 (LC) = .58.
    TaskSet::try_from_tasks(vec![
        Task::hi(1, 100, 30, 60).expect("valid"),
        Task::hi(2, 100, 5, 55).expect("valid"),
        Task::hi(3, 100, 25, 30).expect("valid"),
        Task::lo(4, 100, 58).expect("valid"),
    ])
    .expect("unique ids")
}

fn fig2_set() -> TaskSet {
    // u^L/u^H:  τ1 = .02/.60, τ2 = .01/.60, τ3 = .185/.20, τ4 = .195/.20;
    // τ5 (LC) = .50.
    TaskSet::try_from_tasks(vec![
        Task::hi(1, 200, 4, 120).expect("valid"),
        Task::hi(2, 200, 2, 120).expect("valid"),
        Task::hi(3, 200, 37, 40).expect("valid"),
        Task::hi(4, 200, 39, 40).expect("valid"),
        Task::lo(5, 200, 100).expect("valid"),
    ])
    .expect("unique ids")
}

fn show(name: &str, algo: &AlgorithmSpec, ts: &TaskSet) {
    println!("--- {name} ---");
    match algo.try_partition(ts, 2) {
        Ok(p) => {
            println!("SUCCESS:");
            print!("{p}");
        }
        Err(e) => println!("FAILURE: {e}"),
    }
    println!();
}

fn main() {
    let ca_udp = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
    let cu_udp = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
    let ca_wu_f = AlgorithmSpec::new(presets::ca_wu_f(), TestName::EdfVd);

    println!("================ Figure 1 ================");
    println!("Balancing U_H^H alone strands the LC task; balancing the");
    println!("utilization difference leaves room for it.\n");
    let f1 = fig1_set();
    println!("{f1}");
    show("CA-Wu-F-EDF-VD (expected: failure)", &ca_wu_f, &f1);
    show("CA-UDP-EDF-VD  (expected: success)", &ca_udp, &f1);

    println!("================ Figure 2 ================");
    println!("Criticality-aware UDP allocates all HC tasks first and");
    println!("strands the heavy LC task τ5; criticality-unaware UDP");
    println!("places τ5 early and succeeds.\n");
    let f2 = fig2_set();
    println!("{f2}");
    show("CA-UDP-EDF-VD (expected: failure)", &ca_udp, &f2);
    show("CU-UDP-EDF-VD (expected: success)", &cu_udp, &f2);
}
