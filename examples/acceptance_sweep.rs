//! A miniature Fig. 3 sweep: acceptance ratio vs total normalized
//! utilization for the UDP strategies against the bounded baseline, on a
//! reduced sample so it finishes in seconds even in debug builds.
//!
//! For the full paper-scale sweeps use the `mcexp` binary:
//! `cargo run --release -p mcsched-exp -- sweep --fig 3 --sets 1000`.
//!
//! Run with: `cargo run --example acceptance_sweep`

use mcsched::exp::figures::fig3_panel;
use mcsched::exp::report::render_table;

fn main() {
    let sets_per_bucket = 60;
    let seed = 2017;
    for m in [2usize, 4] {
        eprintln!("sweeping m = {m} ({sets_per_bucket} sets per UB bucket)...");
        let result = fig3_panel(m, sets_per_bucket, seed, 4);
        println!("\nFig. 3 style panel, m = {m}:");
        println!("{}", render_table(&result));

        let udp = result.curve("CU-UDP-EDF-VD").expect("present");
        let base = result.curve("CA(nosort)-F-F-EDF-VD").expect("present");
        let (at, gain) = udp.max_improvement_over(base);
        println!(
            "CU-UDP's largest gain over CA(nosort)-F-F: {gain:.1} percentage points at UB = {at:.2}"
        );
        println!(
            "weighted acceptance ratios: CU-UDP {:.3} vs baseline {:.3}",
            udp.weighted_acceptance_ratio(),
            base.weighted_acceptance_ratio()
        );
    }
}
