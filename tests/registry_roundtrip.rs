//! Registry round-trips: every line-up name the experiment harness uses
//! parses back to a spec with the identical display name, and
//! registry-resolved line-ups produce **bit-identical** sweep results to
//! directly constructed specs over a seeded corpus.

use mcsched::exp::algorithms::{
    AMC_ABLATION_NAMES, FIG3_NAMES, FIG4_NAMES, FIG6B_NAMES, PERF_NAMES,
};
use mcsched::exp::sweep::{acceptance_sweep, SweepConfig};
use mcsched::gen::DeadlineModel;
use mcsched::prelude::*;

fn every_lineup_name() -> Vec<&'static str> {
    let mut names: Vec<&str> = Vec::new();
    names.extend(FIG3_NAMES);
    names.extend(FIG4_NAMES);
    names.extend(FIG6B_NAMES);
    names.extend(PERF_NAMES);
    names.extend(AMC_ABLATION_NAMES);
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn every_lineup_name_round_trips_through_the_registry() {
    let registry = AlgorithmRegistry::standard();
    for name in every_lineup_name() {
        let spec = registry
            .spec(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.name(), name, "display name must round-trip");
    }
}

#[test]
fn registry_lineup_sweeps_bit_identical_to_direct_constructors() {
    // The exact algorithms `fig3_lineup`/`fig4_lineup` used to hard-code,
    // constructed directly...
    let direct = [
        AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd),
        AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd),
        AlgorithmSpec::new(presets::ca_nosort_f_f(), TestName::EdfVd),
        AlgorithmSpec::new(presets::cu_udp(), TestName::Ecdf),
        AlgorithmSpec::new(presets::cu_udp(), TestName::AmcMax).with_display_name("CU-UDP-AMC"),
        AlgorithmSpec::new(presets::eca_wu_f(), TestName::Ey),
        AlgorithmSpec::new(presets::ca_f_f(), TestName::Ey),
    ];
    // ... and the same line-up resolved through the registry.
    let registry = AlgorithmRegistry::standard();
    let named = registry
        .resolve(&[
            "CA-UDP-EDF-VD",
            "CU-UDP-EDF-VD",
            "CA(nosort)-F-F-EDF-VD",
            "CU-UDP-ECDF",
            "CU-UDP-AMC",
            "ECA-Wu-F-EY",
            "CA-F-F-EY",
        ])
        .unwrap();

    let mut config = SweepConfig::paper(2, DeadlineModel::Implicit, 10, 0xD17E);
    config.threads = 2;
    config.min_bucket_percent = 40;
    let a = acceptance_sweep(&config, &direct);
    let b = acceptance_sweep(&config, &named);
    assert_eq!(a, b, "registry-built line-up must be bit-identical");
}
