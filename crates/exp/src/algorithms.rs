//! Named algorithm line-ups for each figure — **data, not constructors**.
//!
//! Each line-up is a list of registry names (or [`AlgorithmSpec`]s for
//! the ablation's custom strategies) resolved through
//! [`AlgorithmRegistry::standard`]; adding an algorithm to a figure means
//! adding a name to a list, and external callers (config files, the
//! `mcexp eval` service) address the exact same names.

use mcsched_core::{
    AlgorithmRegistry, AlgorithmSpec, AllocationOrder, BalanceMetric, FitRule, PartitionStrategy,
    TestName,
};

pub use mcsched_core::AlgoBox;

/// Fig. 3 line-up (implicit deadlines, all with the EDF-VD test, all with
/// the 8/3 speed-up bound): CA-UDP, CU-UDP, CA(nosort)-F-F.
pub const FIG3_NAMES: [&str; 3] = ["CA-UDP-EDF-VD", "CU-UDP-EDF-VD", "CA(nosort)-F-F-EDF-VD"];

/// Fig. 4 / Fig. 5 line-up (no speed-up bound): the UDP strategies under
/// ECDF and AMC against the EY-based baselines. The paper plots only the
/// CU variants "for clarity of presentation"; we include CA-UDP too since
/// the text discusses it.
pub const FIG4_NAMES: [&str; 6] = [
    "CU-UDP-ECDF",
    "CU-UDP-AMC",
    "CA-UDP-ECDF",
    "CA-UDP-AMC",
    "ECA-Wu-F-EY",
    "CA-F-F-EY",
];

/// Fig. 6(b) line-up: CU-UDP under AMC and ECDF plus the EY baselines
/// (constrained deadlines).
pub const FIG6B_NAMES: [&str; 5] = [
    "CU-UDP-ECDF",
    "CU-UDP-AMC",
    "CA-UDP-AMC",
    "ECA-Wu-F-EY",
    "CA-F-F-EY",
];

/// Admission-profile line-up of `mcexp ablation`: the Fig. 3 EDF-VD
/// algorithms plus one representative of each remaining uniprocessor-test
/// family (dbf-based ECDF/EY and response-time AMC), so the profile covers
/// every admission-state implementation.
pub const PERF_NAMES: [&str; 6] = [
    "CA-UDP-EDF-VD",
    "CU-UDP-EDF-VD",
    "CA(nosort)-F-F-EDF-VD",
    "CU-UDP-ECDF",
    "CU-UDP-EY",
    "CU-UDP-AMC",
];

/// AMC-variant ablation: AMC-max vs AMC-rtb under the CU-UDP strategy.
pub const AMC_ABLATION_NAMES: [&str; 2] = ["CU-UDP-AMC-max", "CU-UDP-AMC-rtb"];

/// Resolves a list of registry names into runnable algorithms.
///
/// # Panics
///
/// Panics if a name is not registered — line-up names are compile-time
/// constants, so a failure here is a programming error (the round-trip of
/// every constant is asserted by `tests/registry_roundtrip.rs`).
pub fn resolve_lineup(names: &[&str]) -> Vec<AlgoBox> {
    AlgorithmRegistry::standard()
        .resolve(names)
        .unwrap_or_else(|e| panic!("line-up resolution failed: {e}"))
}

/// Fig. 3 line-up, built from [`FIG3_NAMES`].
pub fn fig3_lineup() -> Vec<AlgoBox> {
    resolve_lineup(&FIG3_NAMES)
}

/// Fig. 4 / Fig. 5 line-up, built from [`FIG4_NAMES`].
pub fn fig4_lineup() -> Vec<AlgoBox> {
    resolve_lineup(&FIG4_NAMES)
}

/// Fig. 6(a) line-up: the EDF-VD algorithms of Fig. 3.
pub fn fig6a_lineup() -> Vec<AlgoBox> {
    fig3_lineup()
}

/// Fig. 6(b) line-up, built from [`FIG6B_NAMES`].
pub fn fig6b_lineup() -> Vec<AlgoBox> {
    resolve_lineup(&FIG6B_NAMES)
}

/// Admission-profile line-up, built from [`PERF_NAMES`].
pub fn perf_lineup() -> Vec<AlgoBox> {
    resolve_lineup(&PERF_NAMES)
}

/// AMC-variant ablation line-up, built from [`AMC_ABLATION_NAMES`].
pub fn amc_ablation_lineup() -> Vec<AlgoBox> {
    resolve_lineup(&AMC_ABLATION_NAMES)
}

/// Ablation line-up as specs: isolates each design decision of the UDP
/// strategies. The preset-based variants come straight from the registry;
/// the three custom strategies (unsorted / best-fit / low-mode-load
/// metric) are expressed as [`AlgorithmSpec`]s with inline strategies —
/// the same data format `mcexp eval` accepts.
pub fn ablation_specs() -> Vec<AlgorithmSpec> {
    let registry = AlgorithmRegistry::standard();
    let preset = |name: &str| {
        registry
            .spec(name)
            .unwrap_or_else(|e| panic!("ablation preset: {e}"))
    };
    let wf = FitRule::WorstFit(BalanceMetric::UtilizationDifference);
    let udp_unsorted = PartitionStrategy::builder("CA-UDP(nosort)")
        .order(AllocationOrder::CriticalityAware { sorted: false })
        .hc_fit(wf)
        .lc_fit(FitRule::FirstFit)
        .build();
    let udp_bestfit = PartitionStrategy::builder("CA-UDP(bestfit)")
        .order(AllocationOrder::CriticalityAware { sorted: true })
        .hc_fit(FitRule::BestFit(BalanceMetric::UtilizationDifference))
        .lc_fit(FitRule::FirstFit)
        .build();
    let ca_wf_lo = PartitionStrategy::builder("CA-WF(Ulo)")
        .order(AllocationOrder::CriticalityAware { sorted: true })
        .hc_fit(FitRule::WorstFit(BalanceMetric::LoModeLoad))
        .lc_fit(FitRule::FirstFit)
        .build();
    vec![
        // The full UDP strategies.
        preset("CA-UDP-EDF-VD"),
        preset("CU-UDP-EDF-VD"),
        // Metric ablation: worst-fit on U_H^H instead of the difference.
        preset("CA-Wu-F-EDF-VD"),
        // Metric ablation: worst-fit on the low-mode load.
        AlgorithmSpec::new(ca_wf_lo, TestName::EdfVd),
        // Sorting ablation.
        AlgorithmSpec::new(udp_unsorted, TestName::EdfVd),
        // Fit-direction ablation.
        AlgorithmSpec::new(udp_bestfit, TestName::EdfVd),
        // Plain first-fit baselines.
        preset("CA-F-F-EDF-VD"),
        preset("CA(nosort)-F-F-EDF-VD"),
    ]
}

/// Ablation line-up: [`ablation_specs`] instantiated.
pub fn ablation_lineup() -> Vec<AlgoBox> {
    ablation_specs().iter().map(AlgorithmSpec::build).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_have_expected_names() {
        let names: Vec<String> = fig3_lineup().iter().map(|a| a.name().to_owned()).collect();
        assert!(names.iter().any(|n| n == "CA-UDP-EDF-VD"));
        assert!(names.iter().any(|n| n == "CU-UDP-EDF-VD"));
        assert!(names.iter().any(|n| n == "CA(nosort)-F-F-EDF-VD"));
    }

    #[test]
    fn fig4_contains_paper_algorithms() {
        let l = fig4_lineup();
        let names: Vec<String> = l.iter().map(|a| a.name().to_owned()).collect();
        for expected in ["CU-UDP-ECDF", "CU-UDP-AMC", "ECA-Wu-F-EY", "CA-F-F-EY"] {
            assert!(
                names.iter().any(|n| n == expected),
                "{expected} missing from {names:?}"
            );
        }
    }

    #[test]
    fn lineup_names_match_their_constants() {
        for (names, lineup) in [
            (&FIG3_NAMES[..], fig3_lineup()),
            (&FIG4_NAMES[..], fig4_lineup()),
            (&FIG6B_NAMES[..], fig6b_lineup()),
            (&PERF_NAMES[..], perf_lineup()),
            (&AMC_ABLATION_NAMES[..], amc_ablation_lineup()),
        ] {
            let built: Vec<&str> = lineup.iter().map(|a| a.name()).collect();
            assert_eq!(built, names);
        }
    }

    #[test]
    fn ablation_lineups_nonempty() {
        assert!(ablation_lineup().len() >= 6);
        assert_eq!(amc_ablation_lineup().len(), 2);
        assert_eq!(fig6a_lineup().len(), 3);
        assert!(fig6b_lineup().len() >= 4);
    }

    #[test]
    fn ablation_specs_cover_custom_strategies() {
        let specs = ablation_specs();
        let names: Vec<String> = specs.iter().map(AlgorithmSpec::name).collect();
        for expected in [
            "CA-UDP-EDF-VD",
            "CA-UDP(nosort)-EDF-VD",
            "CA-UDP(bestfit)-EDF-VD",
            "CA-WF(Ulo)-EDF-VD",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "{expected} missing from {names:?}"
            );
        }
        // Specs and the instantiated line-up agree on names.
        let built: Vec<String> = ablation_lineup()
            .iter()
            .map(|a| a.name().to_owned())
            .collect();
        assert_eq!(names, built);
    }

    #[test]
    fn perf_lineup_covers_every_test_family() {
        let names: Vec<String> = perf_lineup().iter().map(|a| a.name().to_owned()).collect();
        assert!(names.iter().any(|n| n.contains("EDF-VD")));
        assert!(names.iter().any(|n| n.contains("ECDF")));
        assert!(names.iter().any(|n| n.ends_with("EY")));
        assert!(names.iter().any(|n| n.contains("AMC")));
    }
}
