//! The named partitioning strategies of the DATE 2017 paper.
//!
//! | Preset | Order | HC fit | LC fit | Source |
//! |--------|-------|--------|--------|--------|
//! | [`ca_udp`] | criticality-aware, sorted | worst-fit on `U_H^H−U_H^L` | first-fit | the paper, Algorithm 1 |
//! | [`cu_udp`] | criticality-unaware | worst-fit on `U_H^H−U_H^L` | first-fit | the paper, §III |
//! | [`ca_wu_f`] | criticality-aware, sorted | worst-fit on `U_H^H` | first-fit | Fig. 1 foil |
//! | [`ca_nosort_f_f`] | criticality-aware, unsorted | first-fit | first-fit | Baruah et al. \[3\] |
//! | [`eca_wu_f`] | heavy-LC first | worst-fit on `U_H^H` | first-fit | Gu et al. \[11\] |
//! | [`ca_f_f`] | criticality-aware, sorted | first-fit | first-fit | Rodriguez et al. \[10\] |

use crate::strategy::{AllocationOrder, BalanceMetric, FitRule, PartitionStrategy};

/// **CA-UDP** (Algorithm 1): criticality-aware, tasks sorted by own-level
/// utilization; HC tasks worst-fit on the utilization difference
/// `U_H^H(φk) − U_H^L(φk)`; LC tasks first-fit.
pub fn ca_udp() -> PartitionStrategy {
    PartitionStrategy::builder("CA-UDP")
        .order(AllocationOrder::CriticalityAware { sorted: true })
        .hc_fit(FitRule::WorstFit(BalanceMetric::UtilizationDifference))
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// **CU-UDP**: criticality-unaware ordering (heavy LC tasks are offered
/// early); fits as in [`ca_udp`].
pub fn cu_udp() -> PartitionStrategy {
    PartitionStrategy::builder("CU-UDP")
        .order(AllocationOrder::CriticalityUnaware)
        .hc_fit(FitRule::WorstFit(BalanceMetric::UtilizationDifference))
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// **CA-Wu-F** (the Fig. 1 foil): like [`ca_udp`] but HC tasks worst-fit
/// on the total HC utilization `U_H^H(φk)` alone.
pub fn ca_wu_f() -> PartitionStrategy {
    PartitionStrategy::builder("CA-Wu-F")
        .order(AllocationOrder::CriticalityAware { sorted: true })
        .hc_fit(FitRule::WorstFit(BalanceMetric::HiUtilization))
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// **CA(nosort)-F-F** (Baruah et al. \[3\]): criticality-aware without
/// sorting, first-fit everywhere — the only partitioned MC algorithm with
/// a known speed-up bound (8/3 with the EDF-VD test).
pub fn ca_nosort_f_f() -> PartitionStrategy {
    PartitionStrategy::builder("CA(nosort)-F-F")
        .order(AllocationOrder::CriticalityAware { sorted: false })
        .hc_fit(FitRule::FirstFit)
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// **ECA-Wu-F** (Gu et al. \[11\]): enhanced criticality-aware — LC tasks
/// with `u^L ≥ 0.5` are allocated before the HC tasks; HC tasks worst-fit
/// on `U_H^H`; LC tasks first-fit.
///
/// The 0.5 heaviness threshold is our reconstruction choice: the DATE 2017
/// text says only "preference is given to heavy utilization LC tasks".
/// Use [`eca_wu_f_with_threshold`] to ablate it.
pub fn eca_wu_f() -> PartitionStrategy {
    eca_wu_f_with_threshold(500)
}

/// [`eca_wu_f`] with an explicit heaviness threshold in thousandths
/// (e.g. `500` ⇒ `u^L ≥ 0.5` counts as heavy).
pub fn eca_wu_f_with_threshold(threshold_millis: u32) -> PartitionStrategy {
    PartitionStrategy::builder("ECA-Wu-F")
        .order(AllocationOrder::HeavyLcFirst { threshold_millis })
        .hc_fit(FitRule::WorstFit(BalanceMetric::HiUtilization))
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// **CA-F-F** (Rodriguez et al. \[10\]): criticality-aware with sorting,
/// first-fit for both classes.
pub fn ca_f_f() -> PartitionStrategy {
    PartitionStrategy::builder("CA-F-F")
        .order(AllocationOrder::CriticalityAware { sorted: true })
        .hc_fit(FitRule::FirstFit)
        .lc_fit(FitRule::FirstFit)
        .build()
}

/// All six presets, for sweeps and ablations.
pub fn all() -> Vec<PartitionStrategy> {
    vec![
        ca_udp(),
        cu_udp(),
        ca_wu_f(),
        ca_nosort_f_f(),
        eca_wu_f(),
        ca_f_f(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names() {
        assert_eq!(ca_udp().name(), "CA-UDP");
        assert_eq!(cu_udp().name(), "CU-UDP");
        assert_eq!(ca_wu_f().name(), "CA-Wu-F");
        assert_eq!(ca_nosort_f_f().name(), "CA(nosort)-F-F");
        assert_eq!(eca_wu_f().name(), "ECA-Wu-F");
        assert_eq!(ca_f_f().name(), "CA-F-F");
        assert_eq!(all().len(), 6);
    }

    #[test]
    fn udp_presets_use_difference_metric() {
        for s in [ca_udp(), cu_udp()] {
            assert_eq!(
                s.hc_fit(),
                FitRule::WorstFit(BalanceMetric::UtilizationDifference)
            );
            assert_eq!(s.lc_fit(), FitRule::FirstFit);
        }
    }

    #[test]
    fn baseline_orders() {
        assert_eq!(
            ca_nosort_f_f().order(),
            AllocationOrder::CriticalityAware { sorted: false }
        );
        assert_eq!(
            eca_wu_f().order(),
            AllocationOrder::HeavyLcFirst {
                threshold_millis: 500
            }
        );
        assert_eq!(
            eca_wu_f_with_threshold(700).order(),
            AllocationOrder::HeavyLcFirst {
                threshold_millis: 700
            }
        );
        assert_eq!(
            ca_f_f().order(),
            AllocationOrder::CriticalityAware { sorted: true }
        );
    }
}
