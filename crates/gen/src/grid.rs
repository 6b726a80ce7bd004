//! The paper's normalized utilization grid and `UB` bucketing.
//!
//! §IV of the DATE 2017 paper sweeps:
//!
//! * `U_H^H ∈ {0.1, 0.2, …, 0.9, 0.99}`,
//! * `U_H^L ∈ {0.05, 0.15, …} ∩ (0, U_H^H]`,
//! * `U_L^L ∈ {0.05, 0.15, …} ∩ (0, 0.99 − U_H^L]`,
//!
//! and buckets the resulting configurations by the total normalized
//! utilization `UB = max(U_H^L + U_L^L, U_H^H)`, generating 1000 task sets
//! per bucket. Acceptance ratios are plotted against `UB`.

/// One normalized utilization configuration `(U_H^H, U_H^L, U_L^L)`.
///
/// All three values are *normalized by the processor count* `m`, exactly as
/// in the paper; multiply by `m` to get the task-level sums a generator
/// must hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Normalized total high-mode utilization of HC tasks, `U_H^H`.
    pub u_hh: f64,
    /// Normalized total low-mode utilization of HC tasks, `U_H^L`.
    pub u_hl: f64,
    /// Normalized total low-mode utilization of LC tasks, `U_L^L`.
    pub u_ll: f64,
}

impl GridPoint {
    /// The paper's x-axis value `UB = max(U_H^L + U_L^L, U_H^H)`.
    #[inline]
    pub fn ub(&self) -> f64 {
        (self.u_hl + self.u_ll).max(self.u_hh)
    }
}

/// A `UB` bucket key: `round(UB · 100)`, i.e. `UB` in integer percent.
///
/// Using integer percent keys makes bucketing exact (no float keys in
/// maps) while matching the 0.05-granular paper grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UbBucket(pub u32);

impl UbBucket {
    /// The bucket's `UB` value as a float (center of the percent cell).
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from(self.0) / 100.0
    }
}

impl std::fmt::Display for UbBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}", self.as_f64())
    }
}

/// Buckets a grid point by its `UB` value (integer percent, rounded).
#[inline]
pub fn bucket_of(point: &GridPoint) -> UbBucket {
    UbBucket((point.ub() * 100.0).round() as u32)
}

/// Enumerates the paper's full `(U_H^H, U_H^L, U_L^L)` grid.
///
/// # Example
///
/// ```
/// use mcsched_gen::utilization_grid;
/// let grid = utilization_grid();
/// assert!(grid.len() > 300);
/// assert!(grid.iter().all(|p| p.u_hl <= p.u_hh + 1e-9));
/// assert!(grid.iter().all(|p| p.u_hl + p.u_ll <= 0.99 + 1e-9));
/// ```
pub fn utilization_grid() -> Vec<GridPoint> {
    let mut points = Vec::new();
    let u_hh_values: Vec<f64> = (1..=9)
        .map(|i| f64::from(i) / 10.0)
        .chain(std::iter::once(0.99))
        .collect();
    for &u_hh in &u_hh_values {
        // U_H^L ∈ {0.05, 0.15, ...} up to U_H^H.
        let mut u_hl = 0.05;
        while u_hl <= u_hh + 1e-9 {
            // U_L^L ∈ {0.05, 0.15, ...} up to 0.99 − U_H^L.
            let mut u_ll = 0.05;
            while u_hl + u_ll <= 0.99 + 1e-9 {
                points.push(GridPoint {
                    u_hh,
                    u_hl: u_hl.min(u_hh),
                    u_ll,
                });
                u_ll += 0.10;
            }
            u_hl += 0.10;
        }
    }
    points
}

/// Groups the full grid by `UB` bucket, returning `(bucket, points)` pairs
/// in increasing bucket order.
pub fn bucketed_grid() -> Vec<(UbBucket, Vec<GridPoint>)> {
    let mut map: std::collections::BTreeMap<UbBucket, Vec<GridPoint>> =
        std::collections::BTreeMap::new();
    for p in utilization_grid() {
        map.entry(bucket_of(&p)).or_default().push(p);
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ub_definition() {
        let p = GridPoint {
            u_hh: 0.6,
            u_hl: 0.3,
            u_ll: 0.5,
        };
        assert!((p.ub() - 0.8).abs() < 1e-12);
        let p2 = GridPoint {
            u_hh: 0.9,
            u_hl: 0.3,
            u_ll: 0.2,
        };
        assert!((p2.ub() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn grid_respects_paper_constraints() {
        let grid = utilization_grid();
        assert!(!grid.is_empty());
        for p in &grid {
            assert!(p.u_hh >= 0.1 - 1e-9 && p.u_hh <= 0.99 + 1e-9);
            assert!(p.u_hl >= 0.05 - 1e-9);
            assert!(p.u_hl <= p.u_hh + 1e-9, "{p:?}");
            assert!(p.u_ll >= 0.05 - 1e-9);
            assert!(p.u_hl + p.u_ll <= 0.99 + 1e-9, "{p:?}");
        }
    }

    #[test]
    fn grid_contains_expected_corners() {
        let grid = utilization_grid();
        // Low corner.
        assert!(grid.iter().any(|p| (p.u_hh - 0.1).abs() < 1e-9
            && (p.u_hl - 0.05).abs() < 1e-9
            && (p.u_ll - 0.05).abs() < 1e-9));
        // High U_HH row exists.
        assert!(grid.iter().any(|p| (p.u_hh - 0.99).abs() < 1e-9));
    }

    #[test]
    fn buckets_are_ordered_and_cover_spread() {
        let buckets = bucketed_grid();
        assert!(buckets.len() > 5);
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let min = buckets.first().unwrap().0;
        let max = buckets.last().unwrap().0;
        assert!(min.0 <= 15, "min bucket {min}");
        assert!(max.0 >= 99, "max bucket {max}");
    }

    #[test]
    fn bucket_display_and_value() {
        let b = UbBucket(85);
        assert_eq!(b.to_string(), "0.85");
        assert!((b.as_f64() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn bucket_of_rounds() {
        let p = GridPoint {
            u_hh: 0.99,
            u_hl: 0.05,
            u_ll: 0.05,
        };
        assert_eq!(bucket_of(&p), UbBucket(99));
    }
}
