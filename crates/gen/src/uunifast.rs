//! UUniFast utilization sampling and the paired HC utilization split.
//!
//! [`uunifast`] samples a point uniformly from the simplex
//! `{u : Σ u_i = total, u_i ≥ 0}` (Bini & Buttazzo 2005);
//! [`uunifast_discard`] adds the `umin`/`umax` per-element bounds of the
//! DATE 2017 setup by rejection; [`paired_utilizations`] produces the
//! `(u^L_i ≤ u^H_i)` pairs for HC tasks whose sums hit both normalized
//! targets, using the sort-and-pair + excess-redistribution approach of the
//! fair WATERS 2016 generator.

use rand::{Rng, RngExt};

/// Samples `n` non-negative values summing to `total`, uniformly over the
/// simplex (UUniFast).
///
/// Returns an empty vector when `n == 0`. `total` may be any non-negative
/// value; the classic schedulability-oriented use has `total ≤ n`.
///
/// # Example
///
/// ```
/// use mcsched_gen::uunifast;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let u = uunifast(&mut rng, 4, 2.0);
/// assert_eq!(u.len(), 4);
/// assert!((u.iter().sum::<f64>() - 2.0).abs() < 1e-9);
/// ```
pub fn uunifast(rng: &mut impl Rng, n: usize, total: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    let mut sum = total;
    for i in 1..n {
        let exp = 1.0 / (n - i) as f64;
        let next = sum * rng.random::<f64>().powf(exp);
        out.push(sum - next);
        sum = next;
    }
    out.push(sum);
    out
}

/// UUniFast with per-element bounds (`umin ≤ u_i ≤ umax`), by rejection.
///
/// Returns `None` if no sample satisfying the bounds is found within
/// `max_tries` attempts (the caller should treat the configuration as
/// infeasible or retry with different structure). Feasibility requires
/// `n·umin ≤ total ≤ n·umax`.
pub fn uunifast_discard(
    rng: &mut impl Rng,
    n: usize,
    total: f64,
    umin: f64,
    umax: f64,
    max_tries: usize,
) -> Option<Vec<f64>> {
    if n == 0 {
        return if total.abs() < 1e-12 {
            Some(Vec::new())
        } else {
            None
        };
    }
    if total < n as f64 * umin - 1e-12 || total > n as f64 * umax + 1e-12 {
        return None;
    }
    for _ in 0..max_tries {
        let u = uunifast(rng, n, total);
        if u.iter().all(|&x| x >= umin - 1e-12 && x <= umax + 1e-12) {
            return Some(u);
        }
    }
    None
}

/// UUniFast with per-element bounds, by sequential truncated-marginal
/// inverse-CDF sampling — succeeds on **every** feasible input, unlike
/// rejection ([`uunifast_discard`]), whose acceptance probability vanishes
/// as `total → n·umax` (exactly the paper's `U_H^H = 0.99` corner).
///
/// The first coordinate of a uniform simplex with `k` coordinates summing
/// to `s` has CDF `F(x) = 1 − (1 − x/s)^(k−1)`; each coordinate is drawn
/// from that marginal truncated to its feasible interval
/// `[max(umin, s − (k−1)·umax), min(umax, s − (k−1)·umin)]`, then the
/// result is shuffled (truncation breaks exchangeability slightly; the
/// shuffle removes any index-order bias). Coincides with plain UUniFast
/// when the bounds never bind.
///
/// Returns `None` iff `total` is outside `[n·umin, n·umax]`.
pub fn uunifast_bounded(
    rng: &mut impl Rng,
    n: usize,
    total: f64,
    umin: f64,
    umax: f64,
) -> Option<Vec<f64>> {
    if n == 0 {
        return if total.abs() < 1e-12 {
            Some(Vec::new())
        } else {
            None
        };
    }
    if total < n as f64 * umin - 1e-9 || total > n as f64 * umax + 1e-9 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut s = total;
    for i in 0..n {
        let k = n - i;
        if k == 1 {
            out.push(s.clamp(umin.min(s), umax.max(s)));
            break;
        }
        let rem = (k - 1) as f64;
        let lo = (s - rem * umax).max(umin);
        let hi = (s - rem * umin).min(umax);
        if lo > hi + 1e-9 {
            return None; // numerically infeasible residue
        }
        let u = if hi - lo < 1e-12 || s < 1e-12 {
            lo.max(hi.min(lo))
        } else {
            let f = |x: f64| 1.0 - (1.0 - (x / s).clamp(0.0, 1.0)).powf(rem);
            let (f_lo, f_hi) = (f(lo), f(hi));
            let y = if f_hi - f_lo < 1e-15 {
                f_lo
            } else {
                rng.random_range(f_lo..=f_hi)
            };
            (s * (1.0 - (1.0 - y).powf(1.0 / rem))).clamp(lo, hi)
        };
        out.push(u);
        s -= u;
    }
    // Fisher–Yates shuffle to remove sequential-truncation order bias.
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    Some(out)
}

/// Produces `n` pairs `(u_lo_i, u_hi_i)` with `u_lo_i ≤ u_hi_i`,
/// `Σ u_hi = total_hi`, `Σ u_lo = total_lo`, and `umin ≤ u ≤ umax` on the
/// high side (`u_lo` respects `umin` and its cap `u_hi`).
///
/// Strategy (fair-generator style): draw both vectors with
/// [`uunifast_bounded`], sort both descending and pair rank-by-rank — this
/// makes most pairs already satisfy `u_lo ≤ u_hi` — then clamp any
/// violating `u_lo` to its cap and redistribute the clipped excess to
/// pairs with headroom, preserving the low-side sum exactly. The pairs are
/// finally shuffled so rank correlation does not leak into task order.
///
/// Returns `None` when the targets are structurally infeasible
/// (`total_lo > total_hi`, or a bound constraint cannot hold).
pub fn paired_utilizations(
    rng: &mut impl Rng,
    n: usize,
    total_lo: f64,
    total_hi: f64,
    umin: f64,
    umax: f64,
) -> Option<Vec<(f64, f64)>> {
    if total_lo > total_hi + 1e-12 {
        return None;
    }
    if n == 0 {
        return if total_hi.abs() < 1e-12 {
            Some(Vec::new())
        } else {
            None
        };
    }
    let mut hi = uunifast_bounded(rng, n, total_hi, umin, umax)?;
    let mut lo = uunifast_bounded(rng, n, total_lo, umin.min(total_lo / n as f64), umax)?;
    hi.sort_by(|a, b| b.total_cmp(a));
    lo.sort_by(|a, b| b.total_cmp(a));

    // Clamp low values to their caps and redistribute the excess among
    // pairs that still have headroom, keeping Σ lo invariant.
    let mut lo: Vec<f64> = lo;
    for _ in 0..64 {
        let mut excess = 0.0;
        for i in 0..n {
            if lo[i] > hi[i] {
                excess += lo[i] - hi[i];
                lo[i] = hi[i];
            }
        }
        if excess < 1e-12 {
            break;
        }
        let headroom: f64 = (0..n).map(|i| (hi[i] - lo[i]).max(0.0)).sum();
        if headroom < excess - 1e-9 {
            return None; // cannot place the low-side mass under the caps
        }
        for i in 0..n {
            let h = (hi[i] - lo[i]).max(0.0);
            lo[i] += excess * h / headroom;
        }
    }
    // Numerical guard: a final clamp pass may leave a ≤1e-9 deficit, which
    // downstream ⌈u·T⌉ quantization absorbs.
    let mut pairs: Vec<(f64, f64)> = lo.into_iter().zip(hi).map(|(l, h)| (l.min(h), h)).collect();
    // Fisher–Yates shuffle to decouple pair magnitude from task index.
    for i in (1..pairs.len()).rev() {
        let j = rng.random_range(0..=i);
        pairs.swap(i, j);
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn uunifast_sums_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 5, 20] {
            for total in [0.1, 0.7, 1.0, 3.5] {
                let u = uunifast(&mut rng, n, total);
                assert_eq!(u.len(), n);
                assert!((u.iter().sum::<f64>() - total).abs() < 1e-9);
                assert!(u.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn uunifast_zero_tasks() {
        let mut rng = StdRng::seed_from_u64(12);
        assert!(uunifast(&mut rng, 0, 0.5).is_empty());
    }

    #[test]
    fn uunifast_distribution_is_roughly_uniform() {
        // For n = 2, u_0 ~ U(0, total): quartile counts should be flat.
        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            let u = uunifast(&mut rng, 2, 1.0);
            let q = ((u[0] * 4.0) as usize).min(3);
            counts[q] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "quartiles should be flat: {counts:?}"
            );
        }
    }

    #[test]
    fn discard_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(14);
        let u = uunifast_discard(&mut rng, 5, 2.0, 0.05, 0.9, 1000).unwrap();
        assert!(u.iter().all(|&x| (0.05..=0.9).contains(&x)));
        assert!((u.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn discard_infeasible_returns_none() {
        let mut rng = StdRng::seed_from_u64(15);
        // total above n·umax.
        assert!(uunifast_discard(&mut rng, 2, 3.0, 0.0, 0.99, 100).is_none());
        // total below n·umin.
        assert!(uunifast_discard(&mut rng, 4, 0.001, 0.01, 0.99, 100).is_none());
    }

    #[test]
    fn discard_zero_n() {
        let mut rng = StdRng::seed_from_u64(16);
        assert_eq!(
            uunifast_discard(&mut rng, 0, 0.0, 0.0, 1.0, 10),
            Some(vec![])
        );
        assert_eq!(uunifast_discard(&mut rng, 0, 0.5, 0.0, 1.0, 10), None);
    }

    #[test]
    fn paired_sums_and_order() {
        let mut rng = StdRng::seed_from_u64(17);
        for (tl, th, n) in [
            (0.4, 1.2, 4usize),
            (0.05, 0.1, 1),
            (1.5, 1.8, 6),
            (0.9, 0.9, 3),
        ] {
            let pairs = paired_utilizations(&mut rng, n, tl, th, 0.001, 0.99)
                .unwrap_or_else(|| panic!("feasible config {tl}/{th}/{n}"));
            assert_eq!(pairs.len(), n);
            let sum_lo: f64 = pairs.iter().map(|p| p.0).sum();
            let sum_hi: f64 = pairs.iter().map(|p| p.1).sum();
            assert!((sum_lo - tl).abs() < 1e-6, "lo sum {sum_lo} != {tl}");
            assert!((sum_hi - th).abs() < 1e-6, "hi sum {sum_hi} != {th}");
            for &(l, h) in &pairs {
                assert!(l <= h + 1e-9, "pair order violated: {l} > {h}");
                assert!(h <= 0.99 + 1e-9);
                assert!(l > 0.0);
            }
        }
    }

    #[test]
    fn paired_rejects_inverted_totals() {
        let mut rng = StdRng::seed_from_u64(18);
        assert!(paired_utilizations(&mut rng, 3, 1.0, 0.5, 0.001, 0.99).is_none());
    }

    #[test]
    fn paired_zero_tasks() {
        let mut rng = StdRng::seed_from_u64(19);
        assert_eq!(
            paired_utilizations(&mut rng, 0, 0.0, 0.0, 0.001, 0.99),
            Some(vec![])
        );
        assert!(paired_utilizations(&mut rng, 0, 0.0, 0.5, 0.001, 0.99).is_none());
    }

    #[test]
    fn paired_equal_totals_forces_equal_pairs() {
        let mut rng = StdRng::seed_from_u64(20);
        let pairs = paired_utilizations(&mut rng, 3, 0.9, 0.9, 0.001, 0.99).unwrap();
        for &(l, h) in &pairs {
            assert!((l - h).abs() < 1e-6, "equal totals should pin l == h");
        }
    }
}
