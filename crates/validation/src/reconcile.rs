//! Set reconciliation (dissertation Appendix A).
//!
//! Conservation-of-content validation needs each pair of monitoring routers
//! to learn the *difference* between their fingerprint sets without
//! resending all fingerprints. Appendix A adopts the characteristic
//! polynomial scheme of Minsky, Trachtenberg & Zippel: host A sends the
//! evaluations of `χ_A(z) = Π_{x∈A}(z − x)` at a handful of agreed sample
//! points (one per differing element, plus change), host B divides by its
//! own `χ_B` evaluations and interpolates the reduced rational function
//!
//! ```text
//! χ_A(z) / χ_B(z) = χ_{A∖B}(z) / χ_{B∖A}(z)
//! ```
//!
//! whose numerator and denominator roots are exactly the missing /
//! fabricated packet fingerprints. Communication is proportional to the
//! difference, not the set sizes — the property the dissertation calls
//! "optimal in bandwidth utilization".
//!
//! Computation follows the difference too. `m₀ = |δ|`, `δ = |A| − |B|`,
//! is the smallest total degree the ratio can have (identical sets,
//! packets in flight, one-sided losses). [`reconcile`] interpolates at
//! `m₀` first and keeps `p/q` only if `p(z)·χ_B(z) = χ_A(z)·q(z)` at
//! *every* one of the `capacity + 2` sample points. With `d ≤ capacity`
//! the true difference's size and `P/Q` its ratio, `p·Q − P·q` has both
//! terms monic of degree `(m₀ + d)/2`, so its degree is below `capacity`:
//! vanishing at more points, it is zero, and `p/q = P/Q` — the answer
//! the full bound gives too. Otherwise the full bound is solved and
//! checked at the two reserved points. Identical sketches cost
//! `O(capacity)`, not a `capacity`-cubed elimination.
//!
//! # Examples
//!
//! ```
//! use fatih_validation::field::Fe;
//! use fatih_validation::reconcile::{reconcile, SetSketch};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let sent: Vec<Fe> = (1..=100u64).map(Fe::new).collect();
//! // The downstream router saw everything except packets 7 and 42.
//! let recv: Vec<Fe> = sent.iter().copied()
//!     .filter(|f| *f != Fe::new(7) && *f != Fe::new(42)).collect();
//!
//! let a = SetSketch::from_elements(sent.iter().copied(), 8);
//! let b = SetSketch::from_elements(recv.iter().copied(), 8);
//! let delta = reconcile(&a, &b, &mut StdRng::seed_from_u64(0)).unwrap();
//! assert_eq!(delta.only_in_a, vec![Fe::new(7), Fe::new(42)]); // dropped
//! assert!(delta.only_in_b.is_empty());                        // none fabricated
//! ```

use crate::field::{Fe, P};
use crate::poly::Poly;
use rand::Rng;

/// Extra sample points used to verify the interpolated rational function.
const CHECK_POINTS: usize = 2;

/// A compact sketch of a fingerprint multiset: `capacity + 2` evaluations
/// of its characteristic polynomial at fixed points, plus the multiset
/// size. The polynomial is a product over the elements, so a sketch is
/// built one element at a time ([`insert`](Self::insert)) and the sketch
/// of a multiset sum is a product of sketches ([`merge`](Self::merge)).
///
/// Two sketches can be reconciled iff they were built with the same
/// `capacity` (they then share sample points) and the true symmetric
/// difference is at most `capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSketch {
    capacity: usize,
    size: u64,
    evals: Vec<Fe>,
}

/// Result of reconciliation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    /// Elements present at A but missing at B (e.g. dropped packets),
    /// sorted ascending.
    pub only_in_a: Vec<Fe>,
    /// Elements present at B but not at A (e.g. fabricated packets),
    /// sorted ascending.
    pub only_in_b: Vec<Fe>,
}

impl Delta {
    /// Total size of the symmetric difference.
    pub fn len(&self) -> usize {
        self.only_in_a.len() + self.only_in_b.len()
    }

    /// Whether the sets were identical.
    pub fn is_empty(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }
}

/// Why reconciliation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconcileError {
    /// The sketches were built with different capacities and therefore
    /// different sample points.
    CapacityMismatch,
    /// The symmetric difference exceeds the sketch capacity; callers should
    /// rebuild with a larger capacity (or fall back to a full exchange).
    BoundExceeded,
    /// A set element collided with one of the fixed sample points (the
    /// characteristic polynomial evaluates to zero there). Probability
    /// ≈ `|S|·m / 2⁶¹` per round; callers treat it like `BoundExceeded`.
    EvalPointCollision,
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CapacityMismatch => f.write_str("sketch capacities differ"),
            Self::BoundExceeded => f.write_str("set difference exceeds sketch capacity"),
            Self::EvalPointCollision => f.write_str("set element collided with a sample point"),
        }
    }
}

impl std::error::Error for ReconcileError {}

/// The fixed sample points: the top of the field, descending. Fingerprints
/// are uniform over the field so collisions are ~2⁻⁶¹ per element.
fn sample_point(i: usize) -> Fe {
    Fe::new(P - 1 - i as u64)
}

impl SetSketch {
    /// The sketch of the empty multiset, able to reconcile up to
    /// `capacity` differing elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn empty(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        Self {
            capacity,
            size: 0,
            evals: vec![Fe::ONE; capacity + CHECK_POINTS],
        }
    }

    /// Builds a sketch of the multiset `elements` able to reconcile up to
    /// `capacity` differing elements: an element that repeats is a
    /// repeated root.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn from_elements<I: IntoIterator<Item = Fe>>(elements: I, capacity: usize) -> Self {
        let mut sketch = Self::empty(capacity);
        elements.into_iter().for_each(|x| sketch.insert(x));
        sketch
    }

    /// Multiplies one more element into the sketch: `z − x` at every
    /// sample point, which descend one by one from the field's top.
    #[inline]
    pub fn insert(&mut self, x: Fe) {
        self.size += 1;
        let mut d = sample_point(0) - x;
        for e in &mut self.evals {
            *e *= d;
            d -= Fe::ONE;
        }
    }

    /// Empties the sketch, keeping its capacity and its allocation.
    pub fn clear(&mut self) {
        self.size = 0;
        self.evals.fill(Fe::ONE);
    }

    /// The sketch of the multiset sum: `other`'s elements multiplied in.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: &SetSketch) {
        assert_eq!(self.capacity, other.capacity, "sketch capacities differ");
        self.size += other.size;
        for (e, &o) in self.evals.iter_mut().zip(&other.evals) {
            *e *= o;
        }
    }

    /// Maximum symmetric difference this sketch can resolve.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of elements in the summarized multiset.
    pub fn len(&self) -> u64 {
        self.size
    }

    /// Whether the summarized set is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Wire size in bytes: the evaluations plus the set size. This is what
    /// the overhead analysis in Chapter 7 charges per summary exchange.
    pub fn wire_bytes(&self) -> usize {
        self.evals.len() * 8 + 8
    }

    /// The raw characteristic-polynomial evaluations, in sample-point order.
    /// Exposed so a wire codec can serialize the sketch.
    pub fn evals(&self) -> &[Fe] {
        &self.evals
    }

    /// Rebuilds a sketch from wire-decoded parts. Returns `None` when the
    /// evaluation count does not match `capacity + 2` (the check points) or
    /// the capacity is zero — a malformed or truncated transfer.
    pub fn from_parts(capacity: usize, size: u64, evals: Vec<Fe>) -> Option<Self> {
        if capacity == 0 || evals.len() != capacity + CHECK_POINTS {
            return None;
        }
        Some(Self {
            capacity,
            size,
            evals,
        })
    }
}

/// Reconciles two sketches, recovering the symmetric difference.
///
/// `rng` drives the Cantor–Zassenhaus polynomial splitting (the randomness
/// affects only running time, not the result).
///
/// # Errors
///
/// See [`ReconcileError`]. All failure modes are detected — the function
/// never silently returns a wrong difference: the interpolated rational
/// function is re-verified at every sample point (smallest bound) or at
/// the reserved check points (full bound), and both recovered polynomials
/// must split completely into distinct linear factors.
pub fn reconcile<R: Rng>(
    a: &SetSketch,
    b: &SetSketch,
    rng: &mut R,
) -> Result<Delta, ReconcileError> {
    if a.capacity != b.capacity {
        return Err(ReconcileError::CapacityMismatch);
    }
    let d = a.capacity;

    // Size difference fixes deg(num) − deg(den).
    let delta = a.size as i64 - b.size as i64;
    let smallest = delta.unsigned_abs() as usize;
    if smallest > d {
        return Err(ReconcileError::BoundExceeded);
    }
    // Largest usable bound with the right parity.
    let m = d - (d - smallest) % 2;
    // χ(z_i) = 0 means z_i is an element of the set.
    if (0..m).any(|i| a.evals[i].is_zero() || b.evals[i].is_zero()) {
        return Err(ReconcileError::EvalPointCollision);
    }

    // Whether num(z)·χ_B(z) == χ_A(z)·den(z) at every sample point of `at`.
    let agrees = |(num, den): &(Poly, Poly), mut at: std::ops::Range<usize>| {
        at.all(|i| {
            let z = sample_point(i);
            num.eval(z) * b.evals[i] == a.evals[i] * den.eval(z)
        })
    };
    // The smallest bound first, exact if it holds at every sample point
    // (module documentation); else the largest, checked at the reserved ones.
    let mut fit = interpolate(a, b, smallest, delta);
    if !agrees(&fit, 0..d + CHECK_POINTS) {
        fit = interpolate(a, b, m, delta);
        if !agrees(&fit, d..d + CHECK_POINTS) {
            return Err(ReconcileError::BoundExceeded);
        }
    }
    let (num, den) = fit;

    // Extract roots; failure to split completely means the bound was wrong.
    let only_in_a = num.roots(rng).ok_or(ReconcileError::BoundExceeded)?;
    let only_in_b = den.roots(rng).ok_or(ReconcileError::BoundExceeded)?;
    Ok(Delta {
        only_in_a,
        only_in_b,
    })
}

/// The reduced monic `num / den`, `deg num + deg den ≤ m` (of `delta`'s
/// parity, `≥ |delta|`) and `deg num − deg den = delta`, that takes the
/// value `χ_A / χ_B` at the first `m` sample points.
fn interpolate(a: &SetSketch, b: &SetSketch, m: usize, delta: i64) -> (Poly, Poly) {
    let deg_num = ((m as i64 + delta) / 2) as usize;
    let deg_den = ((m as i64 - delta) / 2) as usize;

    // Solve for the non-monic coefficients of num (deg_num of them) and den
    // (deg_den of them), with f(z_i) = χ_A(z_i) / χ_B(z_i):
    //   Σ_j a_j z^j − f(z) Σ_j b_j z^j = f(z)·z^deg_den − z^deg_num
    let unknowns = deg_num + deg_den;
    let mut matrix = vec![vec![Fe::ZERO; unknowns + 1]; m];
    for (row, mrow) in matrix.iter_mut().enumerate() {
        let z = sample_point(row);
        let f = a.evals[row] / b.evals[row];
        let mut zj = Fe::ONE;
        for cell in mrow.iter_mut().take(deg_num) {
            *cell = zj;
            zj *= z;
        }
        let mut zj = Fe::ONE;
        for cell in mrow.iter_mut().skip(deg_num).take(deg_den) {
            *cell = (f * zj).neg();
            zj *= z;
        }
        mrow[unknowns] = f * z.pow(deg_den as u64) - z.pow(deg_num as u64);
    }
    let solution = solve(matrix, unknowns);

    // Assemble monic num/den.
    let mut num_coeffs = solution[..deg_num].to_vec();
    num_coeffs.push(Fe::ONE);
    let mut den_coeffs = solution[deg_num..].to_vec();
    den_coeffs.push(Fe::ONE);
    let num = Poly::from_coeffs(num_coeffs);
    let den = Poly::from_coeffs(den_coeffs);

    // Cancel any common factor (happens when the true difference is smaller
    // than the bound and the system was underdetermined).
    let g = num.gcd(&den);
    (num.divmod(&g).0.monic(), den.divmod(&g).0.monic())
}

/// Gaussian elimination over GF(p); free variables are set to zero.
/// `matrix` is `rows × (unknowns + 1)` with the RHS in the last column.
fn solve(mut matrix: Vec<Vec<Fe>>, unknowns: usize) -> Vec<Fe> {
    let rows = matrix.len();
    let mut pivot_of_col = vec![usize::MAX; unknowns];
    let mut r = 0;
    for c in 0..unknowns {
        if r >= rows {
            break;
        }
        // Find a pivot.
        let Some(p_row) = (r..rows).find(|&i| !matrix[i][c].is_zero()) else {
            continue;
        };
        matrix.swap(r, p_row);
        let inv = matrix[r][c].inv();
        for v in matrix[r].iter_mut() {
            *v *= inv;
        }
        let pivot_row = matrix[r].clone();
        for (i, row) in matrix.iter_mut().enumerate() {
            if i != r && !row[c].is_zero() {
                let factor = row[c];
                for (v, &p) in row.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
            }
        }
        pivot_of_col[c] = r;
        r += 1;
    }
    (0..unknowns)
        .map(|c| {
            if pivot_of_col[c] == usize::MAX {
                Fe::ZERO
            } else {
                matrix[pivot_of_col[c]][unknowns]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fes(vals: &[u64]) -> Vec<Fe> {
        vals.iter().map(|&v| Fe::new(v)).collect()
    }

    fn run(a: &[u64], b: &[u64], cap: usize) -> Result<Delta, ReconcileError> {
        let sa = SetSketch::from_elements(fes(a), cap);
        let sb = SetSketch::from_elements(fes(b), cap);
        reconcile(&sa, &sb, &mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn identical_sets_yield_empty_delta() {
        let d = run(&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5], 4).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn pure_losses_recovered() {
        let d = run(&[10, 20, 30, 40, 50], &[10, 30, 50], 4).unwrap();
        assert_eq!(d.only_in_a, fes(&[20, 40]));
        assert!(d.only_in_b.is_empty());
    }

    #[test]
    fn pure_fabrications_recovered() {
        let d = run(&[10, 30], &[10, 30, 99, 77], 4).unwrap();
        assert!(d.only_in_a.is_empty());
        assert_eq!(d.only_in_b, fes(&[77, 99]));
    }

    #[test]
    fn modification_appears_as_loss_plus_fabrication() {
        // Packet 20 was modified in transit into 21.
        let d = run(&[10, 20, 30], &[10, 21, 30], 4).unwrap();
        assert_eq!(d.only_in_a, fes(&[20]));
        assert_eq!(d.only_in_b, fes(&[21]));
    }

    #[test]
    fn difference_exactly_at_capacity() {
        let d = run(&[1, 2, 3, 4], &[5, 6], 6).unwrap();
        assert_eq!(d.len(), 6);
        assert_eq!(d.only_in_a, fes(&[1, 2, 3, 4]));
        assert_eq!(d.only_in_b, fes(&[5, 6]));
    }

    #[test]
    fn bound_exceeded_is_detected_not_wrong() {
        // 6 differences, capacity 3: must error, never fabricate an answer.
        let r = run(&[1, 2, 3, 4, 5, 6, 100], &[100], 3);
        assert_eq!(r, Err(ReconcileError::BoundExceeded));
    }

    #[test]
    fn size_delta_larger_than_capacity_errors_early() {
        let r = run(&[1, 2, 3, 4, 5], &[], 3);
        assert_eq!(r, Err(ReconcileError::BoundExceeded));
    }

    #[test]
    fn capacity_mismatch_rejected() {
        let sa = SetSketch::from_elements(fes(&[1]), 3);
        let sb = SetSketch::from_elements(fes(&[1]), 4);
        assert_eq!(
            reconcile(&sa, &sb, &mut StdRng::seed_from_u64(0)),
            Err(ReconcileError::CapacityMismatch)
        );
    }

    #[test]
    fn eval_point_collision_detected() {
        // P-1 is the first sample point.
        let r = run(&[P - 1, 5], &[5], 2);
        assert_eq!(r, Err(ReconcileError::EvalPointCollision));
    }

    #[test]
    fn empty_versus_nonempty() {
        let d = run(&[7, 8], &[], 4).unwrap();
        assert_eq!(d.only_in_a, fes(&[7, 8]));
    }

    #[test]
    fn both_empty() {
        let d = run(&[], &[], 2).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn large_sets_small_difference() {
        let a: Vec<u64> = (1..=5_000).collect();
        let mut b = a.clone();
        b.retain(|&x| x != 1234 && x != 4321);
        b.push(999_999);
        let d = run(&a, &b, 8).unwrap();
        assert_eq!(d.only_in_a, fes(&[1234, 4321]));
        assert_eq!(d.only_in_b, fes(&[999_999]));
    }

    #[test]
    fn wire_size_depends_on_capacity_not_set_size() {
        let small = SetSketch::from_elements(fes(&[1, 2]), 8);
        let big = SetSketch::from_elements((1..10_000).map(Fe::new), 8);
        assert_eq!(small.wire_bytes(), big.wire_bytes());
    }

    #[test]
    fn realistic_fingerprints_round_trip() {
        use fatih_crypto::UhashKey;
        let key = UhashKey::from_seed(9);
        let sent: Vec<Fe> = (0u64..400)
            .map(|i| key.fingerprint(&i.to_le_bytes()).into())
            .collect();
        let mut recv = sent.clone();
        let dropped: Vec<Fe> = vec![recv.remove(17), recv.remove(200), recv.remove(350)];
        let sa = SetSketch::from_elements(sent, 6);
        let sb = SetSketch::from_elements(recv, 6);
        let d = reconcile(&sa, &sb, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut want = dropped;
        want.sort();
        assert_eq!(d.only_in_a, want);
        assert!(d.only_in_b.is_empty());
    }
}
