//! Small dense linear-algebra helpers: 3-vectors and 3×3 matrices.
//!
//! The Quake stiffness matrices are built from 3×3 blocks (one per mesh-edge,
//! coupling the three displacement degrees of freedom of a node pair), so a
//! tiny fixed-size dense kernel is all the dense algebra the system needs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A 3-vector of `f64`, used for node coordinates and per-node displacement.
///
/// # Examples
///
/// ```
/// use quake_sparse::dense::Vec3;
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(4.0, 5.0, 6.0);
/// assert_eq!(a.dot(b), 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all three components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Scales the vector by `s`.
    #[inline]
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Returns the component with index `i` (0 → x, 1 → y, 2 → z).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub fn component(self, i: usize) -> f64 {
        match i {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 component index {i} out of range"),
        }
    }

    /// Returns the components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        self.scale(s)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A dense 3×3 matrix stored row-major, used as the block type of the
/// block-CSR stiffness matrix.
///
/// # Examples
///
/// ```
/// use quake_sparse::dense::{Mat3, Vec3};
/// let m = Mat3::identity();
/// let v = Vec3::new(1.0, 2.0, 3.0);
/// assert_eq!(m.mul_vec(v), v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Row-major entries: `m[r][c]`.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m: [[f64; 3]; 3]) -> Self {
        Mat3 { m }
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Self {
        let mut m = [[0.0; 3]; 3];
        m[0][0] = 1.0;
        m[1][1] = 1.0;
        m[2][2] = 1.0;
        Mat3 { m }
    }

    /// A diagonal matrix with diagonal `d`.
    #[inline]
    pub fn diag(d: Vec3) -> Self {
        let mut m = [[0.0; 3]; 3];
        m[0][0] = d.x;
        m[1][1] = d.y;
        m[2][2] = d.z;
        Mat3 { m }
    }

    /// The outer product `a bᵀ`.
    #[inline]
    pub fn outer(a: Vec3, b: Vec3) -> Self {
        let a = a.to_array();
        let b = b.to_array();
        let mut m = [[0.0; 3]; 3];
        for (r, &ar) in a.iter().enumerate() {
            for (c, &bc) in b.iter().enumerate() {
                m[r][c] = ar * bc;
            }
        }
        Mat3 { m }
    }

    /// Matrix-vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }

    /// Transposed matrix-vector product `Aᵀ·v`, without forming `Aᵀ`.
    /// Row `r` is `m[0][r]·v.x + m[1][r]·v.y + m[2][r]·v.z`, the same
    /// operations in the same order as `self.transpose().mul_vec(v)`, so
    /// the two are bitwise-equal.
    #[inline]
    pub fn mul_vec_transposed(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[1][0] * v.y + self.m[2][0] * v.z,
            self.m[0][1] * v.x + self.m[1][1] * v.y + self.m[2][1] * v.z,
            self.m[0][2] * v.x + self.m[1][2] * v.y + self.m[2][2] * v.z,
        )
    }

    /// The block as a flat row-major 9-tile, `[m00, m01, m02, m10, …]` —
    /// the value layout the register-blocked SMVP microkernel indexes.
    #[inline]
    pub fn as_flat(&self) -> &[f64; 9] {
        // SAFETY: `[[f64; 3]; 3]` and `[f64; 9]` have identical size and
        // alignment, and nested arrays are guaranteed contiguous with no
        // padding, so the reinterpretation is layout-exact.
        unsafe { &*(self.m.as_ptr() as *const [f64; 9]) }
    }

    /// Matrix-matrix product `self · rhs`.
    pub fn mul_mat(&self, rhs: &Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, out_row) in out.iter_mut().enumerate() {
            for (c, out_rc) in out_row.iter_mut().enumerate() {
                let mut s = 0.0;
                for k in 0..3 {
                    s += self.m[r][k] * rhs.m[k][c];
                }
                *out_rc = s;
            }
        }
        Mat3 { m: out }
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Mat3 {
        let mut t = [[0.0; 3]; 3];
        for (r, row) in self.m.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                t[c][r] = v;
            }
        }
        Mat3 { m: t }
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Inverse, or `None` if the matrix is singular
    /// (|det| ≤ `1e-300`, i.e. numerically zero).
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() <= 1e-300 {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / d;
        let mut inv = [[0.0; 3]; 3];
        inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
        inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
        inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
        inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
        inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
        inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
        inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
        inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
        inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
        Some(Mat3 { m: inv })
    }

    /// Trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.m
            .iter()
            .flat_map(|row| row.iter())
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
    }

    /// True if `self` is symmetric to within absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (self.m[0][1] - self.m[1][0]).abs() <= tol
            && (self.m[0][2] - self.m[2][0]).abs() <= tol
            && (self.m[1][2] - self.m[2][1]).abs() <= tol
    }

    /// Eigenvalues and eigenvectors of a **symmetric** 3×3 matrix via cyclic
    /// Jacobi rotations. Returns `(eigenvalues, eigenvectors)` where
    /// `eigenvectors[k]` is the unit eigenvector for `eigenvalues[k]`,
    /// sorted in descending eigenvalue order.
    ///
    /// Used by the inertial partitioner to find the principal axis of a point
    /// cloud's covariance matrix.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the matrix is symmetric.
    pub fn symmetric_eigen(&self) -> ([f64; 3], [Vec3; 3]) {
        debug_assert!(self.is_symmetric(1e-9 * (1.0 + self.frobenius_norm())));
        let mut a = self.m;
        // v accumulates the rotations; starts as identity.
        let mut v = Mat3::identity().m;
        for _sweep in 0..64 {
            // Off-diagonal magnitude.
            let off = (a[0][1] * a[0][1] + a[0][2] * a[0][2] + a[1][2] * a[1][2]).sqrt();
            if off < 1e-14 * (1.0 + self.frobenius_norm()) {
                break;
            }
            for &(p, q) in &[(0usize, 1usize), (0, 2), (1, 2)] {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation J(p,q,θ)ᵀ A J(p,q,θ).
                for k in 0..3 {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..3 {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for vk in v.iter_mut() {
                    let vkp = vk[p];
                    let vkq = vk[q];
                    vk[p] = c * vkp - s * vkq;
                    vk[q] = s * vkp + c * vkq;
                }
            }
        }
        let mut pairs: Vec<(f64, Vec3)> = (0..3)
            .map(|k| (a[k][k], Vec3::new(v[0][k], v[1][k], v[2][k])))
            .collect();
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        (
            [pairs[0].0, pairs[1].0, pairs[2].0],
            [pairs[0].1, pairs[1].1, pairs[2].1],
        )
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::ZERO
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = self.m;
        for (r, row) in out.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v += rhs.m[r][c];
            }
        }
        Mat3 { m: out }
    }
}

impl AddAssign for Mat3 {
    fn add_assign(&mut self, rhs: Mat3) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = self.m;
        for row in out.iter_mut() {
            for v in row.iter_mut() {
                *v *= s;
            }
        }
        Mat3 { m: out }
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.m[r][c]
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.m {
            writeln!(f, "[{:>12.5e} {:>12.5e} {:>12.5e}]", row[0], row[1], row[2])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_close(a.norm(), 14.0_f64.sqrt(), 1e-15);
        assert_eq!(a.norm_squared(), 14.0);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        let c = a.cross(b);
        assert_close(c.dot(a), 0.0, 1e-12);
        assert_close(c.dot(b), 0.0, 1e-12);
    }

    #[test]
    fn vec3_min_max_component() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 0.0));
        assert_eq!(a.component(0), 1.0);
        assert_eq!(a.component(2), -2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec3_component_out_of_range_panics() {
        let _ = Vec3::ZERO.component(3);
    }

    #[test]
    fn vec3_array_round_trip() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let arr: [f64; 3] = a.into();
        assert_eq!(Vec3::from(arr), a);
    }

    #[test]
    fn mat3_identity_times_vec() {
        let v = Vec3::new(3.0, -1.0, 0.5);
        assert_eq!(Mat3::identity().mul_vec(v), v);
    }

    #[test]
    fn mat3_mul_mat_matches_manual() {
        let a = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        let b = Mat3::new([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [2.0, 1.0, 0.0]]);
        let c = a.mul_mat(&b);
        // First row by hand: [1+0+6, 0+2+3, 2+2+0]
        assert_eq!(c.m[0], [7.0, 5.0, 4.0]);
    }

    #[test]
    fn mat3_inverse_round_trip() {
        let a = Mat3::new([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]);
        let inv = a.inverse().expect("invertible");
        let prod = a.mul_mat(&inv);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert_close(prod.m[r][c], expect, 1e-12);
            }
        }
    }

    #[test]
    fn mat3_singular_inverse_is_none() {
        let a = Mat3::new([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn mat3_det_and_trace() {
        let a = Mat3::diag(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(a.det(), 24.0);
        assert_eq!(a.trace(), 9.0);
    }

    #[test]
    fn mat3_outer_product() {
        let m = Mat3::outer(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.m[1][2], 12.0);
        assert_eq!(m.m[2][0], 12.0);
        assert_eq!(m.m[0][0], 4.0);
    }

    #[test]
    fn mat3_transpose_involution() {
        let a = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_vec_transposed_is_bitwise_transpose_apply() {
        // Column 0 sums to 0 left to right but not right to left, so the
        // comparison sees the order of the terms.
        let a = Mat3::new([[1.0, -2.7, 3.3], [1e-16, 5.5, -0.0], [-1.0, 4e-310, 9.9]]);
        let v = Vec3::new(1.0, 1.0, 1.0);
        let (got, want) = (a.mul_vec_transposed(v), a.transpose().mul_vec(v));
        assert_eq!(
            (got.x.to_bits(), got.y.to_bits(), got.z.to_bits()),
            (want.x.to_bits(), want.y.to_bits(), want.z.to_bits())
        );
    }

    #[test]
    fn symmetric_eigen_diagonal() {
        let a = Mat3::diag(Vec3::new(1.0, 5.0, 3.0));
        let (vals, vecs) = a.symmetric_eigen();
        assert_close(vals[0], 5.0, 1e-12);
        assert_close(vals[1], 3.0, 1e-12);
        assert_close(vals[2], 1.0, 1e-12);
        // Leading eigenvector should be ±e_y.
        assert_close(vecs[0].y.abs(), 1.0, 1e-10);
    }

    #[test]
    fn symmetric_eigen_reconstructs_matrix() {
        let a = Mat3::new([[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 2.0]]);
        let (vals, vecs) = a.symmetric_eigen();
        // Reconstruct A = Σ λ_k v_k v_kᵀ.
        let mut recon = Mat3::ZERO;
        for k in 0..3 {
            recon += Mat3::outer(vecs[k], vecs[k]) * vals[k];
        }
        for r in 0..3 {
            for c in 0..3 {
                assert_close(recon.m[r][c], a.m[r][c], 1e-9);
            }
        }
    }

    #[test]
    fn symmetric_eigen_vectors_orthonormal() {
        let a = Mat3::new([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]);
        let (_, vecs) = a.symmetric_eigen();
        for i in 0..3 {
            assert_close(vecs[i].norm(), 1.0, 1e-10);
            for j in (i + 1)..3 {
                assert_close(vecs[i].dot(vecs[j]), 0.0, 1e-10);
            }
        }
    }

    #[test]
    fn mat3_index_ops() {
        let mut a = Mat3::ZERO;
        a[(1, 2)] = 7.0;
        assert_eq!(a[(1, 2)], 7.0);
        assert_eq!(a[(2, 1)], 0.0);
    }

    #[test]
    fn mat3_is_symmetric() {
        assert!(Mat3::identity().is_symmetric(0.0));
        let a = Mat3::new([[1.0, 2.0, 0.0], [2.1, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(!a.is_symmetric(1e-3));
        assert!(a.is_symmetric(0.2));
    }
}
