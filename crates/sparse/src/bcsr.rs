//! Block CSR storage with 3×3 blocks, matching the Quake stiffness matrix.
//!
//! The paper describes `K` as a sparse `3n × 3n` matrix containing a 3×3
//! submatrix for every mesh edge (and self-edge): "K can be likened to an
//! adjacency matrix of the nodes of the mesh". Storing whole blocks halves
//! index overhead relative to scalar CSR and matches how Archimedes-generated
//! codes traverse the matrix.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::dense::{Mat3, Vec3};
use crate::error::SparseError;

/// A sparse matrix of 3×3 blocks in block-compressed-sparse-row format.
///
/// Block row `i` holds one [`Mat3`] per node `j` adjacent to node `i`
/// (including `j == i`). The scalar dimension is `3·n × 3·n` for `n` block
/// rows.
///
/// # Examples
///
/// ```
/// use quake_sparse::bcsr::Bcsr3Builder;
/// use quake_sparse::dense::{Mat3, Vec3};
/// let mut b = Bcsr3Builder::new(2);
/// b.add_block(0, 0, Mat3::identity());
/// b.add_block(1, 1, Mat3::identity() * 2.0);
/// let k = b.build();
/// let y = k.spmv_alloc(&[Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)])?;
/// assert_eq!(y[1], Vec3::new(0.0, 2.0, 0.0));
/// # Ok::<(), quake_sparse::error::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr3 {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    blocks: Vec<Mat3>,
}

impl Bcsr3 {
    /// Wraps raw storage whose rows the caller has already sorted by
    /// column, as [`Bcsr3Builder::build`] leaves them.
    pub(crate) fn from_sorted_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        blocks: Vec<Mat3>,
    ) -> Bcsr3 {
        debug_assert_eq!(col_idx.len(), blocks.len());
        debug_assert_eq!(row_ptr.last().copied(), Some(col_idx.len()));
        Bcsr3 {
            n: row_ptr.len() - 1,
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Number of block rows (mesh nodes).
    pub fn block_rows(&self) -> usize {
        self.n
    }

    /// Scalar dimension `3·n`.
    pub fn scalar_dim(&self) -> usize {
        3 * self.n
    }

    /// Number of stored 3×3 blocks.
    pub fn block_nnz(&self) -> usize {
        self.blocks.len()
    }

    /// Number of stored scalar entries (`9 ×` blocks).
    pub fn scalar_nnz(&self) -> usize {
        9 * self.blocks.len()
    }

    /// Flops performed by one blocked SMVP: `2 × 9 ×` blocks (a multiply and
    /// an add per stored scalar), the paper's `F = 2m`.
    pub fn smvp_flops(&self) -> u64 {
        2 * self.scalar_nnz() as u64
    }

    /// The block-row pointer array (`n + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The block column-index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored blocks, row-major by block row.
    pub fn blocks(&self) -> &[Mat3] {
        &self.blocks
    }

    /// The block at `(i, j)` or `None` if not stored.
    pub fn block(&self, i: usize, j: usize) -> Option<&Mat3> {
        if i >= self.n {
            return None;
        }
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .position(|&c| c == j)
            .map(|k| &self.blocks[lo + k])
    }

    /// Blocked SMVP `y = Kx` over per-node 3-vectors, into `y`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x` or `y` does not hold
    /// one [`Vec3`] per block row.
    pub fn spmv(&self, x: &[Vec3], y: &mut [Vec3]) -> Result<(), SparseError> {
        if x.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
                what: "x block vector",
            });
        }
        if y.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: y.len(),
                what: "y block vector",
            });
        }
        for i in 0..self.n {
            let mut acc = Vec3::ZERO;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.blocks[k].mul_vec(x[self.col_idx[k]]);
            }
            y[i] = acc;
        }
        Ok(())
    }

    /// Blocked SMVP returning a freshly allocated result.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len()` is not the
    /// number of block rows.
    pub fn spmv_alloc(&self, x: &[Vec3]) -> Result<Vec<Vec3>, SparseError> {
        let mut y = vec![Vec3::ZERO; self.n];
        self.spmv(x, &mut y)?;
        Ok(y)
    }

    /// Blocked SMVP over a flat scalar vector of length `3·n`
    /// (`x = [x0x, x0y, x0z, x1x, …]`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on length mismatch.
    pub fn spmv_flat(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != 3 * self.n {
            return Err(SparseError::DimensionMismatch {
                expected: 3 * self.n,
                found: x.len(),
                what: "flat x vector",
            });
        }
        if y.len() != 3 * self.n {
            return Err(SparseError::DimensionMismatch {
                expected: 3 * self.n,
                found: y.len(),
                what: "flat y vector",
            });
        }
        for i in 0..self.n {
            let mut acc = Vec3::ZERO;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let xv = Vec3::new(x[3 * j], x[3 * j + 1], x[3 * j + 2]);
                acc += self.blocks[k].mul_vec(xv);
            }
            y[3 * i] = acc.x;
            y[3 * i + 1] = acc.y;
            y[3 * i + 2] = acc.z;
        }
        Ok(())
    }

    /// Expands to a scalar CSR matrix of dimension `3n × 3n`.
    pub fn to_scalar_csr(&self) -> Csr {
        let mut coo = Coo::with_capacity(3 * self.n, 3 * self.n, self.scalar_nnz());
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let b = &self.blocks[k];
                for r in 0..3 {
                    for c in 0..3 {
                        coo.push(3 * i + r, 3 * j + c, b.m[r][c])
                            .expect("indices in range by construction");
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// True if the block structure and values are symmetric to within `tol`
    /// (i.e. block `(i, j)` equals the transpose of block `(j, i)`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                match self.block(j, i) {
                    None => return false,
                    Some(bj) => {
                        let bt = bj.transpose();
                        for r in 0..3 {
                            for c in 0..3 {
                                if (self.blocks[k].m[r][c] - bt.m[r][c]).abs() > tol {
                                    return false;
                                }
                            }
                        }
                    }
                }
            }
        }
        true
    }

    /// Extracts the block-adjacency structure as (row_ptr, col_idx) without
    /// values, used to derive per-node degree statistics (the paper's
    /// "average of 13 neighbors" ⇒ 42 nonzeros per scalar row).
    pub fn adjacency(&self) -> (&[usize], &[usize]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// Applies a symmetric block permutation `B = P A Pᵀ`, i.e.
    /// `B[perm[i], perm[j]] = A[i, j]` where `perm[old] = new`. Blocks are
    /// relabeled, not transposed. Used by RCM reordering of the executed
    /// SMVP path (the block analogue of [`Csr::permute_symmetric`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `perm.len()` is not the
    /// block-row count, or [`SparseError::MalformedStructure`] if `perm` is
    /// not a permutation.
    pub fn permute_symmetric(&self, perm: &[usize]) -> Result<Bcsr3, SparseError> {
        let inv = self.validated_inverse(perm)?;
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.block_nnz());
        let mut blocks = Vec::with_capacity(self.block_nnz());
        let mut scratch: Vec<(usize, Mat3)> = Vec::new();
        for new_r in 0..self.n {
            let old_r = inv[new_r];
            scratch.clear();
            for k in self.row_ptr[old_r]..self.row_ptr[old_r + 1] {
                scratch.push((perm[self.col_idx[k]], self.blocks[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, b) in &scratch {
                col_idx.push(c);
                blocks.push(b);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Bcsr3 {
            n: self.n,
            row_ptr,
            col_idx,
            blocks,
        })
    }

    /// Like [`Bcsr3::permute_symmetric`], but *order-preserving*: each
    /// relabeled row keeps its entries in the original traversal order
    /// instead of re-sorting them by the new column label. Because
    /// [`Bcsr3::spmv`] accumulates a row in storage order, re-sorting
    /// changes the floating-point summation order; this variant relabels
    /// without touching it, so `P A Pᵀ` multiplied against a permuted `x`
    /// is **bitwise**-identical to `A x` (modulo the row relabeling). The
    /// latency-hiding executor uses it for its boundary-first reordering,
    /// which must not perturb results relative to the barrier path.
    ///
    /// # Errors
    ///
    /// Same contract as [`Bcsr3::permute_symmetric`].
    pub fn permute_symmetric_stable(&self, perm: &[usize]) -> Result<Bcsr3, SparseError> {
        let inv = self.validated_inverse(perm)?;
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.block_nnz());
        let mut blocks = Vec::with_capacity(self.block_nnz());
        for new_r in 0..self.n {
            let old_r = inv[new_r];
            for k in self.row_ptr[old_r]..self.row_ptr[old_r + 1] {
                col_idx.push(perm[self.col_idx[k]]);
                blocks.push(self.blocks[k]);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Bcsr3 {
            n: self.n,
            row_ptr,
            col_idx,
            blocks,
        })
    }

    /// Validates `perm` (`perm[old] = new`) and returns its inverse.
    fn validated_inverse(&self, perm: &[usize]) -> Result<Vec<usize>, SparseError> {
        if perm.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: perm.len(),
                what: "permutation",
            });
        }
        let mut seen = vec![false; self.n];
        for &p in perm {
            if p >= self.n || seen[p] {
                return Err(SparseError::MalformedStructure("perm is not a permutation"));
            }
            seen[p] = true;
        }
        let mut inv = vec![0usize; self.n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new] = old;
        }
        Ok(inv)
    }

    /// A borrowed view of the contiguous block-row range `rows` — the unit
    /// the latency-hiding executor schedules (boundary rows first, then
    /// interior rows, each as one range).
    ///
    /// # Panics
    ///
    /// Panics if `rows` extends past the block-row count.
    pub fn row_range(&self, rows: std::ops::Range<usize>) -> Bcsr3Rows<'_> {
        assert!(
            rows.start <= rows.end && rows.end <= self.n,
            "row range {rows:?} out of bounds for {} block rows",
            self.n
        );
        Bcsr3Rows { matrix: self, rows }
    }

    /// Average block-row degree including the self block (the paper's
    /// "14 × 3 = 42 nonzeros per row" corresponds to degree 14).
    pub fn avg_block_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.block_nnz() as f64 / self.n as f64
        }
    }
}

/// A contiguous block-row slice of a [`Bcsr3`], created by
/// [`Bcsr3::row_range`].
///
/// The view multiplies its rows with the exact arithmetic of
/// [`Bcsr3::spmv`] (same per-row accumulation order), so covering the
/// matrix with disjoint ranges and multiplying each yields a result
/// bitwise-identical to one full `spmv` — the property the overlapped
/// executor's split schedule relies on.
#[derive(Debug, Clone)]
pub struct Bcsr3Rows<'a> {
    matrix: &'a Bcsr3,
    rows: std::ops::Range<usize>,
}

impl Bcsr3Rows<'_> {
    /// The block-row range this view covers.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.rows.clone()
    }

    /// Blocks stored in the covered rows.
    pub fn block_nnz(&self) -> usize {
        self.matrix.row_ptr[self.rows.end] - self.matrix.row_ptr[self.rows.start]
    }

    /// Flops one SMVP over this range executes (18 per traversed block).
    pub fn smvp_flops(&self) -> u64 {
        2 * 9 * self.block_nnz() as u64
    }

    /// SMVP restricted to the covered rows: writes `y[i]` for `i` in the
    /// range, leaves every other slot untouched. `x` and `y` span the full
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x` or `y` does not
    /// hold one [`Vec3`] per block row of the underlying matrix.
    pub fn spmv_into(&self, x: &[Vec3], y: &mut [Vec3]) -> Result<(), SparseError> {
        let m = self.matrix;
        if x.len() != m.n {
            return Err(SparseError::DimensionMismatch {
                expected: m.n,
                found: x.len(),
                what: "x block vector",
            });
        }
        if y.len() != m.n {
            return Err(SparseError::DimensionMismatch {
                expected: m.n,
                found: y.len(),
                what: "y block vector",
            });
        }
        for i in self.rows.clone() {
            let mut acc = Vec3::ZERO;
            for k in m.row_ptr[i]..m.row_ptr[i + 1] {
                acc += m.blocks[k].mul_vec(x[m.col_idx[k]]);
            }
            y[i] = acc;
        }
        Ok(())
    }
}

/// Incremental builder for [`Bcsr3`], summing duplicate block contributions
/// (finite-element assembly semantics).
#[derive(Debug, Clone)]
pub struct Bcsr3Builder {
    n: usize,
    // Per-row map from block column to accumulated block, kept sorted.
    rows: Vec<Vec<(usize, Mat3)>>,
}

impl Bcsr3Builder {
    /// Creates a builder for an `n × n` block matrix.
    pub fn new(n: usize) -> Self {
        Bcsr3Builder {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.n
    }

    /// Accumulates `K[i, j] += b`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn add_block(&mut self, i: usize, j: usize, b: Mat3) {
        assert!(
            i < self.n && j < self.n,
            "block ({i}, {j}) out of range for n = {}",
            self.n
        );
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&j, |&(c, _)| c) {
            Ok(pos) => row[pos].1 += b,
            Err(pos) => row.insert(pos, (j, b)),
        }
    }

    /// Finalizes into an immutable [`Bcsr3`].
    pub fn build(self) -> Bcsr3 {
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0usize);
        let total: usize = self.rows.iter().map(|r| r.len()).sum();
        let mut col_idx = Vec::with_capacity(total);
        let mut blocks = Vec::with_capacity(total);
        for row in &self.rows {
            for &(c, b) in row {
                col_idx.push(c);
                blocks.push(b);
            }
            row_ptr.push(col_idx.len());
        }
        Bcsr3 {
            n: self.n,
            row_ptr,
            col_idx,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Bcsr3 {
        let mut b = Bcsr3Builder::new(2);
        b.add_block(0, 0, Mat3::identity() * 2.0);
        b.add_block(0, 1, Mat3::identity());
        b.add_block(1, 0, Mat3::identity());
        b.add_block(1, 1, Mat3::identity() * 3.0);
        b.build()
    }

    #[test]
    fn builder_sums_duplicates() {
        let mut b = Bcsr3Builder::new(1);
        b.add_block(0, 0, Mat3::identity());
        b.add_block(0, 0, Mat3::identity() * 4.0);
        let m = b.build();
        assert_eq!(m.block_nnz(), 1);
        assert_eq!(m.block(0, 0).unwrap().m[2][2], 5.0);
    }

    #[test]
    fn dims_and_counts() {
        let m = two_node();
        assert_eq!(m.block_rows(), 2);
        assert_eq!(m.scalar_dim(), 6);
        assert_eq!(m.block_nnz(), 4);
        assert_eq!(m.scalar_nnz(), 36);
        assert_eq!(m.smvp_flops(), 72);
        assert_eq!(m.avg_block_degree(), 2.0);
    }

    #[test]
    fn spmv_matches_manual() {
        let m = two_node();
        let x = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)];
        let y = m.spmv_alloc(&x).unwrap();
        assert_eq!(y[0], Vec3::new(2.0, 1.0, 0.0));
        assert_eq!(y[1], Vec3::new(1.0, 3.0, 0.0));
    }

    #[test]
    fn spmv_flat_matches_block() {
        let m = two_node();
        let xb = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.5, 0.0)];
        let yb = m.spmv_alloc(&xb).unwrap();
        let xf = [1.0, 2.0, 3.0, -1.0, 0.5, 0.0];
        let mut yf = [0.0; 6];
        m.spmv_flat(&xf, &mut yf).unwrap();
        assert_eq!(yf[0..3], [yb[0].x, yb[0].y, yb[0].z]);
        assert_eq!(yf[3..6], [yb[1].x, yb[1].y, yb[1].z]);
    }

    #[test]
    fn scalar_csr_expansion_agrees() {
        let m = two_node();
        let s = m.to_scalar_csr();
        assert_eq!(s.rows(), 6);
        assert_eq!(s.nnz(), 36);
        let xf = [1.0, 2.0, 3.0, -1.0, 0.5, 0.0];
        let ys = s.spmv_alloc(&xf).unwrap();
        let mut yf = [0.0; 6];
        m.spmv_flat(&xf, &mut yf).unwrap();
        for (a, b) in ys.iter().zip(yf.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn symmetry_detection() {
        assert!(two_node().is_symmetric(0.0));
        let mut b = Bcsr3Builder::new(2);
        b.add_block(0, 1, Mat3::identity());
        // No (1, 0) block: structurally asymmetric.
        assert!(!b.build().is_symmetric(0.0));
    }

    #[test]
    fn asymmetric_values_detected() {
        let mut b = Bcsr3Builder::new(2);
        let mut m01 = Mat3::identity();
        m01.m[0][1] = 5.0;
        b.add_block(0, 1, m01);
        b.add_block(1, 0, Mat3::identity()); // not m01ᵀ
        b.add_block(0, 0, Mat3::identity());
        b.add_block(1, 1, Mat3::identity());
        assert!(!b.build().is_symmetric(1e-9));
    }

    #[test]
    fn spmv_dim_mismatch() {
        let m = two_node();
        assert!(m.spmv_alloc(&[Vec3::ZERO]).is_err());
        let mut y = vec![Vec3::ZERO; 3];
        assert!(m.spmv(&[Vec3::ZERO; 2], &mut y).is_err());
        let mut yf = vec![0.0; 5];
        assert!(m.spmv_flat(&[0.0; 6], &mut yf).is_err());
        assert!(m.spmv_flat(&[0.0; 4], &mut [0.0; 6]).is_err());
    }

    #[test]
    fn block_lookup() {
        let m = two_node();
        assert!(m.block(0, 1).is_some());
        assert!(m.block(5, 0).is_none());
        let mut b = Bcsr3Builder::new(2);
        b.add_block(0, 0, Mat3::identity());
        assert!(b.build().block(0, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = Bcsr3Builder::new(1);
        b.add_block(0, 1, Mat3::identity());
    }

    #[test]
    fn permute_symmetric_relabels_blocks() {
        let m = two_node();
        // Swap the two block rows/cols.
        let pm = m.permute_symmetric(&[1, 0]).unwrap();
        assert_eq!(pm.block(0, 0), m.block(1, 1));
        assert_eq!(pm.block(1, 1), m.block(0, 0));
        assert_eq!(pm.block(0, 1), m.block(1, 0));
        // SMVP commutes with the permutation: (PAPᵀ)(Px) = P(Ax).
        let x = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.5, 0.25)];
        let y = m.spmv_alloc(&x).unwrap();
        let px = [x[1], x[0]];
        let py = pm.spmv_alloc(&px).unwrap();
        assert_eq!(py[0], y[1]);
        assert_eq!(py[1], y[0]);
    }

    #[test]
    fn permute_symmetric_identity_is_noop() {
        let m = two_node();
        assert_eq!(m.permute_symmetric(&[0, 1]).unwrap(), m);
    }

    #[test]
    fn permute_symmetric_rejects_bad_perms() {
        let m = two_node();
        assert!(m.permute_symmetric(&[0]).is_err());
        assert!(m.permute_symmetric(&[0, 0]).is_err());
        assert!(m.permute_symmetric(&[0, 2]).is_err());
    }

    /// A ring of `n` nodes with deliberately non-commutative block values,
    /// so any change in summation order shows up in the low bits.
    fn ring(n: usize) -> Bcsr3 {
        let mut b = Bcsr3Builder::new(n);
        for i in 0..n {
            let f = |s: usize| 0.1 + (s as f64) * 0.7 + (s as f64).sin();
            b.add_block(
                i,
                i,
                Mat3::identity() * f(i) + Mat3::outer(Vec3::splat(0.3), Vec3::new(f(i), 1.0, -0.5)),
            );
            let j = (i + 1) % n;
            if i != j {
                b.add_block(
                    i,
                    j,
                    Mat3::outer(Vec3::new(f(i), -1.0, 2.0), Vec3::splat(f(j))),
                );
                b.add_block(
                    j,
                    i,
                    Mat3::outer(Vec3::splat(f(j)), Vec3::new(f(i), -1.0, 2.0)),
                );
            }
        }
        b.build()
    }

    fn assert_bits_eq(a: &[Vec3], b: &[Vec3], what: &str) {
        for (i, (u, v)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                (u.x.to_bits(), u.y.to_bits(), u.z.to_bits()),
                (v.x.to_bits(), v.y.to_bits(), v.z.to_bits()),
                "{what}: row {i} differs"
            );
        }
    }

    #[test]
    fn stable_permutation_is_bitwise_transparent() {
        let n = 9;
        let m = ring(n);
        // A rotation mixes every row's column order when sorted.
        let perm: Vec<usize> = (0..n).map(|i| (i + 4) % n).collect();
        let pm = m.permute_symmetric_stable(&perm).unwrap();
        let x: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(1.0 + i as f64, (i as f64).cos(), 0.25 * i as f64))
            .collect();
        let y = m.spmv_alloc(&x).unwrap();
        let mut px = vec![Vec3::ZERO; n];
        let mut expect = vec![Vec3::ZERO; n];
        for i in 0..n {
            px[perm[i]] = x[i];
            expect[perm[i]] = y[i];
        }
        let py = pm.spmv_alloc(&px).unwrap();
        // Order preservation makes the relabeled product *bitwise* equal,
        // not merely within rounding — the overlapped executor's contract.
        assert_bits_eq(&py, &expect, "stable permutation");
    }

    #[test]
    fn stable_permutation_matches_sorted_logically() {
        let n = 7;
        let m = ring(n);
        let perm: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let sorted = m.permute_symmetric(&perm).unwrap();
        let stable = m.permute_symmetric_stable(&perm).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(sorted.block(i, j), stable.block(i, j), "({i},{j})");
            }
        }
        assert_eq!(sorted.block_nnz(), stable.block_nnz());
    }

    #[test]
    fn row_range_views_cover_full_spmv_bitwise() {
        let n = 8;
        let m = ring(n);
        let x: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i as f64).sin(), 1.0 - i as f64, 0.5))
            .collect();
        let full = m.spmv_alloc(&x).unwrap();
        for split in [0, 1, 3, n] {
            let mut y = vec![Vec3::ZERO; n];
            let lo = m.row_range(0..split);
            let hi = m.row_range(split..n);
            assert_eq!(lo.block_nnz() + hi.block_nnz(), m.block_nnz());
            assert_eq!(lo.smvp_flops() + hi.smvp_flops(), m.smvp_flops());
            lo.spmv_into(&x, &mut y).unwrap();
            hi.spmv_into(&x, &mut y).unwrap();
            assert_bits_eq(&y, &full, &format!("split {split}"));
        }
        // A single-row view writes exactly its row.
        let mut y = vec![Vec3::splat(f64::NAN); n];
        m.row_range(2..3).spmv_into(&x, &mut y).unwrap();
        assert_eq!(y[2], full[2]);
        assert!(y[1].x.is_nan() && y[3].x.is_nan(), "other rows untouched");
        // An empty view is a no-op.
        m.row_range(5..5).spmv_into(&x, &mut y).unwrap();
        assert!(y[5].x.is_nan());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_rejects_out_of_bounds() {
        let _ = two_node().row_range(0..3);
    }
}
