//! Symmetric sparse storage: diagonal plus strict upper triangle.
//!
//! The Quake stiffness matrix is symmetric, and the Spark98 kernels exploit
//! this by storing each off-diagonal entry once and applying it to both `y_i`
//! (as `K_ij·x_j`) and `y_j` (as `K_ij·x_i`). This halves memory traffic at
//! the cost of a scattered write — a tradeoff the memory-system simulator
//! can quantify.
//!
//! [`SymCsr`] does this for scalar entries; [`SymBcsr3`] does it for the
//! 3×3 blocks of [`Bcsr3`], keeping each block row's diagonal and upper
//! blocks and applying every off-diagonal block a second time transposed.

use crate::bcsr::Bcsr3;
use crate::csr::Csr;
use crate::dense::{Mat3, Vec3};
use crate::error::SparseError;

/// A symmetric sparse matrix storing the diagonal and strict upper triangle.
///
/// # Examples
///
/// ```
/// use quake_sparse::coo::Coo;
/// use quake_sparse::sym::SymCsr;
/// let mut a = Coo::new(2, 2);
/// a.push(0, 0, 2.0)?;
/// a.push(0, 1, 1.0)?;
/// a.push(1, 0, 1.0)?;
/// a.push(1, 1, 3.0)?;
/// let s = SymCsr::from_csr(&a.to_csr(), 1e-12)?;
/// assert_eq!(s.spmv_alloc(&[1.0, 1.0])?, vec![3.0, 4.0]);
/// # Ok::<(), quake_sparse::error::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymCsr {
    n: usize,
    diag: Vec<f64>,
    // Strict upper triangle in CSR by row.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SymCsr {
    /// Builds symmetric storage from a full CSR matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSymmetric`] if the matrix is not symmetric
    /// to within absolute tolerance `tol`, or
    /// [`SparseError::DimensionMismatch`] if it is not square.
    pub fn from_csr(full: &Csr, tol: f64) -> Result<Self, SparseError> {
        if full.rows() != full.cols() {
            return Err(SparseError::DimensionMismatch {
                expected: full.rows(),
                found: full.cols(),
                what: "square matrix",
            });
        }
        if !full.is_symmetric(tol) {
            return Err(SparseError::NotSymmetric);
        }
        let n = full.rows();
        let mut diag = vec![0.0; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for (c, v) in full.row(r).pairs() {
                if c == r {
                    diag[r] = v;
                } else if c > r {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(SymCsr {
            n,
            diag,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of *stored* entries: diagonal plus strict upper triangle.
    pub fn stored_nnz(&self) -> usize {
        self.n + self.col_idx.len()
    }

    /// Number of *logical* entries of the full matrix
    /// (assuming a fully populated diagonal).
    pub fn logical_nnz(&self) -> usize {
        self.n + 2 * self.col_idx.len()
    }

    /// Symmetric SMVP `y = Ax`: each stored off-diagonal entry updates both
    /// `y[r]` and `y[c]`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on length mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
                what: "x vector",
            });
        }
        if y.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: y.len(),
                what: "y vector",
            });
        }
        for r in 0..self.n {
            y[r] = self.diag[r] * x[r];
        }
        for r in 0..self.n {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let v = self.values[k];
                acc += v * x[c];
                y[c] += v * x[r];
            }
            y[r] += acc;
        }
        Ok(())
    }

    /// Symmetric SMVP returning a freshly allocated `y`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn spmv_alloc(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        let mut y = vec![0.0; self.n];
        self.spmv(x, &mut y)?;
        Ok(y)
    }

    /// Expands back to full CSR storage.
    pub fn to_full_csr(&self) -> Csr {
        let mut coo = crate::coo::Coo::with_capacity(self.n, self.n, self.logical_nnz());
        for r in 0..self.n {
            coo.push(r, r, self.diag[r]).expect("in range");
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let v = self.values[k];
                coo.push(r, c, v).expect("in range");
                coo.push(c, r, v).expect("in range");
            }
        }
        coo.to_csr()
    }

    /// The diagonal entries.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Borrowed views of the raw storage arrays, for kernels that traverse
    /// the structure directly (e.g. the threaded Spark98-style kernels).
    pub fn parts(&self) -> SymParts<'_> {
        SymParts {
            diag: &self.diag,
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
            values: &self.values,
        }
    }
}

/// Borrowed views of a [`SymCsr`]'s storage: the diagonal plus the strict
/// upper triangle in CSR form.
#[derive(Debug, Clone, Copy)]
pub struct SymParts<'a> {
    /// Diagonal entries (length `dim`).
    pub diag: &'a [f64],
    /// Upper-triangle row pointers (length `dim + 1`).
    pub row_ptr: &'a [usize],
    /// Upper-triangle column indices.
    pub col_idx: &'a [usize],
    /// Upper-triangle values.
    pub values: &'a [f64],
}

/// Bytes of one 3×3 block of `f64`s.
const BLOCK_BYTES: usize = 72;

/// Bytes one product moves besides the matrix: `x` read once and `y`
/// written once, 24 bytes per block row each.
fn vector_bytes(n: usize) -> usize {
    2 * 24 * n
}

/// A symmetric 3×3-block matrix that stores, for each block row `i`, only
/// the blocks with column `j ≥ i`: the diagonal block first when it is
/// present, then the upper blocks in ascending column order.
///
/// Built from a full [`Bcsr3`] whose off-diagonal blocks are *bitwise*
/// transposes of their partners, its product is bitwise-equal to
/// [`Bcsr3::spmv`] on that matrix (see [`SymBcsr3::spmv`]) while streaming
/// about half the bytes.
///
/// # Examples
///
/// ```
/// use quake_sparse::bcsr::Bcsr3Builder;
/// use quake_sparse::dense::{Mat3, Vec3};
/// use quake_sparse::sym::SymBcsr3;
/// let off = Mat3::new([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
/// let mut b = Bcsr3Builder::new(2);
/// b.add_block(0, 0, Mat3::identity() * 4.0);
/// b.add_block(0, 1, off);
/// b.add_block(1, 0, off.transpose());
/// b.add_block(1, 1, Mat3::identity() * 4.0);
/// let full = b.build();
/// let sym = SymBcsr3::from_full(&full)?;
/// assert_eq!(sym.stored_blocks(), 3);
/// let x = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.5, 2.0)];
/// assert_eq!(sym.spmv_alloc(&x)?, full.spmv_alloc(&x)?);
/// # Ok::<(), quake_sparse::error::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymBcsr3 {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    blocks: Vec<Mat3>,
}

impl SymBcsr3 {
    /// Keeps the diagonal and upper blocks of `full`.
    ///
    /// One pass over the matrix checks the symmetry, with one cursor per
    /// row: walking the rows in ascending order, each upper block `(i, j)`
    /// must meet row `j`'s next lower block, which must sit in column `i`
    /// and be the bitwise transpose of block `(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSymmetric`] if some off-diagonal block has
    /// no partner or is not the bitwise transpose of its partner, and
    /// [`SparseError::MalformedStructure`] if a row's columns are not
    /// strictly ascending or the matrix has 2³² or more block rows (the
    /// `u32` column indices could not name them).
    pub fn from_full(full: &Bcsr3) -> Result<Self, SparseError> {
        let n = full.block_rows();
        if u32::try_from(n).is_err() {
            return Err(SparseError::MalformedStructure(
                "2^32 or more block rows overflow u32 column indices",
            ));
        }
        let (row_ptr, col_idx) = full.adjacency();
        let blocks = full.blocks();
        for i in 0..n {
            if col_idx[row_ptr[i]..row_ptr[i + 1]]
                .windows(2)
                .any(|w| w[0] >= w[1])
            {
                return Err(SparseError::MalformedStructure(
                    "block row columns are not strictly ascending",
                ));
            }
        }
        // cursor[j]: row j's next lower block, still waiting for its partner.
        let mut cursor = row_ptr[..n].to_vec();
        let mut sym_ptr = Vec::with_capacity(n + 1);
        sym_ptr.push(0usize);
        // Exact for a symmetric matrix with a full diagonal.
        let stored = (row_ptr[n] + n) / 2;
        let mut sym_cols = Vec::with_capacity(stored);
        let mut sym_blocks = Vec::with_capacity(stored);
        for i in 0..n {
            let (first, end) = (cursor[i], row_ptr[i + 1]);
            // Rows before i have met all of row i's lower blocks by now.
            if first < end && col_idx[first] < i {
                return Err(SparseError::NotSymmetric);
            }
            for k in first..end {
                let j = col_idx[k];
                if j != i {
                    let c = cursor[j];
                    if c == row_ptr[j + 1]
                        || col_idx[c] != i
                        || !is_bitwise_transpose(&blocks[k], &blocks[c])
                    {
                        return Err(SparseError::NotSymmetric);
                    }
                    cursor[j] += 1;
                }
                sym_cols.push(j as u32);
                sym_blocks.push(blocks[k]);
            }
            sym_ptr.push(sym_cols.len());
        }
        Ok(SymBcsr3 {
            n,
            row_ptr: sym_ptr,
            col_idx: sym_cols,
            blocks: sym_blocks,
        })
    }

    /// Number of block rows (mesh nodes).
    pub fn block_rows(&self) -> usize {
        self.n
    }

    /// Number of stored blocks: the diagonal and upper blocks.
    pub fn stored_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of blocks of the full matrix: every stored off-diagonal
    /// block counts twice.
    pub fn full_block_nnz(&self) -> usize {
        let diagonal = (0..self.n)
            .filter(|&i| {
                let lo = self.row_ptr[i];
                lo < self.row_ptr[i + 1] && self.col_idx[lo] as usize == i
            })
            .count();
        2 * self.blocks.len() - diagonal
    }

    /// Bytes of the stored matrix: 72-byte blocks, `u32` column indices
    /// and `usize` row pointers.
    pub fn stored_bytes(&self) -> usize {
        self.blocks.len() * (BLOCK_BYTES + 4) + self.row_ptr.len() * 8
    }

    /// Bytes the same matrix takes in full [`Bcsr3`] storage: every block,
    /// `usize` column indices and `usize` row pointers.
    pub fn full_stored_bytes(&self) -> usize {
        self.full_block_nnz() * (BLOCK_BYTES + 8) + self.row_ptr.len() * 8
    }

    /// Bytes one [`SymBcsr3::spmv`] streams: the stored matrix once, plus
    /// `x` read and `y` written once each.
    pub fn product_bytes(&self) -> usize {
        self.stored_bytes() + vector_bytes(self.n)
    }

    /// Bytes one [`Bcsr3::spmv`] over the full storage streams, counted
    /// the same way as [`SymBcsr3::product_bytes`].
    pub fn full_product_bytes(&self) -> usize {
        self.full_stored_bytes() + vector_bytes(self.n)
    }

    /// Symmetric blocked SMVP `y = Kx`.
    ///
    /// Zeroes `y`, then walks the rows in ascending order. Row `i` starts
    /// from `y[i]`, adds `B·x[j]` for each stored block `B = K_ij`, and for
    /// `j ≠ i` also adds `Bᵀ·x[i]` to `y[j]`. Each `y[i]` therefore
    /// receives its terms in ascending column order — the lower ones from
    /// earlier rows, then its own — which is the order [`Bcsr3::spmv`]
    /// sums a sorted row in. With `K_ji` the bitwise transpose of `K_ij`,
    /// the result is bitwise-equal to the full-storage product.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x` or `y` does not
    /// hold one [`Vec3`] per block row.
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
        y.fill(Vec3::ZERO);
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let xi = x[i];
            let mut acc = y[i];
            for k in lo..hi {
                if let Some(&ahead) = self.col_idx.get(k + PREFETCH_AHEAD) {
                    prefetch(x, ahead as usize);
                    prefetch(y, ahead as usize);
                }
                // SAFETY: `k < hi ≤ blocks.len() = col_idx.len()`. Every
                // column `from_full` stores is below `n` (it is the row's
                // own index or has indexed `cursor`), and `x` and `y` were
                // checked above to hold `n` entries.
                unsafe {
                    let j = *self.col_idx.get_unchecked(k) as usize;
                    let b = self.blocks.get_unchecked(k);
                    acc += b.mul_vec(*x.get_unchecked(j));
                    if j != i {
                        *y.get_unchecked_mut(j) += b.mul_vec_transposed(xi);
                    }
                }
            }
            y[i] = acc;
        }
        Ok(())
    }

    /// Symmetric blocked SMVP returning a freshly allocated result.
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

    /// Rebuilds the full storage exactly: each off-diagonal block comes
    /// back as itself in row `i` and transposed in row `j`, with every row
    /// sorted by column, so `to_full` inverts [`SymBcsr3::from_full`].
    pub fn to_full(&self) -> Bcsr3 {
        let n = self.n;
        let mut len: Vec<usize> = (0..n)
            .map(|i| self.row_ptr[i + 1] - self.row_ptr[i])
            .collect();
        for i in 0..n {
            for &j in &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]] {
                if j as usize != i {
                    len[j as usize] += 1;
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        row_ptr.push(total);
        for l in len {
            total += l;
            row_ptr.push(total);
        }
        let mut col_idx = vec![0usize; total];
        let mut blocks = vec![Mat3::ZERO; total];
        // next[r]: row r's next free slot. Row i's lower blocks all come
        // from rows before i, so they are in place, in ascending column
        // order, by the time row i appends its own.
        let mut next = row_ptr[..n].to_vec();
        for i in 0..n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                col_idx[next[i]] = j;
                blocks[next[i]] = self.blocks[k];
                next[i] += 1;
                if j != i {
                    col_idx[next[j]] = i;
                    blocks[next[j]] = self.blocks[k].transpose();
                    next[j] += 1;
                }
            }
        }
        Bcsr3::from_sorted_parts(row_ptr, col_idx, blocks)
    }
}

/// How many stored blocks ahead [`SymBcsr3::spmv`] prefetches the `x`
/// and `y` entries it will touch: about two block rows. The rows' upper
/// columns reach far (on sf5 one in ten lies over 15,000 rows ahead), so
/// those entries are often out of the near caches.
const PREFETCH_AHEAD: usize = 16;

/// Hints the cache line holding `v[j]` into L1. A prefetch never faults,
/// so any index is sound; it only costs time when it is a wrong guess.
#[inline(always)]
fn prefetch(v: &[Vec3], j: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: prefetching reads nothing and cannot fault.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(v.as_ptr().wrapping_add(j).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (v, j);
}

/// True if `b` is `a` transposed, compared bit for bit.
fn is_bitwise_transpose(a: &Mat3, b: &Mat3) -> bool {
    (0..3).all(|r| (0..3).all(|c| a.m[r][c].to_bits() == b.m[c][r].to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcsr::Bcsr3Builder;
    use crate::coo::Coo;

    fn sym3() -> Csr {
        // [ 2 1 0 ]
        // [ 1 3 4 ]
        // [ 0 4 6 ]
        let mut a = Coo::new(3, 3);
        for &(r, c, v) in &[
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 4.0),
            (2, 1, 4.0),
            (2, 2, 6.0),
        ] {
            a.push(r, c, v).unwrap();
        }
        a.to_csr()
    }

    #[test]
    fn storage_counts() {
        let s = SymCsr::from_csr(&sym3(), 0.0).unwrap();
        assert_eq!(s.dim(), 3);
        assert_eq!(s.stored_nnz(), 5); // 3 diag + 2 upper
        assert_eq!(s.logical_nnz(), 7);
    }

    #[test]
    fn spmv_matches_full() {
        let full = sym3();
        let s = SymCsr::from_csr(&full, 0.0).unwrap();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(s.spmv_alloc(&x).unwrap(), full.spmv_alloc(&x).unwrap());
    }

    #[test]
    fn rejects_asymmetric() {
        let mut a = Coo::new(2, 2);
        a.push(0, 1, 1.0).unwrap();
        assert_eq!(
            SymCsr::from_csr(&a.to_csr(), 1e-12),
            Err(SparseError::NotSymmetric)
        );
    }

    #[test]
    fn rejects_non_square() {
        let a = Coo::new(2, 3).to_csr();
        assert!(matches!(
            SymCsr::from_csr(&a, 0.0),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn round_trip_to_full() {
        let full = sym3();
        let s = SymCsr::from_csr(&full, 0.0).unwrap();
        let back = s.to_full_csr();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(back.get(r, c), full.get(r, c));
            }
        }
    }

    #[test]
    fn diag_accessor() {
        let s = SymCsr::from_csr(&sym3(), 0.0).unwrap();
        assert_eq!(s.diag(), &[2.0, 3.0, 6.0]);
    }

    #[test]
    fn spmv_dim_mismatch() {
        let s = SymCsr::from_csr(&sym3(), 0.0).unwrap();
        assert!(s.spmv_alloc(&[1.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(s.spmv(&[1.0, 2.0, 3.0], &mut y).is_err());
    }

    #[test]
    fn missing_diagonal_treated_as_zero() {
        let mut a = Coo::new(2, 2);
        a.push(0, 1, 1.0).unwrap();
        a.push(1, 0, 1.0).unwrap();
        let s = SymCsr::from_csr(&a.to_csr(), 0.0).unwrap();
        assert_eq!(s.diag(), &[0.0, 0.0]);
        assert_eq!(s.spmv_alloc(&[3.0, 5.0]).unwrap(), vec![5.0, 3.0]);
    }

    /// A deterministic pseudo-random value in `[-1, 1)`.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn random_block(state: &mut u64) -> Mat3 {
        let mut m = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                m.m[r][c] = lcg(state) * 10f64.powi((lcg(state) * 6.0) as i32);
            }
        }
        m
    }

    /// An `n`-row block matrix whose off-diagonal blocks are exact
    /// transposes of their partners. Rows listed in `no_diag` get no
    /// diagonal block, and about a third of the pairs are left out.
    fn random_symmetric(n: usize, no_diag: &[usize], seed: u64) -> Bcsr3 {
        let mut state = seed;
        let mut b = Bcsr3Builder::new(n);
        for i in 0..n {
            if !no_diag.contains(&i) {
                b.add_block(i, i, random_block(&mut state));
            }
            for j in i + 1..n {
                if lcg(&mut state) < 0.33 {
                    let k = random_block(&mut state);
                    b.add_block(i, j, k);
                    b.add_block(j, i, k.transpose());
                }
            }
        }
        b.build()
    }

    fn random_x(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed;
        (0..n)
            .map(|_| Vec3::new(lcg(&mut state), lcg(&mut state), lcg(&mut state)))
            .collect()
    }

    fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter()
            .map(|u| [u.x.to_bits(), u.y.to_bits(), u.z.to_bits()])
            .collect()
    }

    #[test]
    fn block_spmv_is_bitwise_equal_to_full() {
        for seed in 1..20u64 {
            let n = 1 + (seed as usize * 7) % 13;
            let full = random_symmetric(n, &[n / 2], seed);
            let sym = SymBcsr3::from_full(&full).unwrap();
            let x = random_x(n, seed ^ 0xabc);
            let want = full.spmv_alloc(&x).unwrap();
            // A stale y must not leak into the product.
            let mut y = vec![Vec3::splat(f64::NAN); n];
            sym.spmv(&x, &mut y).unwrap();
            assert_eq!(bits(&y), bits(&want), "seed {seed}");
        }
    }

    #[test]
    fn block_row_without_diagonal_matches_bitwise() {
        let off = Mat3::new([[1.0, 2.0, 3.0], [0.5, 4.0, 0.25], [2.0, 1.0, 8.0]]);
        let mut b = Bcsr3Builder::new(3);
        b.add_block(0, 1, off);
        b.add_block(1, 0, off.transpose());
        b.add_block(1, 1, Mat3::identity());
        b.add_block(1, 2, off * -1.0);
        b.add_block(2, 1, off.transpose() * -1.0);
        // Row 2 has no diagonal block either.
        let full = b.build();
        let sym = SymBcsr3::from_full(&full).unwrap();
        assert_eq!(sym.stored_blocks(), 3);
        assert_eq!(sym.full_block_nnz(), full.block_nnz());
        // Row 0 sees only −0.0 terms (positive blocks times −0.0), and
        // x[0] is infinite: a zero block padded into the missing diagonal
        // would turn row 0 into 0·∞ = NaN.
        let x = [
            Vec3::splat(f64::INFINITY),
            Vec3::splat(-0.0),
            Vec3::new(1.0, -2.0, 0.5),
        ];
        let want = full.spmv_alloc(&x).unwrap();
        let got = sym.spmv_alloc(&x).unwrap();
        assert_eq!(bits(&got), bits(&want));
        // Both kernels sum row 0 from +0.0, so its −0.0 terms give +0.0.
        assert_eq!(got[0].x.to_bits(), 0.0f64.to_bits());
        // And with every x at −0.0 each row is a sum of −0.0 terms only.
        let x = [Vec3::splat(-0.0); 3];
        let want = full.spmv_alloc(&x).unwrap();
        assert_eq!(bits(&sym.spmv_alloc(&x).unwrap()), bits(&want));
    }

    #[test]
    fn block_from_full_rejects_one_ulp_asymmetry() {
        let full = random_symmetric(6, &[], 7);
        assert!(SymBcsr3::from_full(&full).is_ok());
        let (row_ptr, col_idx) = full.adjacency();
        let (i, k) = (0..6)
            .flat_map(|i| (row_ptr[i]..row_ptr[i + 1]).map(move |k| (i, k)))
            .find(|&(i, k)| col_idx[k] != i)
            .expect("an off-diagonal block");
        let mut b = Bcsr3Builder::new(6);
        for r in 0..6 {
            for kk in row_ptr[r]..row_ptr[r + 1] {
                let mut m = full.blocks()[kk];
                if (r, kk) == (i, k) {
                    m.m[1][2] = f64::from_bits(m.m[1][2].to_bits() + 1);
                }
                b.add_block(r, col_idx[kk], m);
            }
        }
        assert_eq!(
            SymBcsr3::from_full(&b.build()),
            Err(SparseError::NotSymmetric)
        );
    }

    #[test]
    fn block_from_full_rejects_unpartnered_blocks() {
        // (0, 1) with no (1, 0).
        let mut b = Bcsr3Builder::new(2);
        b.add_block(0, 0, Mat3::identity());
        b.add_block(0, 1, Mat3::identity());
        b.add_block(1, 1, Mat3::identity());
        assert_eq!(
            SymBcsr3::from_full(&b.build()),
            Err(SparseError::NotSymmetric)
        );
        // (2, 0) with no (0, 2), behind a matched pair.
        let mut b = Bcsr3Builder::new(3);
        b.add_block(0, 1, Mat3::identity());
        b.add_block(1, 0, Mat3::identity());
        b.add_block(2, 0, Mat3::identity());
        assert_eq!(
            SymBcsr3::from_full(&b.build()),
            Err(SparseError::NotSymmetric)
        );
        // A transposed partner in the wrong column.
        let mut b = Bcsr3Builder::new(3);
        b.add_block(0, 1, Mat3::identity());
        b.add_block(2, 0, Mat3::identity());
        assert_eq!(
            SymBcsr3::from_full(&b.build()),
            Err(SparseError::NotSymmetric)
        );
    }

    #[test]
    fn block_from_full_rejects_unsorted_rows() {
        let full = random_symmetric(5, &[], 3);
        let unsorted = full.permute_symmetric_stable(&[4, 3, 2, 1, 0]).unwrap();
        assert!(matches!(
            SymBcsr3::from_full(&unsorted),
            Err(SparseError::MalformedStructure(_))
        ));
    }

    #[test]
    fn block_spmv_rejects_mismatched_dimensions() {
        let sym = SymBcsr3::from_full(&random_symmetric(4, &[], 5)).unwrap();
        assert!(matches!(
            sym.spmv_alloc(&[Vec3::ZERO; 3]),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut y = vec![Vec3::ZERO; 5];
        assert!(matches!(
            sym.spmv(&[Vec3::ZERO; 4], &mut y),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn block_to_full_round_trips_exactly() {
        for seed in 1..12u64 {
            let n = (seed as usize * 5) % 11;
            let full = random_symmetric(n, &[0, n / 3], seed);
            let sym = SymBcsr3::from_full(&full).unwrap();
            assert_eq!(sym.block_rows(), n);
            let back = sym.to_full();
            assert_eq!(back.adjacency(), full.adjacency(), "seed {seed}");
            let bits = |m: &Bcsr3| -> Vec<u64> {
                m.blocks()
                    .iter()
                    .flat_map(|b| b.m.iter().flatten().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&back), bits(&full), "seed {seed}");
        }
    }

    #[test]
    fn block_storage_counts() {
        let mut b = Bcsr3Builder::new(3);
        b.add_block(0, 0, Mat3::identity());
        b.add_block(0, 2, Mat3::identity());
        b.add_block(2, 0, Mat3::identity());
        b.add_block(1, 1, Mat3::identity());
        let full = b.build();
        let sym = SymBcsr3::from_full(&full).unwrap();
        assert_eq!(sym.stored_blocks(), 3);
        assert_eq!(sym.full_block_nnz(), 4);
        assert_eq!(sym.stored_bytes(), 3 * 76 + 4 * 8);
        assert_eq!(sym.full_stored_bytes(), 4 * 80 + 4 * 8);
        assert_eq!(sym.product_bytes(), sym.stored_bytes() + 2 * 24 * 3);
        assert_eq!(
            sym.full_product_bytes(),
            sym.full_stored_bytes() + 2 * 24 * 3
        );
    }
}
