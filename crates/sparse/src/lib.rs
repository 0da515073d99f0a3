//! Sparse-matrix substrate for the Quake SMVP reproduction.
//!
//! This crate provides the matrix formats and kernels that dominate the
//! running time of the Quake family of unstructured finite-element
//! applications (O'Hallaron, Shewchuk & Gross, HPCA 1998):
//!
//! * [`coo::Coo`] — triplet staging for finite-element assembly;
//! * [`csr::Csr`] — scalar compressed sparse rows with the SMVP kernel;
//! * [`bcsr::Bcsr3`] — 3×3-block CSR matching the `3n × 3n` stiffness
//!   matrix (three degrees of freedom per mesh node);
//! * [`sym::SymCsr`] — symmetric (upper-triangle) storage as used by the
//!   Spark98 kernels, and [`sym::SymBcsr3`], its 3×3-block counterpart
//!   that the serial time loop runs on;
//! * [`pattern::Pattern`] — symbolic node-adjacency structure;
//! * [`reorder`] — reverse Cuthill–McKee bandwidth reduction;
//! * [`tiles`] — SIMD-friendly flat tile layout and row-band cache
//!   blocking over [`bcsr::Bcsr3`];
//! * [`dense`] — `Vec3`/`Mat3` micro-kernels.
//!
//! # Examples
//!
//! Assemble a tiny matrix and run the paper's central kernel:
//!
//! ```
//! use quake_sparse::coo::Coo;
//! let mut k = Coo::new(3, 3);
//! k.push(0, 0, 4.0)?;
//! k.push(1, 1, 4.0)?;
//! k.push(2, 2, 4.0)?;
//! k.push(0, 1, -1.0)?;
//! k.push(1, 0, -1.0)?;
//! let k = k.to_csr();
//! let y = k.spmv_alloc(&[1.0, 1.0, 1.0])?;
//! assert_eq!(y, vec![3.0, 3.0, 4.0]);
//! # Ok::<(), quake_sparse::error::SparseError>(())
//! ```

// Indexed loops over parallel arrays are the clearest form for the numeric
// kernels in this crate; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod pattern;
pub mod reorder;
pub mod sym;
pub mod tiles;

pub use bcsr::{Bcsr3, Bcsr3Builder};
pub use coo::Coo;
pub use csr::Csr;
pub use dense::{Mat3, Vec3};
pub use error::SparseError;
pub use pattern::Pattern;
pub use sym::{SymBcsr3, SymCsr};
pub use tiles::{Band, BandPlan, Bcsr3Tiles};
