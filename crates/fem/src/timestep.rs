//! Explicit central-difference time stepping.
//!
//! The Quake applications run 6000 explicit time steps, each dominated by
//! one SMVP `y = Kx` — the only parallel operation besides I/O. The update
//! is the standard central difference with a lumped (diagonal) mass matrix:
//!
//! `u⁺ = 2u − u⁻ + Δt²·M⁻¹·(f − K·u)`
//!
//! The SMVP is memory-bound, and `K` is symmetric, so the serial step runs
//! on [`SymBcsr3`]: each block row keeps only its diagonal and upper blocks
//! and applies every off-diagonal block a second time transposed. That
//! streams about half the bytes of full [`Bcsr3`] storage (82 MB against
//! 155 MB per product on sf5 at scale 3) and, because assembly makes
//! `K_ji` the bitwise transpose of `K_ij`, produces bitwise the same `K·u`.
//! The pooled path ([`Simulation::set_parallel`]) runs the row-parallel
//! kernel over full storage, rebuilt exactly from the symmetric one while
//! the pool lives.

use crate::assembly::AssembledSystem;
use crate::source::PointSource;
use quake_mesh::mesh::TetMesh;
use quake_spark::{bmv_pooled_into, WorkerPool};
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::Vec3;
use quake_sparse::error::SparseError;
use quake_sparse::sym::SymBcsr3;
use std::error::Error;
use std::fmt;

/// Error produced by simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A node carries zero mass (an unassembled or detached node).
    ZeroMass(usize),
    /// The time step is not positive.
    BadTimeStep(f64),
    /// Some off-diagonal stiffness block is not the exact (bitwise)
    /// transpose of its partner, so the symmetric storage the time loop
    /// runs on would not reproduce `K`.
    NotSymmetric,
    /// The stiffness storage itself is malformed: a block row whose
    /// columns are not strictly ascending, or too many block rows.
    Stiffness(SparseError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroMass(n) => write!(f, "node {n} has zero lumped mass"),
            SimError::BadTimeStep(dt) => write!(f, "time step {dt} must be positive"),
            SimError::NotSymmetric => write!(f, "stiffness matrix is not exactly symmetric"),
            SimError::Stiffness(e) => write!(f, "stiffness matrix: {e}"),
        }
    }
}

impl Error for SimError {}

/// A displacement recording at one receiver node.
#[derive(Debug, Clone, PartialEq)]
pub struct Seismogram {
    /// The recorded node.
    pub node: usize,
    /// One displacement sample per time step.
    pub samples: Vec<Vec3>,
}

impl Seismogram {
    /// Peak displacement magnitude over the recording.
    pub fn peak(&self) -> f64 {
        self.samples.iter().map(|s| s.norm()).fold(0.0, f64::max)
    }

    /// Index of the first sample whose magnitude exceeds `threshold`, or
    /// `None` if it never does — used to measure wave arrival times.
    pub fn first_arrival(&self, threshold: f64) -> Option<usize> {
        self.samples.iter().position(|s| s.norm() > threshold)
    }
}

/// The pooled SMVP path: a persistent worker pool and the full-storage
/// matrix its row-parallel kernel reads.
///
/// Wrapped so [`Simulation`] can keep deriving `Clone`/`Debug`: a clone
/// spawns a fresh pool of the same width (worker threads are not shareable
/// state), and `Debug` prints just the width.
struct Pooled {
    pool: WorkerPool,
    full: Bcsr3,
}

impl fmt::Debug for Pooled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Pooled").field(&self.pool.threads()).finish()
    }
}

impl Clone for Pooled {
    fn clone(&self) -> Self {
        Pooled {
            pool: WorkerPool::new(self.pool.threads()),
            full: self.full.clone(),
        }
    }
}

/// An explicit central-difference wave-propagation simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The stiffness `K` in symmetric storage: what the serial step
    /// streams, about half the bytes of the full matrix.
    stiffness: SymBcsr3,
    /// Lumped nodal mass, length `n`.
    mass: Vec<f64>,
    sources: Vec<PointSource>,
    receivers: Vec<usize>,
    dt: f64,
    time: f64,
    step: u64,
    /// Mass-proportional Rayleigh damping coefficient α (1/s); the damping
    /// force is `α·M·u̇`.
    damping: f64,
    /// Pooled workers and the full-storage `K` they multiply, or `None`
    /// for the serial path over `stiffness`.
    pooled: Option<Pooled>,
    u_prev: Vec<Vec3>,
    u_curr: Vec<Vec3>,
    scratch: Vec<Vec3>,
    records: Vec<Seismogram>,
}

impl Simulation {
    /// Creates a simulation with time step `dt` (seconds). The stiffness
    /// is converted to symmetric storage and the full matrix is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTimeStep`] if `dt ≤ 0`,
    /// [`SimError::ZeroMass`] if any node has no mass,
    /// [`SimError::NotSymmetric`] if the stiffness is not exactly
    /// symmetric, or [`SimError::Stiffness`] if its storage is malformed.
    pub fn new(system: AssembledSystem, dt: f64) -> Result<Self, SimError> {
        if dt <= 0.0 || dt.is_nan() {
            return Err(SimError::BadTimeStep(dt));
        }
        if let Some(n) = system.mass.iter().position(|&m| m <= 0.0) {
            return Err(SimError::ZeroMass(n));
        }
        let AssembledSystem { stiffness, mass } = system;
        let stiffness = SymBcsr3::from_full(&stiffness).map_err(|e| match e {
            SparseError::NotSymmetric => SimError::NotSymmetric,
            e => SimError::Stiffness(e),
        })?;
        let n = stiffness.block_rows();
        Ok(Simulation {
            stiffness,
            mass,
            sources: Vec::new(),
            receivers: Vec::new(),
            dt,
            time: 0.0,
            step: 0,
            damping: 0.0,
            pooled: None,
            u_prev: vec![Vec3::ZERO; n],
            u_curr: vec![Vec3::ZERO; n],
            scratch: vec![Vec3::ZERO; n],
            records: Vec::new(),
        })
    }

    /// Sets the mass-proportional Rayleigh damping coefficient `alpha`
    /// (1/s). Zero (the default) is the paper's undamped explicit scheme; a
    /// positive value attenuates motion, standing in for the absorbing
    /// boundaries of the production code.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative.
    pub fn set_damping(&mut self, alpha: f64) -> &mut Self {
        assert!(alpha >= 0.0, "damping must be non-negative");
        self.damping = alpha;
        self
    }

    /// Switches the per-step SMVP onto a persistent worker pool of `threads`
    /// workers (`threads <= 1` restores the serial path). The pool lives for
    /// the rest of the simulation, so the 6000-step loop pays thread spawn
    /// cost once instead of per step. The pooled kernel is row-parallel
    /// over full storage, which is rebuilt exactly from the symmetric
    /// matrix and kept only while the pool lives. Each row sums its terms
    /// in the same order as the serial symmetric kernel, so results are
    /// bitwise identical.
    pub fn set_parallel(&mut self, threads: usize) -> &mut Self {
        let previous = self.pooled.take();
        if threads > 1 {
            let full = previous.map_or_else(|| self.stiffness.to_full(), |p| p.full);
            self.pooled = Some(Pooled {
                pool: WorkerPool::new(threads),
                full,
            });
        }
        self
    }

    /// Number of worker threads driving the SMVP (1 means serial).
    pub fn parallelism(&self) -> usize {
        self.pooled.as_ref().map_or(1, |p| p.pool.threads())
    }

    /// The stiffness `K` in the symmetric storage the serial step streams.
    pub fn stiffness(&self) -> &SymBcsr3 {
        &self.stiffness
    }

    /// Adds a point source.
    pub fn add_source(&mut self, source: PointSource) -> &mut Self {
        self.sources.push(source);
        self
    }

    /// Adds a receiver recording the displacement of `node` each step.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_receiver(&mut self, node: usize) -> &mut Self {
        assert!(
            node < self.u_curr.len(),
            "receiver node {node} out of range"
        );
        self.receivers.push(node);
        self.records.push(Seismogram {
            node,
            samples: Vec::new(),
        });
        self
    }

    /// Current simulated time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Current displacement field.
    pub fn displacement(&self) -> &[Vec3] {
        &self.u_curr
    }

    /// The recorded seismograms so far.
    pub fn seismograms(&self) -> &[Seismogram] {
        &self.records
    }

    /// A conservative stable time step for the mesh/material combination:
    /// `dt = safety · min_e (min altitude / v_p)` (CFL-style bound).
    ///
    /// The bound uses each element's minimum *altitude* rather than its
    /// shortest edge: Delaunay meshes contain sliver elements whose edges
    /// are all moderate but whose height is tiny, and it is the altitude
    /// that controls the element's highest eigenfrequency under a lumped
    /// mass matrix. An edge-based bound admits time steps that blow up on
    /// such meshes.
    pub fn stable_dt(mesh: &TetMesh, max_vp: f64, safety: f64) -> f64 {
        let min_altitude = (0..mesh.element_count())
            .map(|e| mesh.tetra(e).min_altitude())
            .fold(f64::INFINITY, f64::min);
        safety * min_altitude / max_vp
    }

    /// Advances one time step (one SMVP plus vector updates — the paper's
    /// unit of work).
    pub fn advance(&mut self) {
        // scratch = K·u (the SMVP). Both paths write every entry of the
        // persistent scratch buffer in place, so the step allocates nothing.
        match &self.pooled {
            Some(p) => bmv_pooled_into(&p.full, &self.u_curr, &p.pool, &mut self.scratch),
            None => self
                .stiffness
                .spmv(&self.u_curr, &mut self.scratch)
                .expect("dimensions fixed at construction"),
        }
        // Central difference with mass-proportional damping α:
        //   M·(u⁺−2u+u⁻)/Δt² + α·M·(u⁺−u⁻)/(2Δt) + K·u = f
        // solved per node for u⁺ (M is lumped/diagonal).
        let c1 = 1.0 / (self.dt * self.dt);
        let c2 = self.damping / (2.0 * self.dt);
        let denom = c1 + c2;
        // External forces at the current time.
        let t = self.time;
        for i in 0..self.u_curr.len() {
            let mut f = -self.scratch[i];
            for s in &self.sources {
                if s.node == i {
                    f += s.force_at(t);
                }
            }
            let rhs = f * (1.0 / self.mass[i])
                + (self.u_curr[i] * 2.0 - self.u_prev[i]) * c1
                + self.u_prev[i] * c2;
            let next = rhs * (1.0 / denom);
            self.u_prev[i] = self.u_curr[i];
            self.u_curr[i] = next;
        }
        self.step += 1;
        self.time += self.dt;
        for (r, &node) in self.receivers.iter().enumerate() {
            let sample = self.u_curr[node];
            self.records[r].samples.push(sample);
        }
    }

    /// Runs `steps` time steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.advance();
        }
    }

    /// Total displacement energy proxy `Σ m_i·|u_i|²` (bounded for a stable
    /// run, exploding for an unstable one).
    pub fn displacement_energy(&self) -> f64 {
        self.u_curr
            .iter()
            .zip(&self.mass)
            .map(|(u, &m)| m * u.norm_squared())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble, UniformMaterial};
    use crate::source::Ricker;
    use quake_mesh::generator::{generate_mesh, GeneratorOptions};
    use quake_mesh::geometry::Aabb;
    use quake_mesh::ground::{Material, UniformSizing};

    fn small_system() -> (TetMesh, AssembledSystem) {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(4.0));
        let mesh = generate_mesh(domain, &UniformSizing(1.0), GeneratorOptions::default()).unwrap();
        let mat = Material {
            vs: 1.0,
            vp: 2.0,
            rho: 1.0,
        };
        let sys = assemble(&mesh, &UniformMaterial(mat)).unwrap();
        (mesh, sys)
    }

    #[test]
    fn zero_initial_state_stays_zero_without_sources() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.run(50);
        assert_eq!(sim.step_count(), 50);
        assert_eq!(sim.displacement_energy(), 0.0);
    }

    #[test]
    fn source_excites_waves_that_stay_bounded() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        assert!(dt > 0.0);
        let mut sim = Simulation::new(sys, dt).unwrap();
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(0.0, 0.0, 1.0),
            Ricker::new(0.5),
        );
        sim.add_source(src);
        sim.add_receiver(0);
        sim.run(300);
        let energy = sim.displacement_energy();
        assert!(energy > 0.0, "source should excite motion");
        assert!(
            energy.is_finite() && energy < 1e12,
            "unstable: energy = {energy}"
        );
        assert_eq!(sim.seismograms()[0].samples.len(), 300);
    }

    #[test]
    fn waves_arrive_later_at_distant_receivers() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let mut sim = Simulation::new(sys, dt).unwrap();
        let corner = Vec3::ZERO;
        let src = PointSource::nearest(&mesh, corner, Vec3::new(0.0, 0.0, 1e3), Ricker::new(0.8));
        let src_pos = mesh.nodes()[src.node];
        sim.add_source(src);
        // Near and far receivers.
        let near = PointSource::nearest(
            &mesh,
            src_pos + Vec3::splat(1.0),
            Vec3::ZERO,
            Ricker::new(1.0),
        )
        .node;
        let far = PointSource::nearest(
            &mesh,
            src_pos + Vec3::splat(3.5),
            Vec3::ZERO,
            Ricker::new(1.0),
        )
        .node;
        sim.add_receiver(near);
        sim.add_receiver(far);
        sim.run(800);
        let threshold = 1e-6 * sim.seismograms()[0].peak().max(sim.seismograms()[1].peak());
        let t_near = sim.seismograms()[0].first_arrival(threshold);
        let t_far = sim.seismograms()[1].first_arrival(threshold);
        let (t_near, t_far) = (t_near.expect("near arrival"), t_far.expect("far arrival"));
        assert!(
            t_near < t_far,
            "near receiver must hear the wave first: {t_near} vs {t_far}"
        );
    }

    #[test]
    fn construction_errors() {
        let (_, sys) = small_system();
        assert!(matches!(
            Simulation::new(sys.clone(), 0.0),
            Err(SimError::BadTimeStep(_))
        ));
        let mut bad = sys;
        bad.mass[3] = 0.0;
        assert!(matches!(
            Simulation::new(bad, 1e-3),
            Err(SimError::ZeroMass(3))
        ));
    }

    #[test]
    fn asymmetric_stiffness_is_rejected() {
        let (_, sys) = small_system();
        // Perturb one off-diagonal block by one ulp in one entry.
        let (row_ptr, col_idx) = sys.stiffness.adjacency();
        let k = (row_ptr[0]..row_ptr[1])
            .find(|&k| col_idx[k] != 0)
            .expect("node 0 has a neighbour");
        let mut b = quake_sparse::Bcsr3Builder::new(sys.stiffness.block_rows());
        for i in 0..sys.stiffness.block_rows() {
            for kk in row_ptr[i]..row_ptr[i + 1] {
                let mut m = sys.stiffness.blocks()[kk];
                if kk == k {
                    m.m[0][1] = f64::from_bits(m.m[0][1].to_bits() + 1);
                }
                b.add_block(i, col_idx[kk], m);
            }
        }
        let bad = AssembledSystem {
            stiffness: b.build(),
            mass: sys.mass.clone(),
        };
        assert_eq!(
            Simulation::new(bad, 1e-3).err(),
            Some(SimError::NotSymmetric)
        );
        assert!(SimError::NotSymmetric.to_string().contains("symmetric"));
        // Malformed storage is reported as such, not as asymmetry.
        let n = sys.stiffness.block_rows();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let unsorted = AssembledSystem {
            stiffness: sys.stiffness.permute_symmetric_stable(&reversed).unwrap(),
            mass: sys.mass,
        };
        assert!(matches!(
            Simulation::new(unsorted, 1e-3),
            Err(SimError::Stiffness(SparseError::MalformedStructure(_)))
        ));
    }

    #[test]
    fn symmetric_storage_roughly_halves_the_stiffness() {
        let (_, sys) = small_system();
        let full_blocks = sys.stiffness.block_nnz();
        let sim = Simulation::new(sys, 1e-3).unwrap();
        let k = sim.stiffness();
        assert_eq!(k.full_block_nnz(), full_blocks);
        assert!(2 * k.stored_blocks() < full_blocks + k.block_rows() + 1);
        assert!(k.stored_bytes() * 100 <= 55 * k.full_stored_bytes());
    }

    #[test]
    fn set_parallel_keeps_full_storage_only_while_pooled() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let mut sim = Simulation::new(sys, dt).unwrap();
        assert!(sim.pooled.is_none());
        sim.set_parallel(2);
        let full = &sim.pooled.as_ref().expect("pooled").full;
        assert_eq!(full.block_nnz(), sim.stiffness().full_block_nnz());
        sim.set_parallel(3);
        assert_eq!(sim.parallelism(), 3);
        sim.set_parallel(1);
        assert!(sim.pooled.is_none(), "serial path drops the full matrix");
    }

    #[test]
    fn seismogram_helpers() {
        let s = Seismogram {
            node: 0,
            samples: vec![
                Vec3::ZERO,
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(2.0, 0.0, 0.0),
            ],
        };
        assert_eq!(s.peak(), 2.0);
        assert_eq!(s.first_arrival(0.4), Some(1));
        assert_eq!(s.first_arrival(5.0), None);
    }

    #[test]
    fn damping_attenuates_motion() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        // Compare at a fixed simulated time (not step count) so the test is
        // insensitive to how conservative stable_dt is: α·t is what sets the
        // attenuation, and 2.0 s at α = 2 /s damps energy by ≈ e⁻⁸.
        let steps = (2.0 / dt).ceil() as u64;
        let run = |alpha: f64| {
            let mut sim = Simulation::new(sys.clone(), dt).unwrap();
            sim.set_damping(alpha);
            let src = PointSource::nearest(
                &mesh,
                Vec3::splat(2.0),
                Vec3::new(0.0, 0.0, 1.0),
                Ricker::new(0.5),
            );
            sim.add_source(src);
            sim.run(steps);
            sim.displacement_energy()
        };
        let undamped = run(0.0);
        let damped = run(2.0);
        assert!(
            damped < 0.5 * undamped,
            "damped {damped} vs undamped {undamped}"
        );
        assert!(damped > 0.0);
    }

    #[test]
    fn zero_damping_matches_original_scheme() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let mut a = Simulation::new(sys.clone(), dt).unwrap();
        let mut b = Simulation::new(sys, dt).unwrap();
        b.set_damping(0.0);
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(1.0, 0.0, 0.0),
            Ricker::new(0.5),
        );
        a.add_source(src);
        b.add_source(src);
        a.run(100);
        b.run(100);
        assert_eq!(a.displacement(), b.displacement());
    }

    #[test]
    fn parallel_smvp_matches_serial_bitwise() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(1.0, 0.0, 0.0),
            Ricker::new(0.5),
        );
        let mut serial = Simulation::new(sys.clone(), dt).unwrap();
        serial.add_source(src);
        serial.run(100);
        for threads in [1, 2, 4] {
            let mut par = Simulation::new(sys.clone(), dt).unwrap();
            par.set_parallel(threads);
            assert_eq!(par.parallelism(), threads.max(1));
            par.add_source(src);
            par.run(100);
            // Row order matches the serial kernel, so the floating-point
            // operations are identical, not merely close.
            assert_eq!(serial.displacement(), par.displacement());
        }
        // Cloning a parallel simulation keeps the configured width.
        let mut par = Simulation::new(sys, dt).unwrap();
        par.set_parallel(3);
        assert_eq!(par.clone().parallelism(), 3);
        par.set_parallel(1);
        assert_eq!(par.parallelism(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_damping_panics() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.set_damping(-0.1);
    }

    #[test]
    fn time_advances_by_dt() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 0.25).unwrap();
        sim.run(4);
        assert!((sim.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_receiver_panics() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.add_receiver(usize::MAX);
    }

    #[test]
    fn error_display() {
        assert!(SimError::ZeroMass(5).to_string().contains("node 5"));
        assert!(SimError::BadTimeStep(-1.0).to_string().contains("positive"));
    }
}
