//! Global assembly: element stiffness and mass contributions summed into
//! the block-CSR stiffness matrix `K` and the lumped mass vector.

use crate::elasticity::{element_stiffness, lumped_element_mass, DegenerateElement};
use quake_mesh::ground::Material;
use quake_mesh::mesh::TetMesh;
use quake_sparse::bcsr::{Bcsr3, Bcsr3Builder};

/// A per-element material sampler. Implemented for closures taking the
/// element index and centroid-derived material.
pub trait MaterialField {
    /// Material of element `e` of `mesh`.
    fn material(&self, mesh: &TetMesh, e: usize) -> Material;
}

/// Uniform material everywhere (tests, microbenchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformMaterial(pub Material);

impl MaterialField for UniformMaterial {
    fn material(&self, _mesh: &TetMesh, _e: usize) -> Material {
        self.0
    }
}

/// Samples the material of a [`quake_mesh::ground::BasinModel`] at each
/// element centroid.
#[derive(Debug, Clone, Copy)]
pub struct GroundMaterial<'a>(pub &'a quake_mesh::ground::BasinModel);

impl MaterialField for GroundMaterial<'_> {
    fn material(&self, mesh: &TetMesh, e: usize) -> Material {
        self.0.material_at(mesh.tetra(e).centroid())
    }
}

/// The assembled system: stiffness `K` (3×3-block CSR over nodes) and the
/// lumped mass per node (identical on all 3 degrees of freedom).
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// Global stiffness matrix (`3n × 3n` as 3×3 blocks).
    pub stiffness: Bcsr3,
    /// Lumped nodal mass (kg), length `n`.
    pub mass: Vec<f64>,
}

/// Assembles the global stiffness matrix and lumped mass vector.
///
/// # Errors
///
/// Returns [`DegenerateElement`] if any element is too flat to integrate
/// (the mesh generator's quality filter prevents this for generated meshes).
///
/// # Examples
///
/// ```
/// use quake_fem::assembly::{assemble, UniformMaterial};
/// use quake_mesh::ground::Material;
/// use quake_mesh::mesh::TetMesh;
/// use quake_sparse::dense::Vec3;
/// let mesh = TetMesh::new(
///     vec![
///         Vec3::new(0.0, 0.0, 0.0),
///         Vec3::new(1.0, 0.0, 0.0),
///         Vec3::new(0.0, 1.0, 0.0),
///         Vec3::new(0.0, 0.0, 1.0),
///     ],
///     vec![[0, 1, 2, 3]],
/// ).unwrap();
/// let mat = Material { vs: 1000.0, vp: 2000.0, rho: 2000.0 };
/// let sys = assemble(&mesh, &UniformMaterial(mat))?;
/// assert_eq!(sys.stiffness.block_rows(), 4);
/// # Ok::<(), quake_fem::elasticity::DegenerateElement>(())
/// ```
pub fn assemble<F: MaterialField>(
    mesh: &TetMesh,
    field: &F,
) -> Result<AssembledSystem, DegenerateElement> {
    let n = mesh.node_count();
    let mut builder = Bcsr3Builder::new(n);
    let mut mass = vec![0.0; n];
    for e in 0..mesh.element_count() {
        let tet = mesh.tetra(e);
        let mat = field.material(mesh, e);
        let ke = element_stiffness(&tet, mat.lambda(), mat.mu())?;
        let me = lumped_element_mass(&tet, mat.rho);
        let conn = mesh.elements()[e];
        for (a, &ia) in conn.iter().enumerate() {
            mass[ia] += me;
            for (b, &ib) in conn.iter().enumerate() {
                builder.add_block(ia, ib, ke[a][b]);
            }
        }
    }
    Ok(AssembledSystem {
        stiffness: builder.build(),
        mass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_mesh::generator::{generate_mesh, GeneratorOptions};
    use quake_mesh::geometry::Aabb;
    use quake_mesh::ground::UniformSizing;
    use quake_sparse::dense::Vec3;

    fn mat() -> Material {
        Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        }
    }

    fn small_mesh() -> TetMesh {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(3.0));
        generate_mesh(domain, &UniformSizing(1.0), GeneratorOptions::default()).unwrap()
    }

    #[test]
    fn stiffness_pattern_matches_mesh_adjacency() {
        let mesh = small_mesh();
        let sys = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        let pattern = mesh.pattern();
        assert_eq!(sys.stiffness.block_nnz(), pattern.block_nnz());
        assert_eq!(sys.stiffness.block_rows(), mesh.node_count());
    }

    #[test]
    fn assembled_stiffness_is_symmetric() {
        let mesh = small_mesh();
        let sys = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        // Exact: the symmetric time loop relies on K_ji being the bitwise
        // transpose of K_ij (element_stiffness builds k[b][a] as the exact
        // transpose of k[a][b], and both blocks sum the same elements in
        // the same order).
        assert!(sys.stiffness.is_symmetric(0.0));
    }

    #[test]
    fn heterogeneous_stiffness_is_exactly_symmetric() {
        use quake_mesh::ground::BasinModel;
        let ground = BasinModel::san_fernando_like();
        let mesh = generate_mesh(
            ground.domain(),
            &UniformSizing(6_000.0),
            GeneratorOptions::default(),
        )
        .unwrap();
        let sys = assemble(&mesh, &GroundMaterial(&ground)).unwrap();
        let field = GroundMaterial(&ground);
        let vs: Vec<f64> = (0..mesh.element_count())
            .map(|e| field.material(&mesh, e).vs)
            .collect();
        assert!(
            vs.iter().any(|&v| v != vs[0]),
            "the basin must make the material heterogeneous"
        );
        assert!(sys.stiffness.is_symmetric(0.0));
    }

    #[test]
    fn total_mass_matches_density_times_volume() {
        let mesh = small_mesh();
        let sys = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        let total: f64 = sys.mass.iter().sum();
        let expect = 2000.0 * mesh.total_volume();
        assert!(
            (total - expect).abs() < 1e-6 * expect,
            "mass {total} vs ρV {expect}"
        );
        assert!(sys.mass.iter().all(|&m| m > 0.0), "every node carries mass");
    }

    #[test]
    fn rigid_translation_in_global_null_space() {
        let mesh = small_mesh();
        let sys = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        let x = vec![Vec3::new(1.0, -2.0, 0.5); mesh.node_count()];
        let y = sys.stiffness.spmv_alloc(&x).unwrap();
        let scale = sys
            .stiffness
            .blocks()
            .iter()
            .map(|b| b.frobenius_norm())
            .sum::<f64>();
        let residual: f64 = y.iter().map(|v| v.norm()).sum();
        assert!(
            residual < 1e-9 * scale,
            "K·translation should vanish: {residual} vs scale {scale}"
        );
    }

    #[test]
    fn ground_material_field_samples_basin() {
        use quake_mesh::ground::BasinModel;
        let ground = BasinModel::san_fernando_like();
        // One tet at the basin center surface, one deep in rock.
        let mk = |c: Vec3| {
            TetMesh::new(
                vec![
                    c,
                    c + Vec3::new(10.0, 0.0, 0.0),
                    c + Vec3::new(0.0, 10.0, 0.0),
                    c + Vec3::new(0.0, 0.0, -10.0),
                ],
                vec![[0, 1, 2, 3]],
            )
            .unwrap()
        };
        let soft_mesh = mk(ground.basin_center_surface());
        let hard_mesh = mk(Vec3::new(1000.0, 1000.0, -8000.0));
        let field = GroundMaterial(&ground);
        let soft = field.material(&soft_mesh, 0);
        let hard = field.material(&hard_mesh, 0);
        assert!(soft.vs < hard.vs);
    }

    #[test]
    fn degenerate_element_propagates() {
        let mesh = TetMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(3.0, 1e-320, 0.0),
            ],
            vec![[0, 1, 2, 3]],
        )
        .unwrap();
        assert!(assemble(&mesh, &UniformMaterial(mat())).is_err());
    }
}
