//! Property tests: the symmetric block product the time loop runs on is
//! bitwise-equal to the full-storage product on assembled stiffness
//! matrices.
//!
//! `assemble` makes every off-diagonal block `K_ji` the exact transpose of
//! `K_ij`, and `SymBcsr3::spmv` hands each `y[i]` its terms in the same
//! ascending column order as `Bcsr3::spmv`, so the two products must agree
//! in every bit — for ordinary inputs and for ±0.0, subnormals and huge
//! values alike. Meshes, materials and inputs are drawn from
//! proptest-chosen seeds, so every failure is replayable from the printed
//! inputs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use quake_fem::assembly::{
    assemble, AssembledSystem, GroundMaterial, MaterialField, UniformMaterial,
};
use quake_mesh::generator::{generate_mesh, GeneratorOptions};
use quake_mesh::geometry::Aabb;
use quake_mesh::ground::{BasinModel, Material, UniformSizing};
use quake_sparse::dense::Vec3;
use quake_sparse::sym::SymBcsr3;

/// A deterministic stream of `u64`s (one LCG step per draw).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// One entry of `x`: a plain value, ±0.0, a subnormal or a huge value.
/// Huge values stay below 1e250, so products with the stiffness entries
/// (at most ~1e15 on these meshes) and their sums cannot overflow.
fn entry(s: &mut Stream) -> f64 {
    let sign = [1.0, -1.0][(s.next() & 1) as usize];
    sign * match s.next() % 5 {
        0 => 0.0,
        1 => f64::from_bits(1 + s.next() % (1u64 << 52)),
        2 => 1e200 * (1.0 + 1e50 * s.unit()),
        _ => 10f64.powf(12.0 * s.unit() - 6.0),
    }
}

fn x_for(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = Stream(seed);
    (0..n)
        .map(|_| Vec3::new(entry(&mut s), entry(&mut s), entry(&mut s)))
        .collect()
}

fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|u| [u.x.to_bits(), u.y.to_bits(), u.z.to_bits()])
        .collect()
}

fn assert_bitwise_equal(sys: &AssembledSystem, x_seed: u64) -> Result<(), TestCaseError> {
    let sym = SymBcsr3::from_full(&sys.stiffness).expect("assembled K is exactly symmetric");
    prop_assert_eq!(sym.full_block_nnz(), sys.stiffness.block_nnz());
    let x = x_for(sys.stiffness.block_rows(), x_seed);
    let full = sys.stiffness.spmv_alloc(&x).expect("dims");
    let half = sym.spmv_alloc(&x).expect("dims");
    prop_assert!(
        bits(&full) == bits(&half),
        "symmetric product differs from full storage"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn uniform_material_products_match_bitwise(
        mesh_seed in 0u64..1_000_000,
        size in 0.7f64..1.6,
        vs in 100.0f64..3_000.0,
        vp_over_vs in 1.5f64..2.5,
        x_seed in 0u64..u64::MAX,
    ) {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(4.0));
        let options = GeneratorOptions { seed: mesh_seed, ..GeneratorOptions::default() };
        let mesh = generate_mesh(domain, &UniformSizing(size), options).expect("mesh");
        let mat = Material { vs, vp: vs * vp_over_vs, rho: 2_000.0 };
        let sys = assemble(&mesh, &UniformMaterial(mat)).expect("assembly");
        assert_bitwise_equal(&sys, x_seed)?;
    }

    #[test]
    fn ground_material_products_match_bitwise(
        mesh_seed in 0u64..1_000_000,
        size in 700.0f64..1_600.0,
        x_seed in 0u64..u64::MAX,
    ) {
        // A 6 km × 6 km × 4 km block straddling the basin's western edge:
        // sediment whose speed grows with depth next to rock.
        let ground = BasinModel::san_fernando_like();
        let edge = Vec3::new(ground.basin_cx - ground.basin_rx, ground.basin_cy, 0.0);
        let domain = Aabb::new(
            edge + Vec3::new(-3_000.0, -3_000.0, -4_000.0),
            edge + Vec3::new(3_000.0, 3_000.0, 0.0),
        );
        let options = GeneratorOptions { seed: mesh_seed, ..GeneratorOptions::default() };
        let mesh = generate_mesh(domain, &UniformSizing(size), options).expect("mesh");
        let field = GroundMaterial(&ground);
        let vs: Vec<f64> = (0..mesh.element_count())
            .map(|e| field.material(&mesh, e).vs)
            .collect();
        prop_assert!(
            vs.iter().any(|&v| v != vs[0]),
            "the block must mix materials"
        );
        let sys = assemble(&mesh, &field).expect("assembly");
        assert_bitwise_equal(&sys, x_seed)?;
    }
}
