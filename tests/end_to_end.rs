//! Integration: the full pipeline — mesh generation → partitioning →
//! assembly → distributed SMVP → characterization → model → simulation —
//! exercised across crate boundaries.

use quake_app::characterize::AnalyzedInstance;
use quake_app::distributed::DistributedSystem;
use quake_app::family::{AppConfig, QuakeApp};
use quake_core::machine::{Network, Processor};
use quake_core::model::eq1::{achieved_efficiency, required_tc};
use quake_fem::assembly::{assemble, GroundMaterial, UniformMaterial};
use quake_fem::source::{PointSource, Ricker};
use quake_fem::timestep::Simulation;
use quake_mesh::ground::Material;
use quake_netsim::simulate::SimOptions;
use quake_netsim::validate::validate;
use quake_partition::geometric::{Partitioner, RandomPartition, RecursiveBisection};
use quake_sparse::dense::Vec3;

fn test_app() -> QuakeApp {
    QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("mesh generation")
}

#[test]
fn pipeline_mesh_to_model() {
    let app = test_app();
    let analyzed =
        AnalyzedInstance::characterize("sf10", &app.mesh, &RecursiveBisection::inertial(), 8)
            .expect("partition");
    // The characterization drives Eq. (1): requiring exactly the t_c the
    // model prescribes must give back the target efficiency.
    let pe = Processor::hypothetical_200mflops();
    for e in [0.5, 0.8, 0.9] {
        let t_c = required_tc(&analyzed.instance, e, pe.t_f);
        let back = achieved_efficiency(&analyzed.instance, t_c, pe.t_f);
        assert!((back - e).abs() < 1e-12);
    }
}

#[test]
fn pipeline_distributed_smvp_equals_sequential_with_ground_materials() {
    let app = test_app();
    let field = GroundMaterial(&app.ground);
    let partition = RecursiveBisection::coordinate()
        .partition(&app.mesh, 6)
        .expect("partition");
    let distributed = DistributedSystem::build(&app.mesh, &partition, &field).expect("assembly");
    let global = assemble(&app.mesh, &field).expect("assembly");
    let x: Vec<Vec3> = (0..app.mesh.node_count())
        .map(|i| Vec3::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos(), 1.0))
        .collect();
    let seq = global.stiffness.spmv_alloc(&x).expect("dims");
    let par = distributed.smvp(&x);
    let scale = seq.iter().map(|v| v.norm()).fold(0.0, f64::max);
    for (a, b) in seq.iter().zip(&par) {
        assert!((*a - *b).norm() <= 1e-9 * (1.0 + scale));
    }
}

#[test]
fn pipeline_workload_to_netsim_validation() {
    let app = test_app();
    let analyzed =
        AnalyzedInstance::characterize("sf10", &app.mesh, &RecursiveBisection::inertial(), 8)
            .expect("partition");
    let row = validate(
        &analyzed.workload(),
        &Processor::hypothetical_200mflops(),
        &Network::cray_t3e(),
        SimOptions::default(),
    );
    // The β bound must hold between the model and the per-PE exact bound.
    assert!(row.model_t_comm <= row.beta * row.exact_t_comm * (1.0 + 1e-9));
    // The event-driven simulation cannot beat the busiest PE's serial work.
    assert!(row.sim_t_comm >= row.exact_t_comm * (1.0 - 1e-12));
    // And it should land within a small factor of the model for these
    // balanced geometric partitions.
    assert!(
        row.sim_t_comm <= 2.0 * row.model_t_comm,
        "simulation {} vs model {}",
        row.sim_t_comm,
        row.model_t_comm
    );
    assert!((1.0..=2.0).contains(&row.beta));
}

#[test]
fn pipeline_partitioner_quality_propagates_to_requirements() {
    // A worse partitioner (random) must demand more bandwidth through the
    // whole pipeline than the geometric one.
    let app = test_app();
    let pe = Processor::hypothetical_200mflops();
    let tc_of = |analyzed: &AnalyzedInstance| required_tc(&analyzed.instance, 0.9, pe.t_f);
    let good =
        AnalyzedInstance::characterize("sf10", &app.mesh, &RecursiveBisection::inertial(), 8)
            .expect("partition");
    let bad = AnalyzedInstance::characterize("sf10", &app.mesh, &RandomPartition { seed: 5 }, 8)
        .expect("partition");
    // Smaller t_c budget = stricter network requirement.
    assert!(
        tc_of(&bad) < tc_of(&good),
        "random partition must require a faster network"
    );
}

#[test]
fn pipeline_wave_simulation_runs_on_generated_mesh() {
    let app = test_app();
    let system = assemble(
        &app.mesh,
        &UniformMaterial(Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        }),
    )
    .expect("assembly");
    let dt = Simulation::stable_dt(&app.mesh, 2000.0, 0.3);
    let mut sim = Simulation::new(system, dt).expect("simulation");
    let source = PointSource::nearest(
        &app.mesh,
        app.ground.basin_center_surface(),
        Vec3::new(0.0, 0.0, 1e12),
        Ricker::new(0.5 / dt / 100.0),
    );
    sim.add_source(source);
    sim.add_receiver(0);
    sim.run(100);
    let energy = sim.displacement_energy();
    assert!(energy.is_finite(), "explicit integration must stay stable");
    assert!(energy > 0.0, "the source must excite the mesh");
}

#[test]
fn ground_model_time_loop_symmetric_storage_equals_pooled_full_storage() {
    // The serial step runs on symmetric storage; the pooled step on full
    // storage rebuilt from it. On a heterogeneous ground model both must
    // produce the same displacements and seismogram, bit for bit.
    let app = test_app();
    let system = assemble(&app.mesh, &GroundMaterial(&app.ground)).expect("assembly");
    let max_vp = 3f64.sqrt() * app.ground.vs_rock;
    let dt = Simulation::stable_dt(&app.mesh, max_vp, 0.4);
    let centre = app.ground.basin_center_surface();
    let source = PointSource::nearest(
        &app.mesh,
        centre + Vec3::new(0.0, 0.0, -2_000.0),
        Vec3::new(0.0, 0.0, 1e15),
        Ricker::new(1.0 / app.config.period_s),
    );
    let rx = PointSource::nearest(&app.mesh, centre, Vec3::ZERO, Ricker::new(1.0)).node;
    let run = |threads: usize| {
        let mut sim = Simulation::new(system.clone(), dt).expect("simulation");
        sim.set_parallel(threads);
        sim.add_source(source);
        sim.add_receiver(rx);
        sim.run(100);
        let bits = |v: &[Vec3]| -> Vec<[u64; 3]> {
            v.iter()
                .map(|u| [u.x.to_bits(), u.y.to_bits(), u.z.to_bits()])
                .collect()
        };
        (
            bits(sim.displacement()),
            bits(&sim.seismograms()[0].samples),
        )
    };
    let (serial_u, serial_seis) = run(1);
    let (pooled_u, pooled_seis) = run(2);
    assert!(
        serial_seis.iter().flatten().any(|&b| b != 0),
        "the source must reach the receiver"
    );
    assert!(serial_u == pooled_u, "displacements differ");
    assert!(serial_seis == pooled_seis, "seismograms differ");
}

#[test]
fn fixed_block_regime_consistent_between_model_and_simulator() {
    // Figure 10b machinery: split messages into 4-word blocks both in the
    // analytic model (B_max = C_max/4) and the event simulator, and check
    // they agree on the latency-dominated cost.
    use quake_core::machine::BlockRegime;
    use quake_core::model::eq2::comm_time;
    use quake_netsim::simulate::simulate_comm_phase;

    let app = test_app();
    let analyzed =
        AnalyzedInstance::characterize("sf10", &app.mesh, &RecursiveBisection::inertial(), 8)
            .expect("partition");
    let net = Network {
        name: "latency-bound",
        t_l: 10e-6,
        t_w: 1e-9,
    };
    let sim = simulate_comm_phase(
        &analyzed.workload(),
        &net,
        SimOptions {
            block_words: Some(4),
            ..SimOptions::default()
        },
    );
    let model = comm_time(&analyzed.instance, &net, BlockRegime::CACHE_LINE);
    let ratio = sim / model;
    assert!(
        (0.5..2.0).contains(&ratio),
        "fixed-block sim {sim} vs model {model} (ratio {ratio})"
    );
    // And the fragmented phase must dwarf the maximal-block one.
    let maximal = simulate_comm_phase(&analyzed.workload(), &net, SimOptions::default());
    assert!(
        sim > 10.0 * maximal,
        "fragmentation must dominate: {sim} vs {maximal}"
    );
}

#[test]
fn characterization_shapes_match_paper_section_4_1() {
    // The three qualitative claims of §4.1, on synthetic data:
    // 1. F/C_max falls as p grows.
    // 2. M_avg is small and falls as p grows.
    // 3. C values stay divisible by 6.
    let app = QuakeApp::generate(AppConfig::new("sf5", 5.0, 8.0)).expect("mesh");
    let table = quake_app::figure7_table(
        "sf5",
        &app.mesh,
        &RecursiveBisection::inertial(),
        &[4, 8, 16, 32],
    );
    let ratios: Vec<f64> = table.iter().map(|a| a.instance.comp_comm_ratio()).collect();
    assert!(
        ratios.first().expect("rows") > ratios.last().expect("rows"),
        "F/C_max must fall overall: {ratios:?}"
    );
    let m_avgs: Vec<f64> = table.iter().map(|a| a.instance.m_avg).collect();
    assert!(m_avgs.first().expect("rows") > m_avgs.last().expect("rows"));
    for a in &table {
        assert_eq!(a.instance.c_max % 6, 0);
        assert!((1.0..=2.0).contains(&a.beta));
    }
}
