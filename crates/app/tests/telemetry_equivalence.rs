//! The telemetry layer's zero-interference guarantee, quantified.
//!
//! Arming telemetry must be *observationally invisible* to the numerics: a
//! traced BSP SMVP run — at any worker-thread count from 1 to 8, with or
//! without RCM renumbering, with or without chaos-layer fault injection —
//! must produce output **bitwise-equal** to the untraced run of the same
//! product, and the measured `F`/`C_max`/`B_max` counters must be
//! untouched. Alongside the equivalence, the recorded telemetry itself
//! must be coherent: spans for every BSP phase, consistent histogram
//! counts with ordered percentiles, and a drift monitor that stays silent
//! on clean runs.
//!
//! The mesh/partition fixture is built once (it is expensive) and shared;
//! each proptest case varies only the cheap knobs.

use proptest::prelude::*;
use quake_app::executor::BspExecutor;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::DistributedSystem;
use quake_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use quake_core::telemetry::{DriftConfig, PhaseId, TelemetryConfig};
use quake_fem::assembly::UniformMaterial;
use quake_mesh::ground::Material;
use quake_partition::comm::CommAnalysis;
use quake_partition::geometric::{Partitioner, RecursiveBisection};
use quake_sparse::dense::Vec3;
use std::sync::OnceLock;

const PARTS: usize = 6;
const STEPS: u64 = 5;

struct Fixture {
    system: DistributedSystem,
    x: Vec<Vec3>,
    /// Fault-free characterization maxima: (F, C_max, B_max).
    predicted: (u64, u64, u64),
    /// Untraced output, natural node order.
    reference: Vec<Vec3>,
    /// Untraced output, RCM-renumbered subdomains.
    reference_rcm: Vec<Vec3>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("fixture mesh");
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, PARTS)
            .expect("fixture partition");
        let analysis = CommAnalysis::new(&app.mesh, &partition);
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let system = DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat))
            .expect("fixture system");
        let x: Vec<Vec3> = (0..app.mesh.node_count())
            .map(|i| {
                let s = i as f64;
                Vec3::new((0.1 * s).sin(), (0.2 * s).cos(), (0.3 * s).sin())
            })
            .collect();
        let reference = BspExecutor::new(&system, 2).run(&x, STEPS);
        let reference_rcm = BspExecutor::with_rcm(&system, 2).run(&x, STEPS);
        Fixture {
            predicted: (analysis.f_max(), analysis.c_max(), analysis.b_max()),
            system,
            x,
            reference,
            reference_rcm,
        }
    })
}

fn bitwise_eq(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            (u.x.to_bits(), u.y.to_bits(), u.z.to_bits())
                == (v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
}

/// Telemetry with the drift noise floor raised past anything a loaded CI
/// machine can produce: these tests assert wiring and bitwise equality
/// under arbitrary scheduler contention, where a multi-millisecond
/// preemption mid-exchange is indistinguishable from real drift. The
/// monitor's sensitivity has its own unit tests over synthetic times.
fn ci_quiet_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        drift: Some(DriftConfig {
            min_time_s: 1.0,
            ..DriftConfig::default()
        }),
        ..TelemetryConfig::default()
    }
}

fn traced_executor(fx: &Fixture, threads: usize, rcm: bool) -> BspExecutor {
    let mut exec = if rcm {
        BspExecutor::with_rcm(&fx.system, threads)
    } else {
        BspExecutor::new(&fx.system, threads)
    };
    exec.enable_telemetry(ci_quiet_telemetry());
    exec
}

/// The explicit thread sweep the issue asks for: every count from 1 to 8,
/// both node orderings, traced vs untraced bitwise equality plus phase
/// coverage and histogram coherence.
#[test]
fn traced_runs_are_bitwise_equal_across_thread_counts_and_orderings() {
    let fx = fixture();
    for threads in 1..=8 {
        for rcm in [false, true] {
            let mut exec = traced_executor(fx, threads, rcm);
            let y = exec.run(&fx.x, STEPS);
            let reference = if rcm {
                &fx.reference_rcm
            } else {
                &fx.reference
            };
            assert!(
                bitwise_eq(reference, &y),
                "{threads} threads, rcm={rcm}: traced run diverged from untraced"
            );
            let t = exec.telemetry().expect("telemetry armed");
            assert_eq!(t.steps, STEPS);
            for phase in [
                PhaseId::Assemble,
                PhaseId::Compute,
                PhaseId::Exchange,
                PhaseId::Fold,
            ] {
                assert!(
                    t.spans.iter().any(|s| s.phase == phase),
                    "{threads} threads, rcm={rcm}: no {} span",
                    phase.name()
                );
            }
            // Every step records one compute sample per PE and one
            // latency+size sample per inbound message; the two block
            // channels must agree with each other.
            assert_eq!(t.compute_ns.count(), STEPS * PARTS as u64);
            assert_eq!(t.block_latency_ns.count(), t.block_words.count());
            assert!(
                t.block_latency_ns.count() > 0,
                "no exchange traffic recorded"
            );
            let lat = t.block_latency_ns.summary();
            assert!(lat.p50 <= lat.p90 && lat.p90 <= lat.p99 && lat.p99 <= lat.max);
            let drift = t.drift.as_ref().expect("drift armed by default");
            assert_eq!(
                drift.flagged_total(),
                0,
                "{threads} threads, rcm={rcm}: drift flagged a clean run \
                 (worst: {:?})",
                drift.worst()
            );
            assert!(t.instants().is_empty(), "clean run recorded fault instants");
        }
    }
}

/// Arming an empty fault plan runs the same step engine, so it changes no
/// span: a traced empty-plan chaos run records the same (phase, PE, step)
/// multiset of assemble, compute, exchange and fold spans as the traced
/// clean run. Span starts are per PE on both: with one worker the PEs run
/// in order, so within a step each PE's compute starts after the last.
#[test]
fn empty_plan_chaos_traces_the_same_spans_as_the_clean_run() {
    let fx = fixture();
    let core = |exec: &BspExecutor| {
        let t = exec.telemetry().expect("telemetry armed");
        let mut spans: Vec<(&str, u32, u64)> = t
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.phase,
                    PhaseId::Assemble | PhaseId::Compute | PhaseId::Exchange | PhaseId::Fold
                )
            })
            .map(|s| (s.phase.name(), s.pe, s.step))
            .collect();
        spans.sort_unstable();
        spans
    };
    for threads in [1, 3] {
        let mut clean = traced_executor(fx, threads, false);
        let mut chaos = traced_executor(fx, threads, false);
        chaos.enable_faults(FaultPlan::none(), RecoveryPolicy::Restart, 2);
        let y_clean = clean.run(&fx.x, STEPS);
        let y_chaos = chaos.run(&fx.x, STEPS);
        assert!(
            bitwise_eq(&y_clean, &y_chaos),
            "{threads} threads: outputs differ"
        );
        let spans = core(&clean);
        assert_eq!(spans.len() as u64, STEPS * (3 * PARTS as u64 + 1));
        assert_eq!(
            spans,
            core(&chaos),
            "{threads} threads: span multisets differ"
        );
        if threads == 1 {
            for exec in [&clean, &chaos] {
                let t = exec.telemetry().expect("telemetry armed");
                for step in 0..STEPS {
                    let starts: Vec<u64> = t
                        .spans
                        .iter()
                        .filter(|s| s.phase == PhaseId::Compute && s.step == step)
                        .map(|s| s.start_ns)
                        .collect();
                    assert_eq!(starts.len(), PARTS);
                    assert!(
                        starts.windows(2).all(|w| w[0] < w[1]),
                        "step {step}: compute spans share a start: {starts:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing composes with the chaos layer: a traced, fault-injected,
    /// recovered run still equals the untraced fault-free reference, and
    /// the ledger and counters are unaffected by the instrumentation.
    #[test]
    fn traced_chaos_runs_stay_bitwise_equal_and_balanced(
        seed in 0u64..1_000_000,
        threads in 1usize..=8,
        checkpoint_every in 1u64..=4,
        degrade in 0u8..2,
        rcm in 0u8..2,
    ) {
        let rcm = rcm == 1;
        let fx = fixture();
        let plan = FaultPlan::generate(seed, STEPS, PARTS, &FaultRates::uniform(0.25));
        let injected_any = !plan.is_empty();
        let policy = if degrade == 1 {
            RecoveryPolicy::Degrade
        } else {
            RecoveryPolicy::Restart
        };
        let mut exec = traced_executor(fx, threads, rcm);
        exec.enable_faults(plan, policy, checkpoint_every);
        let y = exec.run(&fx.x, STEPS);
        let reference = if rcm { &fx.reference_rcm } else { &fx.reference };
        prop_assert!(
            bitwise_eq(reference, &y),
            "seed {seed}, {threads} threads, {policy}, rcm={rcm}: traced chaos run diverged"
        );
        let report = exec.report();
        let fr = report.fault.expect("armed executor reports faults");
        prop_assert!(fr.balanced(), "seed {seed}: unbalanced ledger: {fr}");
        prop_assert_eq!(
            (report.f_max(), report.c_max(), report.b_max()),
            fx.predicted
        );
        let t = exec.telemetry().expect("telemetry armed");
        prop_assert_eq!(t.steps, STEPS);
        // Every injected fault leaves a trace instant (the instant buffer
        // is far larger than any generated plan here).
        // Fault instants must appear exactly when faults were injected.
        prop_assert_eq!(
            t.instants().is_empty() && t.instants_dropped() == 0,
            !injected_any
        );
    }
}
