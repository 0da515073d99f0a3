//! The four workloads. Each drives the program only through public
//! functions, checks every output it times, and fills either the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//!
//! Every load is a closed loop: one calling thread issues a step and
//! waits for it before issuing the next.

use crate::calib::Calibration;
use crate::util::{hash_field, jnum, jstr, median, quantile, window_rates, Ledger, Tracer};
use quake_app::executor::{BspExecutor, ExecutionReport};
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::transport::run::{make_x, partitioner, run_with, Built, RunOutput};
use quake_app::transport::wire::RunSpec;
use quake_app::transport::{ghost_edges, SharedTransport, TransportKind};
use quake_app::DistributedSystem;
use quake_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use quake_core::model::beta::modeled_comm_time;
use quake_fem::assembly::{assemble, GroundMaterial, UniformMaterial};
use quake_fem::source::{PointSource, Ricker};
use quake_fem::timestep::Simulation;
use quake_mesh::ground::Material;
use quake_partition::comm::{CommAnalysis, MaxRateAnalysis};
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::Vec3;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The workload names.
pub const WORKLOADS: [&str; 4] = ["quake_sf5", "exec_sf5", "proc_sf10", "chaos_sf10"];

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("step_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports 0 and is listed in the artifact's manifest.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("mesh.generate_s", "s"),
    ("mesh.nodes", "count"),
    ("mesh.elements", "count"),
    ("partition.s", "s"),
    ("partition.f_max", "flops"),
    ("partition.c_max_words", "words"),
    ("partition.b_max_blocks", "blocks"),
    ("fem.assemble_s", "s"),
    ("fem.update_ms", "ms"),
    ("kernel.product_ms", "ms"),
    ("kernel.bytes", "bytes"),
    ("kernel.flops", "flops"),
    ("kernel.gbps", "GB/s"),
    ("kernel.frac_of_bound", "ratio"),
    ("distributed.build_s", "s"),
    ("exec.plan_s", "s"),
    ("exec.assemble_ms", "ms"),
    ("exec.compute_ms", "ms"),
    ("exec.exchange_ms", "ms"),
    ("exec.fold_ms", "ms"),
    ("exec.barrier_ms", "ms"),
    ("exec.efficiency", "ratio"),
    ("exec.overhead_ratio", "ratio"),
    ("exchange.words_per_step", "words"),
    ("exchange.blocks_per_step", "blocks"),
    ("exchange.eq2_pred_ms", "ms"),
    ("exchange.maxrate_pred_ms", "ms"),
    ("exchange.frac_of_bound", "ratio"),
    ("proc.bootstrap_s", "s"),
    ("fault.injected", "count"),
    ("fault.recovered", "count"),
    ("fault.retries", "count"),
    ("fault.refetches", "count"),
    ("fault.replayed_steps", "count"),
    ("fault.respawned_workers", "count"),
    ("fault.overhead_ratio", "ratio"),
    ("loop.step_p99_ms", "ms"),
    ("loop.step_n", "count"),
    ("trace.overhead", "ratio"),
    ("host.copy_gbps_ws", "GB/s"),
    ("host.copy_ws_bytes", "bytes"),
    ("host.copy_gbps_dram", "GB/s"),
    ("host.copy_dram_array_bytes", "bytes"),
    ("host.ref_kernel_ms", "ms"),
    ("host.socket_t_l_us", "us"),
    ("host.socket_t_w_ns", "ns"),
];

/// Step times of this many leading steps per loop are left out of the
/// statistics (cold caches, first-touch pages); they are still checked.
const WARMUP: usize = 5;
/// Chaos runs in blocks of this many steps, each on a fresh executor with
/// its own seeded fault plan, so a block's fault counts repeat exactly.
const CHAOS_BLOCK: u64 = 1500;
/// Steps per long proc run. Its step rate is taken relative to a 1-step
/// run of the same problem, which cancels the shard bootstrap; short runs
/// give many repetitions.
const PROC_STEPS: u64 = 1000;

/// What one run was asked to do.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub perturb: bool,
}

impl Opts {
    pub fn mesh_seed(&self) -> u64 {
        self.seed
    }

    pub fn x_seed(&self) -> u64 {
        quake_core::fault::mix64(self.seed ^ 0x78)
    }

    pub fn fault_seed(&self) -> u64 {
        quake_core::fault::mix64(self.seed ^ 0x66)
    }

    /// True for the workloads that run in this process only.
    pub fn in_process(&self) -> bool {
        self.workload != "proc_sf10"
    }

    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Minimum seconds of serial products in the kernel phase.
    fn kernel_s(&self) -> f64 {
        if self.quick {
            0.05
        } else {
            0.5
        }
    }

    /// The workload's problem as a run spec: mesh, partition, schedule,
    /// input and fault seeds. `quake_sf5` uses only the mesh fields.
    pub fn spec(&self) -> RunSpec {
        let (period, scale) = match (self.workload.as_str(), self.quick) {
            (_, true) => (10.0, 10.0),
            // Scale 3 puts the sf5 matrix (~155 MB) out of the shared
            // cache, so the product streams from memory. Cache-resident at
            // scale 6 (~38 MB), its speed followed the other tenants' use of
            // the cache and cores: 2.0 to 3.5 ms a product from run to run.
            ("quake_sf5" | "exec_sf5", false) => (5.0, 3.0),
            (_, false) => (10.0, 6.0),
        };
        let mut spec = RunSpec {
            period,
            scale,
            seed: self.mesh_seed(),
            parts: 8,
            threads: 1,
            partitioner: "rib".into(),
            x_kind: "rng".into(),
            x_seed: self.x_seed(),
            kernel: "micro".into(),
            shards: 2,
            ..RunSpec::default()
        };
        match self.workload.as_str() {
            "exec_sf5" => spec.parts = 4,
            "chaos_sf10" => {
                spec.fault_rate = 0.02;
                spec.fault_seed = self.fault_seed();
                spec.recovery = "restart".into();
                spec.checkpoint_every = 5;
                spec.steps = if self.quick { 100 } else { CHAOS_BLOCK };
            }
            "proc_sf10" => spec.steps = if self.quick { 200 } else { PROC_STEPS },
            _ => {}
        }
        spec
    }
}

/// An exchange waiting to be priced: the Eq. (2) and max-rate prices need
/// the host's socket figures, which are measured after the workload.
struct PendingExchange {
    report: ExecutionReport,
    comm: CommAnalysis,
    nodes: usize,
    /// The run's own measured link (proc), else the host calibration's.
    link: Option<(f64, f64)>,
    measured_ms: f64,
}

/// What a workload run produced.
pub struct Outcome {
    pub ledger: Ledger,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metrics this run actually measured; the others are layers the
    /// workload does not exercise.
    pub exercised: Vec<&'static str>,
    /// Workload configuration for the manifest, as rendered JSON values.
    pub config: Vec<(&'static str, String)>,
    /// Displacement hashes (quake only), keyed by step count.
    pub hashes: Vec<(String, u64)>,
    /// Bytes one serial product on this workload's matrix moves: the
    /// working-set size of the bandwidth calibration.
    pub kernel_bytes: f64,
    pub tracer: Tracer,
    /// Per-repetition samples behind a metric, for the artifact.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Steps completed per second over the timed loop (untraced runs).
    /// Printed and recorded, but not an end-to-end metric: slow steps
    /// weigh in it, and on `chaos_sf10` their share followed the host
    /// (see README.md).
    pub steps_per_s: f64,
    pending: Option<PendingExchange>,
}

impl Outcome {
    fn new(o: &Opts) -> Self {
        let names: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
        Outcome {
            ledger: Ledger {
                perturb_pending: o.perturb,
                ..Ledger::default()
            },
            metrics: names.iter().map(|&(n, _)| (n, 0.0)).collect(),
            exercised: Vec::new(),
            config: Vec::new(),
            hashes: Vec::new(),
            kernel_bytes: 0.0,
            tracer: Tracer::new(o.trace),
            samples: Vec::new(),
            steps_per_s: 0.0,
            pending: None,
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        *self.metrics.get_mut(name).expect("metric is declared") = v;
        if !self.exercised.contains(&name) {
            self.exercised.push(name);
        }
    }

    /// Fills the end-to-end metrics of an in-process loop.
    fn end_to_end(&mut self, times: &[f64], setups: &[f64]) -> Result<(), String> {
        self.steps_per_s = times.len() as f64 / times.iter().sum::<f64>();
        self.set("step_p50_ms", median(times) * 1e3);
        self.set("setup_s", median(setups));
        self.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        // Throughput per second of the loop, for the artifact: it shows
        // how the host's speed moved during the run.
        self.samples.push(("rate_per_1s_window", window_rates(times, 1.0)));
        Ok(())
    }

    fn kernel(&mut self, k: &KernelPhase) {
        self.set("kernel.product_ms", k.product_ms);
        self.set("kernel.bytes", k.bytes);
        self.set("kernel.flops", k.flops);
        self.set("kernel.gbps", k.bytes / (k.product_ms * 1e-3) / 1e9);
        self.kernel_bytes = k.bytes;
    }

    fn setup_layers(&mut self, built: &Built, t: &BuildTimes, comm: &CommAnalysis) {
        self.set("mesh.generate_s", t.mesh_s);
        self.set("mesh.nodes", built.app.mesh.node_count() as f64);
        self.set("mesh.elements", built.app.mesh.element_count() as f64);
        self.set("partition.s", t.partition_s);
        self.set("partition.f_max", comm.f_max() as f64);
        self.set("partition.c_max_words", comm.c_max() as f64);
        self.set("partition.b_max_blocks", comm.b_max() as f64);
        self.set("distributed.build_s", t.distributed_s);
    }

    /// Per-step phase times from the executor's report, as medians.
    fn phases(&mut self, s: &PhaseSamples) {
        self.set("exec.assemble_ms", median(&s.assemble) * 1e3);
        self.set("exec.compute_ms", median(&s.compute) * 1e3);
        self.set("exec.exchange_ms", median(&s.exchange) * 1e3);
        self.set("exec.fold_ms", median(&s.fold) * 1e3);
        self.set("exec.barrier_ms", median(&s.barrier) * 1e3);
    }

    fn loop_tail(&mut self, traced: &[f64], untraced: &[f64]) {
        self.set("loop.step_p99_ms", quantile(traced, 0.99) * 1e3);
        self.set("loop.step_n", traced.len() as f64);
        self.set("trace.overhead", median(traced) / median(untraced));
    }

    /// Derives the metrics that need the host calibration.
    pub fn calibrated(&mut self, c: &Calibration) {
        if !self.metrics.contains_key("host.copy_gbps_ws") {
            return;
        }
        self.set("host.copy_gbps_ws", c.copy_gbps_ws);
        self.set("host.copy_ws_bytes", c.ws_bytes);
        self.set("host.copy_gbps_dram", c.copy_gbps_dram);
        self.set("host.copy_dram_array_bytes", c.dram_array_bytes);
        self.set("host.ref_kernel_ms", c.ref_kernel_ms);
        self.set("host.socket_t_l_us", c.socket_t_l_s * 1e6);
        self.set("host.socket_t_w_ns", c.socket_t_w_s * 1e9);
        if !self.exercised.contains(&"proc.bootstrap_s") {
            self.set("proc.bootstrap_s", c.proc_run_s);
        }
        let gbps = self.metrics["kernel.gbps"];
        self.set("kernel.frac_of_bound", gbps / c.copy_gbps_ws);
        let Some(p) = self.pending.take() else {
            return;
        };
        let (t_l, t_w) = p.link.unwrap_or((c.socket_t_l_s, c.socket_t_w_s));
        let steps = p.report.steps.max(1) as f64;
        let words: u64 = p.report.pe.iter().map(|c| c.words_sent).sum();
        let blocks: u64 = p.report.pe.iter().map(|c| c.blocks_sent).sum();
        self.set("exchange.words_per_step", words as f64 / steps);
        self.set("exchange.blocks_per_step", blocks as f64 / steps);
        let eq2 = modeled_comm_time(&p.report.comm_loads(), t_l, t_w) * 1e3;
        let maxrate = MaxRateAnalysis::from_comm(p.comm, p.nodes).predicted(t_l, t_w) * 1e3;
        self.set("exchange.eq2_pred_ms", eq2);
        self.set("exchange.maxrate_pred_ms", maxrate);
        self.set("exchange.frac_of_bound", maxrate / p.measured_ms);
    }
}

/// Runs one workload.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new(o);
    let spec = o.spec();
    out.config.extend([
        ("period_s", jnum(spec.period)),
        ("scale", jnum(spec.scale)),
        ("threads", spec.threads.to_string()),
        ("warmup_steps", WARMUP.to_string()),
        ("setup_reps", o.setup_reps().to_string()),
    ]);
    if o.workload != "quake_sf5" {
        out.config.extend([
            ("parts", spec.parts.to_string()),
            ("partitioner", jstr(&spec.partitioner)),
            ("schedule", jstr("barrier")),
            ("kernel", jstr(&spec.kernel)),
            ("x", jstr(&spec.x_kind)),
            ("steps_per_block", spec.steps.to_string()),
        ]);
    }
    match o.workload.as_str() {
        "quake_sf5" => quake(o, &spec, &mut out)?,
        "exec_sf5" => exec(o, &spec, &mut out, false)?,
        "chaos_sf10" => {
            out.config.extend([
                ("fault_rate", jnum(spec.fault_rate)),
                ("recovery", jstr(&spec.recovery)),
                ("checkpoint_every", spec.checkpoint_every.to_string()),
            ]);
            exec(o, &spec, &mut out, true)?
        }
        "proc_sf10" => {
            out.config.push(("shards", spec.shards.to_string()));
            proc(o, &spec, &mut out)?
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn app_config(spec: &RunSpec) -> AppConfig {
    let mut config = AppConfig::new(format!("sf{}", spec.period), spec.period, spec.scale);
    config.seed = spec.seed;
    config
}

/// The material of the spec-driven builder. It mirrors
/// `transport::run::build`, which the proc shard children call, so both
/// sides build the identical problem; the proc output check fails if the
/// two ever diverge.
fn spec_material(app: &QuakeApp) -> UniformMaterial {
    UniformMaterial(Material {
        vs: app.ground.vs_rock,
        vp: 2.0 * app.ground.vs_rock,
        rho: 2600.0,
    })
}

/// Setup layer times of one spec-driven build.
struct BuildTimes {
    mesh_s: f64,
    partition_s: f64,
    distributed_s: f64,
}

/// Builds a spec's problem layer by layer, one span per layer.
fn build_problem(spec: &RunSpec, tr: &mut Tracer) -> Result<(Built, BuildTimes), String> {
    let (app, mesh_s) = tr.span("mesh.generate", || QuakeApp::generate(app_config(spec)));
    let app = app.map_err(|e| e.to_string())?;
    let strat = partitioner(&spec.partitioner)?;
    let (partition, partition_s) = tr.span("partition", || strat.partition(&app.mesh, spec.parts));
    let partition = partition.map_err(|e| e.to_string())?;
    let (system, distributed_s) = tr.span("distributed.build", || {
        DistributedSystem::build(&app.mesh, &partition, &spec_material(&app))
    });
    let system = system.map_err(|e| e.to_string())?;
    let x = make_x(spec, app.mesh.node_count())?;
    let times = BuildTimes {
        mesh_s,
        partition_s,
        distributed_s,
    };
    let built = Built {
        app,
        partition,
        system,
        x,
    };
    Ok((built, times))
}

/// Builds the executor's step plan over a shared-memory transport.
fn plan(system: &DistributedSystem, spec: &RunSpec, tr: &mut Tracer) -> (BspExecutor, f64) {
    tr.span("exec.plan", || {
        let p = system.subdomains().len();
        let link = Arc::new(SharedTransport::new(&ghost_edges(system)));
        BspExecutor::with_transport(system, spec.threads, spec.rcm, spec.overlap, 0..p, link)
    })
}

/// Arms the seeded fault plan of chaos block `block`.
fn arm(exec: &mut BspExecutor, spec: &RunSpec, block: u64) {
    let plan = FaultPlan::generate(
        spec.fault_seed.wrapping_add(block),
        spec.steps,
        spec.parts,
        &FaultRates::uniform(spec.fault_rate),
    );
    exec.enable_faults(plan, RecoveryPolicy::Restart, spec.checkpoint_every);
}

/// True when every PE's flops, words and blocks per step equal the
/// partition's `CommAnalysis` exactly.
fn counters_match(report: &ExecutionReport, comm: &CommAnalysis) -> bool {
    let s = report.steps;
    s > 0
        && report.pe.len() == comm.parts()
        && report.pe.iter().zip(comm.per_pe()).all(|(c, l)| {
            c.flops == l.flops * s && c.words() == l.words * s && c.blocks() == l.blocks * s
        })
}

/// Computed (not measured) bytes one serial product moves: 72-byte tiles
/// plus 8-byte column indices, the row pointers, x read and y written.
fn product_bytes(block_nnz: f64, rows: f64) -> f64 {
    block_nnz * (72.0 + 8.0) + (rows + 1.0) * 8.0 + 2.0 * 24.0 * rows
}

/// The working-set size of the product on `app`'s mesh, from its pattern.
fn mesh_product_bytes(app: &QuakeApp) -> f64 {
    let pattern = app.mesh.pattern();
    product_bytes(pattern.block_nnz() as f64, pattern.node_count() as f64)
}

/// The serial product on a workload's global matrix, timed in a phase of
/// its own with only this one copy of the matrix live.
struct KernelPhase {
    product_ms: f64,
    bytes: f64,
    flops: f64,
}

impl KernelPhase {
    fn measure(k: &Bcsr3, min_s: f64) -> Self {
        let n = k.block_rows();
        let x: Vec<Vec3> = (0..n)
            .map(|i| {
                let s = i as f64;
                Vec3::new((0.1 * s).sin(), (0.2 * s).cos(), (0.3 * s).sin())
            })
            .collect();
        let mut y = vec![Vec3::ZERO; n];
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < WARMUP + 30 || start.elapsed().as_secs_f64() < min_s {
            let t = Instant::now();
            k.spmv(std::hint::black_box(&x), &mut y)
                .expect("kernel dimensions match");
            times.push(t.elapsed().as_secs_f64());
            std::hint::black_box(&mut y);
        }
        KernelPhase {
            product_ms: median(&times[WARMUP..]) * 1e3,
            bytes: product_bytes(k.block_nnz() as f64, n as f64),
            flops: k.smvp_flops() as f64,
        }
    }

    /// Generates the mesh, assembles the global matrix (ground-model or
    /// the spec's uniform material), times the product, and drops it all again.
    fn run(o: &Opts, spec: &RunSpec, ground: bool, tr: &mut Tracer) -> Result<Self, String> {
        tr.open("kernel.phase");
        let app = QuakeApp::generate(app_config(spec)).map_err(|e| e.to_string())?;
        let system = if ground {
            assemble(&app.mesh, &GroundMaterial(&app.ground))
        } else {
            assemble(&app.mesh, &spec_material(&app))
        };
        let system = system.map_err(|e| e.to_string())?;
        drop(app);
        let (k, _) = tr.span("kernel.product", || {
            Self::measure(&system.stiffness, o.kernel_s())
        });
        tr.close();
        Ok(k)
    }
}

/// Leaves the first `WARMUP` samples out of the statistics.
fn steady(times: &[f64]) -> &[f64] {
    &times[WARMUP.min(times.len().saturating_sub(1))..]
}

// ---------------------------------------------------------------------------
// quake_sf5: the serial Simulation time loop
// ---------------------------------------------------------------------------

/// The `quake simulate` set-up: ground-model assembly, a stable explicit
/// step, a Ricker source 2 km under the basin centre and a surface
/// receiver above it.
fn quake_sim(app: &QuakeApp, tr: &mut Tracer) -> Result<(Simulation, f64), String> {
    let (system, assemble_s) = tr.span("fem.assemble", || {
        assemble(&app.mesh, &GroundMaterial(&app.ground))
    });
    let system = system.map_err(|e| e.to_string())?;
    tr.open("fem.simulation");
    let max_vp = 3f64.sqrt() * app.ground.vs_rock;
    let dt = Simulation::stable_dt(&app.mesh, max_vp, 0.4);
    let mut sim = Simulation::new(system, dt).map_err(|e| e.to_string())?;
    let centre = app.ground.basin_center_surface();
    sim.add_source(PointSource::nearest(
        &app.mesh,
        centre + Vec3::new(0.0, 0.0, -2_000.0),
        Vec3::new(0.0, 0.0, 1e15),
        Ricker::new(1.0 / app.config.period_s),
    ));
    let rx = PointSource::nearest(&app.mesh, centre, Vec3::ZERO, Ricker::new(1.0)).node;
    sim.add_receiver(rx);
    tr.close();
    Ok((sim, assemble_s))
}

/// Advances `sim` for `max_steps` steps or until `max_s` seconds have
/// passed, timing each `advance` and checking that the displacement
/// energy stays finite.
fn quake_steps(
    sim: &mut Simulation,
    ledger: &mut Ledger,
    tr: &mut Tracer,
    traced: bool,
    max_steps: usize,
    max_s: f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < max_steps {
        let t = Instant::now();
        if traced {
            tr.open("step");
        }
        sim.advance();
        if traced {
            tr.close();
        }
        times.push(t.elapsed().as_secs_f64());
        let ok = ledger.finite_ok(sim.displacement_energy());
        ledger.op(ok);
        if start.elapsed().as_secs_f64() >= max_s {
            break;
        }
    }
    times
}

fn quake(o: &Opts, spec: &RunSpec, out: &mut Outcome) -> Result<(), String> {
    if !o.trace {
        let mut setups = Vec::new();
        let mut live = None;
        for _ in 0..o.setup_reps() {
            drop(live.take());
            let t = Instant::now();
            let app = QuakeApp::generate(app_config(spec)).map_err(|e| e.to_string())?;
            let (sim, _) = quake_sim(&app, &mut out.tracer)?;
            setups.push(t.elapsed().as_secs_f64());
            live = Some((app, sim));
        }
        let (app, mut sim) = live.expect("at least one set-up");
        let times = quake_steps(
            &mut sim,
            &mut out.ledger,
            &mut out.tracer,
            false,
            usize::MAX,
            o.seconds,
        );
        out.hashes.push((
            format!("step{}", sim.step_count()),
            hash_field(sim.displacement()),
        ));
        out.end_to_end(steady(&times), &setups)?;
        out.kernel_bytes = mesh_product_bytes(&app);
        return Ok(());
    }
    let k = KernelPhase::run(o, spec, true, &mut out.tracer)?;
    out.kernel(&k);

    out.tracer.open("setup");
    let (app, mesh_s) = out
        .tracer
        .span("mesh.generate", || QuakeApp::generate(app_config(spec)));
    let app = app.map_err(|e| e.to_string())?;
    let (mut sim, assemble_s) = quake_sim(&app, &mut out.tracer)?;
    out.tracer.close();
    out.set("mesh.generate_s", mesh_s);
    out.set("mesh.nodes", app.mesh.node_count() as f64);
    out.set("mesh.elements", app.mesh.element_count() as f64);
    out.set("fem.assemble_s", assemble_s);

    // Untraced, then traced on a fresh simulation for the same number of
    // steps: the two final displacements must agree bit for bit.
    let untraced = quake_steps(
        &mut sim,
        &mut out.ledger,
        &mut out.tracer,
        false,
        usize::MAX,
        o.seconds / 2.0,
    );
    let hash_u = hash_field(sim.displacement());
    drop(sim);
    let (mut sim, _) = quake_sim(&app, &mut out.tracer)?;
    let traced = quake_steps(
        &mut sim,
        &mut out.ledger,
        &mut out.tracer,
        true,
        untraced.len(),
        f64::INFINITY,
    );
    let hash_t = hash_field(sim.displacement());
    out.hashes
        .push((format!("step{}", sim.step_count()), hash_t));
    out.ledger
        .gate("quake_traced_equals_untraced", hash_u == hash_t);
    if hash_u != hash_t {
        out.ledger.fail(traced.len() as u64);
    }

    let (untraced, traced) = (steady(&untraced), steady(&traced));
    out.set("fem.update_ms", median(untraced) * 1e3 - k.product_ms);
    out.loop_tail(traced, untraced);
    Ok(())
}

// ---------------------------------------------------------------------------
// exec_sf5 and chaos_sf10: BspExecutor over the shared-memory transport
// ---------------------------------------------------------------------------

/// Per-step phase times, read from the executor's report around each
/// traced step.
#[derive(Default)]
struct PhaseSamples {
    assemble: Vec<f64>,
    compute: Vec<f64>,
    exchange: Vec<f64>,
    fold: Vec<f64>,
    /// Barrier wait per step, averaged over PEs.
    barrier: Vec<f64>,
}

impl PhaseSamples {
    fn push(&mut self, before: &ExecutionReport, after: &ExecutionReport) {
        let (a, b) = (&before.phases, &after.phases);
        self.assemble.push(b.assemble - a.assemble);
        self.compute.push(b.compute - a.compute);
        self.exchange.push(b.exchange - a.exchange);
        self.fold.push(b.fold - a.fold);
        let pes = after.pe.len().max(1) as f64;
        let wait: f64 = before
            .pe
            .iter()
            .zip(&after.pe)
            .map(|(x, y)| y.t_barrier - x.t_barrier)
            .sum();
        self.barrier.push(wait / pes);
    }
}

/// The fixed inputs every executor step is checked against.
struct ExecCheck<'a> {
    x: &'a [Vec3],
    oracle: &'a [Vec3],
    comm: &'a CommAnalysis,
}

/// Steps `exec` for `max_steps` steps or until `max_s` seconds have
/// passed, timing each step and checking each output bitwise against the
/// oracle. With `phases`, each step also reads the executor's report
/// inside its span, and that read counts toward the step's time.
fn exec_steps(
    exec: &mut BspExecutor,
    check: &ExecCheck,
    out: &mut Outcome,
    mut phases: Option<&mut PhaseSamples>,
    max_steps: u64,
    max_s: f64,
) -> Vec<f64> {
    let mut y = vec![Vec3::ZERO; check.x.len()];
    let start = Instant::now();
    let mut times = Vec::new();
    let mut before = phases.as_ref().map(|_| exec.report());
    while (times.len() as u64) < max_steps {
        let t = Instant::now();
        if let Some(s) = phases.as_deref_mut() {
            out.tracer.open("step");
            exec.step_into(check.x, &mut y);
            out.tracer.close();
            let after = exec.report();
            s.push(before.as_ref().expect("read before the loop"), &after);
            before = Some(after);
        } else {
            exec.step_into(check.x, &mut y);
        }
        times.push(t.elapsed().as_secs_f64());
        let ok = out.ledger.output_ok(&y, check.oracle);
        out.ledger.op(ok);
        if start.elapsed().as_secs_f64() >= max_s {
            break;
        }
    }
    times
}

/// Closes a block of `steps` steps: the PE counters must match the
/// partition's analysis, and under chaos every injected fault must be
/// detected and recovered. A failed gate fails the block's steps.
fn close_block(
    exec: &BspExecutor,
    check: &ExecCheck,
    out: &mut Outcome,
    steps: u64,
) -> ExecutionReport {
    let report = exec.report();
    let counted = counters_match(&report, check.comm);
    out.ledger.gate("counters_match_comm_analysis", counted);
    if !counted {
        out.ledger.fail(steps);
    }
    if let Some(f) = &report.fault {
        out.ledger.gate("fault_report_balanced", f.balanced());
        out.ledger
            .fail(f.injected.total().saturating_sub(f.recovered.total()));
    }
    report
}

fn exec(o: &Opts, spec: &RunSpec, out: &mut Outcome, chaos: bool) -> Result<(), String> {
    let k = if o.trace {
        Some(KernelPhase::run(o, spec, false, &mut out.tracer)?)
    } else {
        None
    };
    // Set-up: build and plan (and arm); the untraced run repeats it and
    // keeps the last.
    let reps = if o.trace { 1 } else { o.setup_reps() };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..reps {
        drop(live.take());
        out.tracer.open("setup");
        let (built, times) = build_problem(spec, &mut out.tracer)?;
        let (mut exec, plan_s) = plan(&built.system, spec, &mut out.tracer);
        if chaos {
            arm(&mut exec, spec, 0);
        }
        setups.push(out.tracer.close());
        live = Some((built, times, exec, plan_s));
    }
    let (built, times, mut exec, plan_s) = live.expect("at least one set-up");
    let comm = CommAnalysis::new(&built.app.mesh, &built.partition);
    let oracle = built.system.smvp(&built.x);
    let check = ExecCheck {
        x: &built.x,
        oracle: &oracle,
        comm: &comm,
    };
    let block = if chaos { spec.steps } else { u64::MAX };

    if !o.trace {
        let start = Instant::now();
        let mut all = Vec::new();
        for b in 1.. {
            let left = o.seconds - start.elapsed().as_secs_f64();
            let t = exec_steps(&mut exec, &check, out, None, block, left);
            close_block(&exec, &check, out, t.len() as u64);
            all.extend_from_slice(steady(&t));
            if start.elapsed().as_secs_f64() >= o.seconds {
                break;
            }
            exec = plan(&built.system, spec, &mut out.tracer).0;
            arm(&mut exec, spec, b);
        }
        out.end_to_end(&all, &setups)?;
        out.kernel_bytes = mesh_product_bytes(&built.app);
        return Ok(());
    }

    let k = k.expect("traced runs measure the kernel");
    out.kernel(&k);
    out.setup_layers(&built, &times, &comm);
    out.set("exec.plan_s", plan_s);
    let max_s = if chaos {
        f64::INFINITY
    } else {
        o.seconds / 2.0
    };
    let untraced = exec_steps(&mut exec, &check, out, None, block, max_s);
    let report_u = close_block(&exec, &check, out, untraced.len() as u64);
    if chaos {
        // The same block again on a fresh executor: same plan, same faults.
        exec = plan(&built.system, spec, &mut out.tracer).0;
        arm(&mut exec, spec, 0);
    }
    let mut phases = PhaseSamples::default();
    let n = untraced.len() as u64;
    let traced = exec_steps(&mut exec, &check, out, Some(&mut phases), n, f64::INFINITY);
    let report = close_block(&exec, &check, out, n);
    if let Some(f) = &report.fault {
        out.ledger
            .gate("fault_counts_repeat", report_u.fault == report.fault);
        out.set("fault.injected", f.injected.total() as f64);
        out.set("fault.recovered", f.recovered.total() as f64);
        out.set("fault.retries", f.retries as f64);
        out.set("fault.refetches", f.refetches as f64);
        out.set("fault.replayed_steps", f.replayed_steps as f64);
        out.set("fault.respawned_workers", f.respawned_workers as f64);
        // The same block with no fault plan armed.
        let mut clean = plan(&built.system, spec, &mut out.tracer).0;
        let disarmed = exec_steps(&mut clean, &check, out, None, n, f64::INFINITY);
        close_block(&clean, &check, out, n);
        out.set(
            "fault.overhead_ratio",
            median(steady(&untraced)) / median(steady(&disarmed)),
        );
    }
    let (untraced, traced) = (steady(&untraced), steady(&traced));
    out.phases(&phases);
    out.set("exec.efficiency", report.efficiency());
    out.set("exec.overhead_ratio", median(untraced) * 1e3 / k.product_ms);
    out.loop_tail(traced, untraced);
    out.pending = Some(PendingExchange {
        report,
        comm: comm.clone(),
        nodes: spec.parts,
        link: None,
        measured_ms: median(&phases.exchange) * 1e3,
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// proc_sf10: shard processes over Unix-domain sockets
// ---------------------------------------------------------------------------

/// One proc run, counted as one operation: its folded output must equal
/// the oracle bitwise and its counters must match the analysis.
fn proc_run(
    spec: &RunSpec,
    built: &Built,
    check: &ExecCheck,
    out: &mut Outcome,
) -> (f64, Option<RunOutput>) {
    let t = Instant::now();
    let run = run_with(TransportKind::Proc, spec, built);
    let dt = t.elapsed().as_secs_f64();
    match run {
        Ok(r) => {
            let y_ok = out.ledger.output_ok(&r.y, check.oracle);
            let counted = counters_match(&r.report, check.comm);
            out.ledger.gate("counters_match_comm_analysis", counted);
            out.ledger.op(y_ok && counted);
            (dt, Some(r))
        }
        Err(e) => {
            eprintln!("proc run failed: {e}");
            out.ledger.gate("proc_runs_complete", false);
            out.ledger.op(false);
            (dt, None)
        }
    }
}

fn proc(o: &Opts, spec: &RunSpec, out: &mut Outcome) -> Result<(), String> {
    let k = if o.trace {
        Some(KernelPhase::run(o, spec, false, &mut out.tracer)?)
    } else {
        None
    };
    let one = RunSpec {
        steps: 1,
        ..spec.clone()
    };
    let n = spec.steps;
    // Untraced runs rebuild the parent's problem each repetition so that
    // set-up is measured several times; traced runs build once and
    // alternate untraced and traced repetitions.
    let mut setups = Vec::new();
    let (mut per_step_u, mut per_step_t, mut boots) = (Vec::new(), Vec::new(), Vec::new());
    let (mut phases, mut effs, mut exch, mut links) =
        (PhaseSamples::default(), Vec::new(), Vec::new(), Vec::new());
    let mut last_report = None;
    let mut live: Option<(Built, CommAnalysis, Vec<Vec3>)> = None;
    let start = Instant::now();
    for rep in 0.. {
        let mut build_s = 0.0;
        if !o.trace || live.is_none() {
            drop(live.take());
            let t = Instant::now();
            let (built, times) = build_problem(spec, &mut out.tracer)?;
            build_s = t.elapsed().as_secs_f64();
            let comm = CommAnalysis::new(&built.app.mesh, &built.partition);
            if o.trace {
                out.setup_layers(&built, &times, &comm);
            }
            let oracle = built.system.smvp(&built.x);
            live = Some((built, comm, oracle));
        }
        let (built, comm, oracle) = live.as_ref().expect("built above");
        let check = ExecCheck {
            x: &built.x,
            oracle,
            comm,
        };
        let traced = o.trace && rep % 2 == 1;
        if traced {
            out.tracer.open("proc.rep");
        }
        let (t1, _) = proc_run(&one, built, &check, out);
        let (tn, run) = proc_run(spec, built, &check, out);
        if traced {
            out.tracer.close();
        }
        setups.push(build_s + t1);
        let per_step = (tn - t1) / (n - 1) as f64;
        if traced {
            per_step_t.push(per_step);
        } else {
            per_step_u.push(per_step);
            boots.push(t1);
        }
        if let Some(r) = run {
            let steps = r.report.steps.max(1) as f64;
            let p = &r.report.phases;
            phases.assemble.push(p.assemble / steps);
            phases.compute.push(p.compute / steps);
            phases.exchange.push(p.exchange / steps);
            phases.fold.push(p.fold / steps);
            let wait: f64 = r.report.pe.iter().map(|c| c.t_barrier).sum();
            phases
                .barrier
                .push(wait / r.report.pe.len().max(1) as f64 / steps);
            effs.push(r.report.efficiency());
            exch.push(r.report.t_exchange_per_step() * 1e3);
            links.push(r.link);
            last_report = Some(r.report);
        }
        if rep >= 1 && start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let (built, comm, _) = live.expect("at least one repetition");
    out.samples.push(("proc.per_step_s", per_step_u.clone()));
    out.samples.push(("proc.one_step_run_s", boots.clone()));
    if !o.trace {
        let per_step = median(&per_step_u);
        out.steps_per_s = 1.0 / per_step;
        out.set("step_p50_ms", per_step * 1e3);
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        out.kernel_bytes = mesh_product_bytes(&built.app);
        return Ok(());
    }
    let k = k.expect("traced runs measure the kernel");
    out.kernel(&k);
    out.phases(&phases);
    out.set("exec.efficiency", median(&effs));
    out.set(
        "exec.overhead_ratio",
        median(&per_step_u) * 1e3 / k.product_ms,
    );
    out.set("proc.bootstrap_s", median(&boots) - median(&per_step_u));
    out.set("trace.overhead", median(&per_step_t) / median(&per_step_u));
    if let Some(report) = last_report {
        let t_l: Vec<f64> = links.iter().map(|l| l.t_l).collect();
        let t_w: Vec<f64> = links.iter().map(|l| l.t_w).collect();
        out.pending = Some(PendingExchange {
            report,
            comm,
            nodes: spec.shards,
            link: Some((median(&t_l), median(&t_w))),
            measured_ms: median(&exch),
        });
    }
    Ok(())
}
