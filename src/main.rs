//! `quake` — the reproduction's command-line driver.

use quake_app::characterize::AnalyzedInstance;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::report::{fmt_mb_per_s, fmt_seconds, telemetry_summary, Table};
use quake_core::machine::{BlockRegime, Processor};
use quake_core::model::eq1::{required_sustained_bandwidth, required_tc};
use quake_core::model::eq2::half_bandwidth_point;
use quake_core::paperdata;
use quake_fem::assembly::{assemble, GroundMaterial};
use quake_fem::source::{PointSource, Ricker};
use quake_fem::timestep::Simulation;
use quake_repro::cli::{help, CliError, Invocation};
use quake_sparse::dense::Vec3;
use std::process::ExitCode;

/// Exit code for malformed command lines, distinct from runtime failures
/// (`1`) per Unix convention.
const EXIT_USAGE: u8 = 2;

fn usage_error(e: &CliError) -> ExitCode {
    eprintln!("error: {e}");
    eprintln!("usage: quake <command> [--flag value]...  (see 'quake help')");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    // The proc transport re-executes this binary as shard children; the
    // hook routes them into the shard protocol (and never returns for
    // them) before any argument parsing can run.
    quake_app::transport::proc::shard_host_hook();
    let inv = match Invocation::parse(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) => return usage_error(&e),
    };
    let result = match inv.command.as_str() {
        "help" => {
            println!("{}", help());
            Ok(())
        }
        "mesh" => cmd_mesh(&inv),
        "characterize" => cmd_characterize(&inv),
        "requirements" => cmd_requirements(&inv),
        "simulate" => cmd_simulate(&inv),
        "smvp-run" => cmd_smvp_run(&inv),
        other => unreachable!("parser admits only known commands, got {other}"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Flag-validation failures surface from inside commands as boxed
        // CliErrors; they are usage errors too.
        Err(e) => match e.downcast_ref::<CliError>() {
            Some(cli) => usage_error(cli),
            None => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn generate(inv: &Invocation) -> Result<QuakeApp, Box<dyn std::error::Error>> {
    let period: f64 = inv.get("period", 10.0)?;
    let scale: f64 = inv.get("scale", 8.0)?;
    let seed: u64 = inv.get("seed", 0x5eedu64)?;
    let mut config = AppConfig::new(format!("sf{period}"), period, scale);
    config.seed = seed;
    Ok(QuakeApp::generate(config)?)
}

fn cmd_mesh(inv: &Invocation) -> Result<(), Box<dyn std::error::Error>> {
    let app = generate(inv)?;
    let stats = app.size_stats();
    println!("{stats}");
    println!("avg node degree: {:.2}", app.mesh.avg_node_degree());
    println!(
        "estimated runtime memory: {:.2} MB (paper rule: 1.2 KB/node)",
        app.mesh.estimated_runtime_bytes() as f64 / 1e6
    );
    let q = app.mesh.quality();
    println!(
        "radius-edge ratio: mean {:.2}, worst {:.2}",
        q.mean_radius_edge, q.max_radius_edge
    );
    let out = inv.get_str("out", "");
    if !out.is_empty() {
        let file = std::fs::File::create(&out)?;
        quake_mesh::io::write_text(&app.mesh, std::io::BufWriter::new(file))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn partitioner(name: &str) -> Result<Box<dyn quake_partition::geometric::Partitioner>, CliError> {
    use quake_partition::geometric::{LinearPartition, RandomPartition, RecursiveBisection};
    use quake_partition::sfc::MortonPartition;
    use quake_partition::spectral::SpectralBisection;
    Ok(match name {
        "rib" => Box::new(RecursiveBisection::inertial()),
        "rcb" => Box::new(RecursiveBisection::coordinate()),
        "spectral" => Box::new(SpectralBisection::default()),
        "morton" => Box::new(MortonPartition),
        "linear" => Box::new(LinearPartition),
        "random" => Box::new(RandomPartition { seed: 1 }),
        other => {
            return Err(CliError::BadValue {
                flag: "partitioner".to_string(),
                value: other.to_string(),
            })
        }
    })
}

fn cmd_characterize(inv: &Invocation) -> Result<(), Box<dyn std::error::Error>> {
    let app = generate(inv)?;
    let parts = inv.get_usize_list("parts", &[4, 8, 16])?;
    let strat = partitioner(&inv.get_str("partitioner", "rib"))?;
    let mut t = Table::new(vec![
        "instance", "F", "C_max", "B_max", "M_avg", "F/C_max", "beta",
    ]);
    for &p in &parts {
        let a = AnalyzedInstance::characterize(&app.config.name, &app.mesh, strat.as_ref(), p)?;
        let i = &a.instance;
        t.row(vec![
            i.label(),
            i.f.to_string(),
            i.c_max.to_string(),
            i.b_max.to_string(),
            format!("{:.0}", i.m_avg),
            format!("{:.0}", i.comp_comm_ratio()),
            format!("{:.2}", a.beta),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn cmd_requirements(inv: &Invocation) -> Result<(), Box<dyn std::error::Error>> {
    let mflops: f64 = inv.get("mflops", 200.0)?;
    let efficiency: f64 = inv.get("efficiency", 0.9)?;
    if !(efficiency > 0.0 && efficiency < 1.0) {
        return Err(Box::new(CliError::BadValue {
            flag: "efficiency".to_string(),
            value: efficiency.to_string(),
        }));
    }
    let app = inv.get_str("app", "sf2");
    let instances = paperdata::figure7_app(&app);
    if instances.is_empty() {
        return Err(Box::new(CliError::BadValue {
            flag: "app".to_string(),
            value: app,
        }));
    }
    let pe = Processor::from_mflops("target", mflops);
    let mut t = Table::new(vec![
        "instance",
        "sustained (MB/s)",
        "burst@half (MB/s)",
        "T_l@half (maximal)",
        "T_l@half (4-word)",
    ]);
    for inst in &instances {
        let t_c = required_tc(inst, efficiency, pe.t_f);
        let maximal = half_bandwidth_point(inst, t_c, BlockRegime::Maximal);
        let fixed = half_bandwidth_point(inst, t_c, BlockRegime::CACHE_LINE);
        t.row(vec![
            inst.label(),
            fmt_mb_per_s(required_sustained_bandwidth(inst, efficiency, &pe)),
            fmt_mb_per_s(maximal.burst_bandwidth_bytes()),
            fmt_seconds(maximal.t_l),
            fmt_seconds(fixed.t_l),
        ]);
    }
    println!("requirements for {mflops:.0}-MFLOP PEs at E = {efficiency} (paper Figure 7 data):\n");
    println!("{}", t.render());
    Ok(())
}

fn cmd_smvp_run(inv: &Invocation) -> Result<(), Box<dyn std::error::Error>> {
    use quake_app::executor::BspExecutor;
    use quake_app::transport::{ghost_edges, NetsimTransport, TransportKind};
    use quake_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
    use quake_core::machine::Network;
    use quake_core::model::validate::validate;
    use quake_core::telemetry::TelemetryConfig;
    use quake_fem::assembly::UniformMaterial;
    use quake_mesh::ground::Material;
    use std::sync::Arc;

    let app = generate(inv)?;
    let parts: usize = inv.get("parts", 4usize)?;
    let threads: usize = inv.get("threads", 4usize)?;
    let steps: u64 = inv.get("steps", 25u64)?;
    let fault_seed: u64 = inv.get("fault-seed", 0u64)?;
    let fault_rate: f64 = inv.get("fault-rate", 0.0f64)?;
    let checkpoint_every: u64 = inv.get("checkpoint-every", 5u64)?;
    let quiet: bool = inv.get("quiet", false)?;
    let trace_json = inv.get_str("trace-json", "");
    let metrics = inv.get_str("metrics", "");
    let drift_threshold: f64 = inv.get("drift-threshold", 2.0f64)?;
    let span_capacity: usize = inv.get("span-capacity", 65_536usize)?;
    // --profile mirrors --trace's on/off grammar; --profile-json implies
    // it the same way the trace exporters imply --trace.
    let profile = inv.get_str("profile", "");
    let profile_json = inv.get_str("profile-json", "");
    let profile_on = match profile.as_str() {
        "on" => true,
        "off" if profile_json.is_empty() => false,
        "off" => {
            return Err(Box::new(CliError::BadValue {
                flag: "profile".to_string(),
                value: "off (conflicts with --profile-json)".to_string(),
            }))
        }
        "" => !profile_json.is_empty(),
        _ => {
            return Err(Box::new(CliError::BadValue {
                flag: "profile".to_string(),
                value: profile,
            }))
        }
    };
    // --trace defaults to on as soon as an exporter (or the profiler,
    // which attributes from the span telemetry) needs the data; an
    // explicit `off` alongside any of them is contradictory.
    let trace = inv.get_str("trace", "");
    let telemetry_on = match trace.as_str() {
        "on" => true,
        "off" if trace_json.is_empty() && metrics.is_empty() && !profile_on => false,
        "off" => {
            return Err(Box::new(CliError::BadValue {
                flag: "trace".to_string(),
                value: "off (conflicts with --trace-json/--metrics/--profile)".to_string(),
            }))
        }
        "" => !trace_json.is_empty() || !metrics.is_empty() || profile_on,
        _ => {
            return Err(Box::new(CliError::BadValue {
                flag: "trace".to_string(),
                value: trace,
            }))
        }
    };
    if !(drift_threshold.is_finite() && drift_threshold > 0.0) {
        return Err(Box::new(CliError::BadValue {
            flag: "drift-threshold".to_string(),
            value: drift_threshold.to_string(),
        }));
    }
    let recovery: RecoveryPolicy =
        inv.get_str("recovery", "restart")
            .parse()
            .map_err(|_| CliError::BadValue {
                flag: "recovery".to_string(),
                value: inv.get_str("recovery", "restart"),
            })?;
    let fault_json = inv.get_str("fault-json", "");
    // --transport picks the exchange fabric; a misspelling is a usage
    // error (exit 2), matching the other enumerated flags.
    let transport: TransportKind =
        inv.get_str("transport", "shared")
            .parse()
            .map_err(|_| CliError::BadValue {
                flag: "transport".to_string(),
                value: inv.get_str("transport", "shared"),
            })?;
    let shards: usize = inv.get("shards", 2usize)?;
    // The proc fault-domain knobs. One deadline governs the bootstrap
    // window, the heartbeat/staleness clock and the degraded-wait rounds;
    // the wire-chaos plan is seeded so a failing matrix cell replays
    // exactly; the restart budget bounds supervised shard respawns before
    // the parent escalates to the one-shot ensemble retry.
    let conn_timeout: f64 = inv.get("conn-timeout", 30.0f64)?;
    let wire_fault_rate: f64 = inv.get("wire-fault-rate", 0.0f64)?;
    let wire_fault_seed: u64 = inv.get("wire-fault-seed", 0u64)?;
    let restart_budget: u64 = inv.get("restart-budget", 2u64)?;
    // --kernel picks the compute-phase microkernel; both spellings are
    // bitwise-equal, so this is purely a raw-speed knob.
    let kernel: quake_app::executor::KernelKind =
        inv.get_str("kernel", "micro")
            .parse()
            .map_err(|_| CliError::BadValue {
                flag: "kernel".to_string(),
                value: inv.get_str("kernel", "micro"),
            })?;
    // --nodes N arms the node-aware two-level exchange: the spec's shards
    // chunk contiguously onto N nodes, PEs sharing a node gather boundary
    // partials locally, and exactly one merged block per (node, node) pair
    // crosses the slow link. Absent means flat; an explicit 0, a
    // non-integer, or more nodes than shards cannot describe a topology
    // (exit 2).
    let nodes: usize = match inv.get_str("nodes", "").as_str() {
        "" => 0,
        raw => match raw.parse::<usize>() {
            Ok(n) if n >= 1 && n <= shards => n,
            _ => {
                return Err(Box::new(CliError::BadValue {
                    flag: "nodes".to_string(),
                    value: raw.to_string(),
                }))
            }
        },
    };
    // --aggregate off is the ablation arm: the node placement stays (so
    // --wire-latency still prices the same topology) but the exchange
    // runs flat — every boundary block crosses the emulated slow link
    // individually. Only meaningful alongside --nodes.
    let aggregate = match inv.get_str("aggregate", "").as_str() {
        "on" | "" => true,
        "off" => false,
        other => {
            return Err(Box::new(CliError::BadValue {
                flag: "aggregate".to_string(),
                value: other.to_string(),
            }))
        }
    };
    // --wire-latency S holds each ghost frame that crosses a node
    // boundary on the sender for S seconds (netem-style), emulating a
    // fabric whose inter-node leg is slower than its intra-node leg on a
    // single host. Negative, non-finite, or unparsable is a usage error.
    let wire_latency: f64 = inv.get("wire-latency", 0.0f64)?;
    if !(wire_latency.is_finite() && wire_latency >= 0.0) {
        return Err(Box::new(CliError::BadValue {
            flag: "wire-latency".to_string(),
            value: wire_latency.to_string(),
        }));
    }
    for (flag, zero) in [
        ("threads", threads == 0),
        ("steps", steps == 0),
        ("checkpoint-every", checkpoint_every == 0),
        ("span-capacity", span_capacity == 0),
        ("shards", shards == 0),
    ] {
        if zero {
            return Err(Box::new(CliError::BadValue {
                flag: flag.to_string(),
                value: "0".to_string(),
            }));
        }
    }
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(Box::new(CliError::BadValue {
            flag: "fault-rate".to_string(),
            value: fault_rate.to_string(),
        }));
    }
    if !(0.0..=1.0).contains(&wire_fault_rate) {
        return Err(Box::new(CliError::BadValue {
            flag: "wire-fault-rate".to_string(),
            value: wire_fault_rate.to_string(),
        }));
    }
    if !(conn_timeout.is_finite() && conn_timeout > 0.0) {
        return Err(Box::new(CliError::BadValue {
            flag: "conn-timeout".to_string(),
            value: conn_timeout.to_string(),
        }));
    }
    let strat = partitioner(&inv.get_str("partitioner", "rib"))?;
    let partition = strat.partition(&app.mesh, parts)?;

    // Characterization-side prediction and executable system share one
    // partition, so the counter comparison is exact by construction.
    let analyzed = AnalyzedInstance::from_partition(&app.config.name, &app.mesh, &partition);
    let mat = Material {
        vs: app.ground.vs_rock,
        vp: 2.0 * app.ground.vs_rock,
        rho: 2600.0,
    };
    let system = quake_app::DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat))?;

    let x: Vec<Vec3> = (0..app.mesh.node_count())
        .map(|i| {
            let s = i as f64;
            Vec3::new((0.1 * s).sin(), (0.2 * s).cos(), (0.3 * s).sin())
        })
        .collect();
    let rcm: bool = inv.get("rcm", false)?;
    // --overlap mirrors --trace's on/off grammar; anything else is a usage
    // error (exit 2).
    let overlap = match inv.get_str("overlap", "").as_str() {
        "on" => true,
        "off" | "" => false,
        other => {
            return Err(Box::new(CliError::BadValue {
                flag: "overlap".to_string(),
                value: other.to_string(),
            }))
        }
    };
    let spec = quake_app::transport::wire::RunSpec {
        period: inv.get("period", 10.0)?,
        scale: inv.get("scale", 8.0)?,
        seed: inv.get("seed", 0x5eedu64)?,
        parts,
        threads,
        steps,
        partitioner: inv.get_str("partitioner", "rib"),
        rcm,
        overlap,
        fault_rate,
        fault_seed,
        recovery: recovery.to_string(),
        checkpoint_every,
        trace: telemetry_on,
        drift_threshold,
        span_capacity,
        shards,
        x_kind: "trig".to_string(),
        x_seed: 0,
        kernel: kernel.to_string(),
        conn_timeout,
        wire_fault_rate,
        wire_fault_seed,
        restart_budget,
        nodes,
        aggregate,
        wire_latency,
    };
    if transport == TransportKind::Proc {
        let built = quake_app::transport::run::Built {
            app,
            partition,
            system,
            x,
        };
        return run_smvp_proc(
            &spec,
            &built,
            &analyzed,
            quiet,
            &fault_json,
            &metrics,
            &trace_json,
            profile_on,
            &profile_json,
        );
    }
    // Node-aware runs swap in the aggregating fabrics; the executor's
    // schedule never changes (aggregation is transport-level), so output
    // and counters stay bitwise-identical to the flat run.
    let node_map = (nodes >= 1 && aggregate)
        .then(|| quake_app::transport::NodeMap::for_shards(parts, shards, nodes));
    let mut netsim = None;
    let mut exec = match transport {
        TransportKind::Shared => match &node_map {
            Some(map) => {
                let edges = ghost_edges(&system);
                let t: Arc<dyn quake_app::transport::Transport> = Arc::new(
                    quake_app::transport::SharedTransport::with_nodes(&edges, map),
                );
                BspExecutor::with_transport(&system, threads, rcm, overlap, 0..parts, t)
            }
            None => BspExecutor::with_options(&system, threads, rcm, overlap),
        },
        TransportKind::Netsim => {
            let edges = ghost_edges(&system);
            let t = Arc::new(match &node_map {
                Some(map) => NetsimTransport::with_nodes(
                    &edges,
                    parts,
                    Network::cray_t3e(),
                    Network::node_local(),
                    map,
                ),
                None => NetsimTransport::new(&edges, parts, Network::cray_t3e()),
            });
            netsim = Some(Arc::clone(&t));
            BspExecutor::with_transport(&system, threads, rcm, overlap, 0..parts, t)
        }
        TransportKind::Proc => unreachable!("dispatched above"),
    };
    if let Some(map) = &node_map {
        let of: Vec<usize> = (0..parts).map(|q| map.node_of(q)).collect();
        exec.set_node_map(&of);
        if !quiet {
            let mr = quake_partition::comm::MaxRateAnalysis::new(&app.mesh, &partition, nodes);
            let flat = ghost_edges(&system)
                .iter()
                .filter(|e| !map.same_node(e.from, e.to))
                .count();
            println!(
                "node-aware exchange armed: {parts} PEs on {nodes} node(s), {} merged \
                 (node, node) blocks per step replace {flat} flat cross-node edges",
                mr.cross_blocks(),
            );
        }
    }
    exec.set_kernel(kernel);
    if kernel == quake_app::executor::KernelKind::MicroSimd && !quiet {
        println!(
            "kernel micro-simd armed: AVX dispatch {}, row bands sized from the memsim L2",
            if quake_spark::tile_kernels::simd_active() {
                "active"
            } else {
                "unavailable (scalar tile fallback)"
            }
        );
    }
    if overlap && !quiet {
        let split = exec.overlap_boundary_rows().unwrap_or(&[]);
        let boundary: usize = split.iter().sum();
        let total: usize = system.subdomains().iter().map(|sd| sd.node_count()).sum();
        println!(
            "overlap armed: {boundary} boundary rows posted ahead of {} interior rows \
             ({:.1}% of local work hides the exchange)",
            total - boundary,
            100.0 * (total - boundary) as f64 / total.max(1) as f64
        );
    }
    // --fault-rate 0 leaves the chaos layer unarmed: the step engine then
    // skips its fault checks (one per PE, one per inbound message).
    if fault_rate > 0.0 {
        let plan = FaultPlan::generate(fault_seed, steps, parts, &FaultRates::uniform(fault_rate));
        if !quiet {
            println!(
                "chaos armed: {} scheduled events (seed {fault_seed}, rate {fault_rate}), \
                 recovery {recovery}, checkpoint every {checkpoint_every} steps",
                plan.len()
            );
        }
        exec.enable_faults(plan, recovery, checkpoint_every);
    }
    if telemetry_on {
        let mut config = TelemetryConfig {
            span_capacity,
            ..TelemetryConfig::default()
        };
        if let Some(d) = config.drift.as_mut() {
            d.threshold = drift_threshold;
        }
        exec.enable_telemetry(config);
    }
    let y = exec.run(&x, steps);
    let report = exec.report();

    if !quiet {
        println!(
            "{} on {} PEs — {} bulk-synchronous SMVPs over {} pooled worker threads{}",
            app.config.name,
            parts,
            report.steps,
            report.threads,
            match (rcm, overlap) {
                (true, true) => " (RCM-renumbered subdomains, latency-hiding overlap)",
                (true, false) => " (RCM-renumbered subdomains)",
                (false, true) => " (latency-hiding overlap)",
                (false, false) => "",
            }
        );
        println!(
            "phase walls (s): assemble {:.3e}, compute {:.3e}, exchange {:.3e}, fold {:.3e}",
            report.phases.assemble,
            report.phases.compute,
            report.phases.exchange,
            report.phases.fold
        );
        println!("measured efficiency E = {:.4}\n", report.efficiency());
    }
    if let Some(t) = &netsim {
        let net = t.network();
        let busiest = t.modeled_exchange_s().iter().copied().fold(0.0, f64::max);
        if !quiet {
            println!(
                "netsim postal model: busiest-PE modeled exchange {:.3e} s over {} steps \
                 (preset T_l {:.3e} s, T_w {:.3e} s/word)\n",
                busiest, steps, net.t_l, net.t_w
            );
        }
    }
    let validation = validate(&analyzed.instance, &report.measured());
    if !quiet {
        println!("{validation}");
    }
    if !validation.counters_match() {
        return Err("measured counters diverge from characterization".into());
    }
    if overlap {
        // Prove the latency-hiding claim on the spot: a barrier-schedule
        // twin of the same product must be bitwise-identical. The twin
        // keeps the selected kernel so only the schedule varies.
        let mut twin = BspExecutor::with_options(&system, threads, rcm, false);
        twin.set_kernel(kernel);
        let y_twin = twin.run(&x, steps);
        let bitwise_equal = y.iter().zip(&y_twin).all(|(a, b)| {
            (a.x.to_bits(), a.y.to_bits(), a.z.to_bits())
                == (b.x.to_bits(), b.y.to_bits(), b.z.to_bits())
        });
        if !quiet {
            println!(
                "overlapped output bitwise-equal to barrier schedule: {}",
                if bitwise_equal { "yes" } else { "NO" }
            );
        }
        if !bitwise_equal {
            return Err("overlapped output diverges from the barrier schedule".into());
        }
    }
    if kernel == quake_app::executor::KernelKind::MicroSimd {
        // Prove the raw-speed claim's safety on the spot: a scalar-kernel
        // twin of the same schedule must be bitwise-identical.
        let mut twin = BspExecutor::with_options(&system, threads, rcm, overlap);
        let y_twin = twin.run(&x, steps);
        let bitwise_equal = y.iter().zip(&y_twin).all(|(a, b)| {
            (a.x.to_bits(), a.y.to_bits(), a.z.to_bits())
                == (b.x.to_bits(), b.y.to_bits(), b.z.to_bits())
        });
        if !quiet {
            println!(
                "micro-simd output bitwise-equal to scalar micro kernel: {}",
                if bitwise_equal { "yes" } else { "NO" }
            );
        }
        if !bitwise_equal {
            return Err("micro-simd output diverges from the scalar kernel".into());
        }
    }
    if let Some(telemetry) = exec.telemetry() {
        if !quiet {
            println!("{}", telemetry_summary(telemetry));
            let ps = exec.pool_stats();
            println!(
                "worker pool: {} batches dispatched, {} targeted re-runs, {} thread respawns\n",
                ps.broadcasts, ps.targeted, ps.respawns
            );
        }
        if !trace_json.is_empty() {
            std::fs::write(&trace_json, telemetry.to_chrome_trace(&app.config.name))?;
            if !quiet {
                println!("wrote {trace_json}");
            }
        }
        if !metrics.is_empty() {
            std::fs::write(&metrics, telemetry.to_prometheus())?;
            if !quiet {
                println!("wrote {metrics}");
            }
        }
        if profile_on {
            use quake_core::telemetry::profile::{ProfileOptions, ProfileReport};
            use quake_core::telemetry::{ShardTrace, TelemetrySnapshot, TraceContext};
            // One pseudo-shard on offset 0: the in-process run is its own
            // clock domain, so the profiler sees exactly what a one-shard
            // proc ensemble would report.
            let shard = ShardTrace {
                snap: TelemetrySnapshot::capture(
                    telemetry,
                    TraceContext {
                        run_id: 0,
                        shard: 0,
                        generation: 0,
                    },
                    0,
                    parts as u32,
                    Vec::new(),
                    0,
                ),
                clock_offset_ns: 0,
            };
            let link = netsim.as_ref().map(|t| {
                let net = t.network();
                (net.t_l, net.t_w)
            });
            let prof = ProfileReport::build(
                std::slice::from_ref(&shard),
                &ProfileOptions {
                    loads: vec![(analyzed.instance.c_max, analyzed.instance.b_max)],
                    link,
                    overlap,
                },
            );
            if !quiet {
                println!("{}", prof.render_table());
            }
            if !profile_json.is_empty() {
                std::fs::write(&profile_json, prof.to_json())?;
                if !quiet {
                    println!("wrote {profile_json}");
                }
            }
        }
    }
    if let Some(fr) = report.fault {
        // Prove the healing claim: a fault-free reference run of the same
        // product must be bitwise-identical to the recovered output.
        let mut reference = if rcm {
            BspExecutor::with_rcm(&system, threads)
        } else {
            BspExecutor::new(&system, threads)
        };
        let y_ref = reference.run(&x, steps);
        let bitwise_equal = y.iter().zip(&y_ref).all(|(a, b)| {
            (a.x.to_bits(), a.y.to_bits(), a.z.to_bits())
                == (b.x.to_bits(), b.y.to_bits(), b.z.to_bits())
        });
        if !quiet {
            println!("\n{fr}");
            println!(
                "recovered output bitwise-equal to fault-free reference: {}",
                if bitwise_equal { "yes" } else { "NO" }
            );
        }
        if !fault_json.is_empty() {
            std::fs::write(&fault_json, format!("{}\n", fr.to_json()))?;
            if !quiet {
                println!("wrote {fault_json}");
            }
        }
        if !bitwise_equal {
            return Err("recovered output diverges from fault-free reference".into());
        }
        if !fr.balanced() {
            return Err("fault ledger is unbalanced (injected != detected != recovered)".into());
        }
    }
    Ok(())
}

/// The `--transport proc` arm of `smvp-run`: forks shard processes over
/// unix-domain sockets, re-derives Eq. (2)'s `(T_l, T_w)` from socket
/// microbenchmarks, and proves the merged output bitwise-equal to an
/// in-process shared-memory twin of the same spec.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_smvp_proc(
    spec: &quake_app::transport::wire::RunSpec,
    built: &quake_app::transport::run::Built,
    analyzed: &AnalyzedInstance,
    quiet: bool,
    fault_json: &str,
    metrics: &str,
    trace_json: &str,
    profile_on: bool,
    profile_json: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use quake_app::transport::{run, TransportKind};
    use quake_core::model::validate::validate;
    use quake_core::telemetry::profile::{ProfileOptions, ProfileReport};
    use quake_core::telemetry::{merged_chrome_trace, merged_telemetry, SupervisorInstant};

    if spec.wire_fault_rate > 0.0 && !quiet {
        println!(
            "wire chaos armed: per-frame rate {} (seed {}), conn deadline {} s, \
             restart budget {} shard respawns",
            spec.wire_fault_rate, spec.wire_fault_seed, spec.conn_timeout, spec.restart_budget
        );
    }
    let out = run::run_with(TransportKind::Proc, spec, built)?;
    let report = &out.report;
    if !quiet {
        println!(
            "{} on {} PEs — {} bulk-synchronous SMVPs over {} shard processes × {} worker \
             threads (unix-socket transport){}",
            built.app.config.name,
            spec.parts,
            report.steps,
            spec.shards,
            spec.threads,
            match (spec.rcm, spec.overlap) {
                (true, true) => " (RCM-renumbered subdomains, latency-hiding overlap)",
                (true, false) => " (RCM-renumbered subdomains)",
                (false, true) => " (latency-hiding overlap)",
                (false, false) => "",
            }
        );
        println!(
            "phase walls (s): assemble {:.3e}, compute {:.3e}, exchange {:.3e}, fold {:.3e}",
            report.phases.assemble,
            report.phases.compute,
            report.phases.exchange,
            report.phases.fold
        );
        println!(
            "measured socket link ({}): T_l = {:.3e} s, T_w = {:.3e} s/word",
            if out.link.measured {
                "ping/throughput microbenchmark"
            } else {
                "preset"
            },
            out.link.t_l,
            out.link.t_w
        );
        // Eq. (2) under the measured parameters, against the measured
        // exchange wall — the proc analogue of the netsim postal model.
        // An emulated inter-node hold (`--wire-latency`) is part of the
        // link both models must price, so it folds into the per-message
        // latency term.
        let i = &analyzed.instance;
        let t_l_eff = out.link.t_l + spec.wire_latency;
        let predicted = i.b_max as f64 * t_l_eff + i.c_max as f64 * out.link.t_w;
        let measured = report.phases.exchange / spec.steps.max(1) as f64;
        println!(
            "Eq. (2) with measured link: B_max·T_l + C_max·T_w = {:.3e} s/step \
             vs measured exchange {:.3e} s/step (ratio {:.2})\n",
            predicted,
            measured,
            measured / predicted.max(f64::MIN_POSITIVE)
        );
        // Node-aware runs also price the exchange with the max-rate model
        // (Bienz, Gropp & Olson): the busiest node's injection port plus
        // the intra-node gather leg, under the same measured link.
        if spec.nodes >= 1 {
            let mr = quake_partition::comm::MaxRateAnalysis::new(
                &built.app.mesh,
                &built.partition,
                spec.nodes,
            );
            // Inter-node leg pays the (possibly emulated) slow link;
            // the intra-node gather rides the raw measured socket.
            let mr_pred =
                mr.predicted_with_local(t_l_eff, out.link.t_w, out.link.t_l, out.link.t_w);
            let floor = measured.max(f64::MIN_POSITIVE);
            println!(
                "max-rate model ({} nodes): max_N(B_N·T_l + C_N·T_w) + local gather = \
                 {:.3e} s/step (rel err {:.1}% vs Eq. (2) rel err {:.1}%)\n",
                spec.nodes,
                mr_pred,
                100.0 * (measured - mr_pred).abs() / floor,
                100.0 * (measured - predicted).abs() / floor,
            );
        }
    }
    let validation = validate(&analyzed.instance, &report.measured());
    if !quiet {
        println!("{validation}");
    }
    if !validation.counters_match() {
        return Err("measured counters diverge from characterization".into());
    }
    // Prove the transport claim on the spot: an in-process shared-memory
    // run of the identical spec must be bitwise-identical.
    let twin = run::run_with(TransportKind::Shared, spec, built)?;
    let bitwise_equal = out.y.len() == twin.y.len()
        && out.y.iter().zip(&twin.y).all(|(a, b)| {
            (a.x.to_bits(), a.y.to_bits(), a.z.to_bits())
                == (b.x.to_bits(), b.y.to_bits(), b.z.to_bits())
        });
    if !quiet {
        println!(
            "proc output bitwise-equal to shared transport: {}",
            if bitwise_equal { "yes" } else { "NO" }
        );
    }
    if !bitwise_equal {
        return Err("proc output diverges from the shared transport".into());
    }
    let traced = spec.trace && !out.shard_telemetry.is_empty();
    if spec.trace && !quiet {
        let spans: usize = out.shard_telemetry.iter().map(|t| t.snap.spans.len()).sum();
        println!(
            "telemetry: {} shard snapshot(s) collected ({} spans), handshake clock \
             offsets [{}] ns",
            out.shard_telemetry.len(),
            spans,
            out.shard_telemetry
                .iter()
                .map(|t| t.clock_offset_ns.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if !quiet {
        for i in &out.incidents {
            println!("incident t+{:.3}s shard {}: {}", i.t_s, i.shard, i.kind);
        }
    }
    // The critical-path profiler: per-step rung attribution over the
    // merged shard telemetry, with the Eq. (2) prediction under the
    // measured link as the model baseline.
    if profile_on {
        let prof = ProfileReport::build(
            &out.shard_telemetry,
            &ProfileOptions {
                loads: vec![(analyzed.instance.c_max, analyzed.instance.b_max)],
                link: Some((out.link.t_l, out.link.t_w)),
                overlap: spec.overlap,
            },
        );
        if !quiet {
            println!("{}", prof.render_table());
        }
        if !profile_json.is_empty() {
            std::fs::write(profile_json, prof.to_json())?;
            if !quiet {
                println!("wrote {profile_json}");
            }
        }
    }
    // Trace runs merge every shard's span snapshot onto one clock-aligned
    // timeline (one process track per shard, flow arrows pairing each
    // ghost post with its acquire, the supervisor's incidents on their
    // own track). Untraced proc runs keep the fault-domain-only trace.
    if !trace_json.is_empty() {
        if traced {
            let supervisor: Vec<SupervisorInstant> = out
                .incidents
                .iter()
                .map(|i| SupervisorInstant {
                    name: i.kind.to_string(),
                    shard: i.shard as u32,
                    at_ns: (i.t_s.max(0.0) * 1e9) as u64,
                })
                .collect();
            std::fs::write(
                trace_json,
                merged_chrome_trace(&built.app.config.name, &out.shard_telemetry, &supervisor),
            )?;
            if !quiet {
                println!(
                    "wrote {trace_json} ({} shard tracks, {} fault-domain incidents)",
                    out.shard_telemetry.len(),
                    out.incidents.len()
                );
            }
        } else {
            std::fs::write(
                trace_json,
                incidents_chrome_trace(&built.app.config.name, &out.incidents),
            )?;
            if !quiet {
                println!(
                    "wrote {trace_json} ({} fault-domain incidents)",
                    out.incidents.len()
                );
            }
        }
    }
    if !metrics.is_empty() {
        let mut text = String::new();
        if traced {
            text.push_str(&merged_telemetry(&out.shard_telemetry).to_prometheus());
        }
        text.push_str(&wire_prometheus(
            &report.fault.unwrap_or_default(),
            &out.shard_faults,
        ));
        std::fs::write(metrics, text)?;
        if !quiet {
            println!("wrote {metrics}");
        }
    }
    if let Some(fr) = &report.fault {
        if !quiet {
            println!("\n{fr}");
            println!(
                "wire ledger balanced: {}",
                if fr.balanced() { "yes" } else { "NO" }
            );
        }
        if !fault_json.is_empty() {
            std::fs::write(fault_json, format!("{}\n", fr.to_json()))?;
            if !quiet {
                println!("wrote {fault_json}");
            }
        }
        if !fr.balanced() {
            return Err("fault ledger is unbalanced (injected != detected != recovered)".into());
        }
    }
    Ok(())
}

/// Renders the merged wire-fault ledger as Prometheus text — the proc
/// analogue of the in-process telemetry exporter, covering the fault
/// domain (injection/detection/recovery counters, resends, reconnects,
/// respawns and the delay histogram) that shard-local spans cannot see.
/// Per-shard ledgers add `shard`/`generation`-labeled samples next to
/// the unlabeled run-wide totals, so a straggling shard's chaos bill is
/// attributable without re-running.
fn wire_prometheus(
    fr: &quake_core::fault::FaultReport,
    shards: &[(usize, u32, quake_core::fault::FaultReport)],
) -> String {
    use quake_core::fault::{FaultReport, WireFaultCounts};
    use std::fmt::Write as _;
    type StageSelector = fn(&FaultReport) -> &WireFaultCounts;
    let mut s = String::new();
    let stages: [(&str, StageSelector); 3] = [
        ("injected", |f| &f.wire_injected),
        ("detected", |f| &f.wire_detected),
        ("recovered", |f| &f.wire_recovered),
    ];
    let kinds = |c: &WireFaultCounts| {
        [
            ("corrupt", c.corrupt),
            ("truncate", c.truncate),
            ("delay", c.delay),
            ("reset", c.reset),
            ("stall", c.stall),
        ]
    };
    for (stage, sel) in stages {
        let _ = writeln!(
            s,
            "# HELP quake_wire_{stage}_total Wire faults {stage}, by kind."
        );
        let _ = writeln!(s, "# TYPE quake_wire_{stage}_total counter");
        for (kind, v) in kinds(sel(fr)) {
            let _ = writeln!(s, "quake_wire_{stage}_total{{kind=\"{kind}\"}} {v}");
        }
        for (shard, generation, f) in shards {
            for (kind, v) in kinds(sel(f)) {
                let _ = writeln!(
                    s,
                    "quake_wire_{stage}_total{{kind=\"{kind}\",shard=\"{shard}\",\
                     generation=\"{generation}\"}} {v}"
                );
            }
        }
    }
    for (name, help, v) in [
        (
            "wire_resends",
            "Cache replays answered for damaged frames.",
            fr.wire_resends,
        ),
        (
            "reconnects",
            "Socket links re-established after resets or peer deaths.",
            fr.reconnects,
        ),
        (
            "suspects",
            "Peers escalated to suspect after silent deadlines.",
            fr.suspects,
        ),
        (
            "respawned_shards",
            "Shard processes respawned by the supervisor.",
            fr.respawned_shards,
        ),
        (
            "ensemble_restarts",
            "Whole-ensemble retries after the restart budget ran out.",
            fr.ensemble_restarts,
        ),
    ] {
        let _ = writeln!(s, "# HELP quake_{name}_total {help}");
        let _ = writeln!(s, "# TYPE quake_{name}_total counter");
        let _ = writeln!(s, "quake_{name}_total {v}");
    }
    for (shard, generation, f) in shards {
        for (name, v) in [
            ("wire_resends", f.wire_resends),
            ("reconnects", f.reconnects),
        ] {
            let _ = writeln!(
                s,
                "quake_{name}_total{{shard=\"{shard}\",generation=\"{generation}\"}} {v}"
            );
        }
    }
    let _ = writeln!(
        s,
        "# HELP quake_wire_delay_us Injected wire delays and backoff waits, microseconds."
    );
    let _ = writeln!(s, "# TYPE quake_wire_delay_us histogram");
    let mut delay_hist = |labels: &str, f: &FaultReport| {
        let mut cum = 0u64;
        for (i, n) in f.wire_delay_us_hist.iter().enumerate() {
            cum += n;
            let _ = writeln!(
                s,
                "quake_wire_delay_us_bucket{{{labels}le=\"{}\"}} {cum}",
                1u64 << (i + 1)
            );
        }
        let _ = writeln!(s, "quake_wire_delay_us_bucket{{{labels}le=\"+Inf\"}} {cum}");
        let bare = labels.trim_end_matches(',');
        if bare.is_empty() {
            let _ = writeln!(s, "quake_wire_delay_us_sum {}", f.wire_delay_us_sum);
            let _ = writeln!(s, "quake_wire_delay_us_count {cum}");
        } else {
            let _ = writeln!(
                s,
                "quake_wire_delay_us_sum{{{bare}}} {}",
                f.wire_delay_us_sum
            );
            let _ = writeln!(s, "quake_wire_delay_us_count{{{bare}}} {cum}");
        }
    };
    delay_hist("", fr);
    for (shard, generation, f) in shards {
        delay_hist(
            &format!("shard=\"{shard}\",generation=\"{generation}\","),
            f,
        );
    }
    s
}

/// Renders the supervisor's incident timeline as Chrome-trace JSON —
/// instant events on one row per shard, loadable in `chrome://tracing` or
/// Perfetto next to the in-process exporter's span traces.
fn incidents_chrome_trace(name: &str, incidents: &[quake_app::transport::run::Incident]) -> String {
    let events: Vec<String> = incidents
        .iter()
        .map(|i| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"fault-domain\",\"ph\":\"i\",\"s\":\"g\",\
                 \"ts\":{:.0},\"pid\":0,\"tid\":{}}}",
                i.kind,
                i.t_s * 1e6,
                i.shard
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"app\":\"{name}\"}},\
         \"traceEvents\":[{}]}}\n",
        events.join(",")
    )
}

fn cmd_simulate(inv: &Invocation) -> Result<(), Box<dyn std::error::Error>> {
    let app = generate(inv)?;
    let steps: u64 = inv.get("steps", 300u64)?;
    let system = assemble(&app.mesh, &GroundMaterial(&app.ground))?;
    let max_vp = 3f64.sqrt() * app.ground.vs_rock;
    let dt = Simulation::stable_dt(&app.mesh, max_vp, 0.4);
    let mut sim = Simulation::new(system, dt)?;
    let source = PointSource::nearest(
        &app.mesh,
        app.ground.basin_center_surface() + Vec3::new(0.0, 0.0, -2_000.0),
        Vec3::new(0.0, 0.0, 1e15),
        Ricker::new(1.0 / app.config.period_s),
    );
    sim.add_source(source);
    let rx = PointSource::nearest(
        &app.mesh,
        app.ground.basin_center_surface(),
        Vec3::ZERO,
        Ricker::new(1.0),
    )
    .node;
    sim.add_receiver(rx);
    sim.run(steps);
    println!(
        "mesh {} nodes / {} elements; dt = {:.4} s; ran {} steps = {:.1} s simulated",
        app.mesh.node_count(),
        app.mesh.element_count(),
        dt,
        sim.step_count(),
        sim.time()
    );
    let smvp_flops = app.mesh.pattern().smvp_flops();
    let k = sim.stiffness();
    println!(
        "per step: one SMVP of {smvp_flops} flops over {:.1} MB (full storage {:.1} MB); \
         receiver peak displacement {:.3e} m",
        k.product_bytes() as f64 / 1e6,
        k.full_product_bytes() as f64 / 1e6,
        sim.seismograms()[0].peak()
    );
    println!(
        "displacement energy: {:.3e} (finite => stable)",
        sim.displacement_energy()
    );
    Ok(())
}
