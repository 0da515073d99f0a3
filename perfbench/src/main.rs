//! The repository benchmark: four Quake workloads, measured end to end
//! (untraced runs) and per layer (traced runs), with every timed output
//! checked. See `README.md` next to this crate.
//!
//! ```text
//! perfbench workload --workload NAME --seed N --seconds S --trace 0|1
//!                    [--out FILE] [--commit ID] [--quick] [--perturb]
//! perfbench calibrate --ws-bytes N [--quick]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod affinity;
mod calib;
mod util;
mod workloads;

use util::{jnum, jobj, jstr};
use workloads::{Opts, Outcome, END_TO_END, PER_LAYER};

fn usage() -> String {
    "usage: perfbench workload --workload NAME --seed N --seconds S --trace 0|1 \
     [--out FILE] [--commit ID] [--quick] [--perturb]\n       \
     perfbench calibrate --ws-bytes N [--quick]"
        .into()
}

/// `--key value` and `--flag` arguments.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.value(key).ok_or_else(|| format!("missing {key}"))?;
        v.parse().map_err(|_| format!("bad value '{v}' for {key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main() {
    // The proc transport re-executes this binary as its shard children.
    quake_app::transport::proc::shard_host_hook();
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("workload") => workload(&args),
        Some("calibrate") => args
            .parse("--ws-bytes")
            .and_then(|ws| calib::main(ws, args.flag("--quick"))),
        _ => Err(usage()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn workload(args: &Args) -> Result<(), String> {
    let trace: u8 = args.parse("--trace")?;
    let o = Opts {
        workload: args
            .value("--workload")
            .ok_or("missing --workload")?
            .to_string(),
        seed: args.parse("--seed")?,
        seconds: args.parse("--seconds")?,
        trace: match trace {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        quick: args.flag("--quick"),
        perturb: args.flag("--perturb"),
    };
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // In-process workloads run on one vCPU (see `affinity`); the proc
    // shards and the calibration child get every CPU.
    let cpus = affinity::allowed()?;
    let pinned = o.in_process().then(|| *cpus.last().expect("a CPU runs us"));
    if let Some(cpu) = pinned {
        affinity::set(&[cpu])?;
    }
    let mut out = workloads::run(&o)?;
    affinity::set(&cpus)?;
    let cal = calib::calibrate_in_child(out.kernel_bytes, o.quick)?;
    out.calibrated(&cal);

    let units: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, String)> = units
        .iter()
        .map(|&(n, unit)| {
            let v = jobj(&[("value", jnum(out.metrics[n])), ("unit", jstr(unit))]);
            (n, v)
        })
        .collect();
    let failed_frac = out.ledger.failed as f64 / out.ledger.attempted.max(1) as f64;
    for &(n, unit) in units {
        println!("{n:<28} {:>16.6} {unit}", out.metrics[n]);
    }
    println!("{:<28} {:>16.6} ratio", "failed_frac", failed_frac);
    if !o.trace {
        println!("{:<28} {:>16.6} 1/s", "steps_per_s", out.steps_per_s);
    }
    for (name, ok) in &out.ledger.gates {
        println!("gate {name}: {}", if *ok { "held" } else { "FAILED" });
    }
    if let Some(path) = args.value("--out") {
        let artifact = artifact(
            &o,
            pinned,
            &out,
            &cal,
            &metrics,
            failed_frac,
            args.value("--commit"),
        );
        std::fs::write(path, artifact + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    let result = jobj(&[
        ("correct", out.ledger.correct().to_string()),
        ("attempted", out.ledger.attempted.to_string()),
        ("failed", out.ledger.failed.to_string()),
        ("metrics", jobj(&metrics)),
    ]);
    println!("{result}");
    Ok(())
}

/// The run's full record: manifest (commit, seeds, configuration, host,
/// SIMD dispatch, calibration), gates, metrics and the recorded spans.
fn artifact(
    o: &Opts,
    pinned: Option<usize>,
    out: &Outcome,
    cal: &calib::Calibration,
    metrics: &[(&str, String)],
    failed_frac: f64,
    commit: Option<&str>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let list = |v: Vec<String>| format!("[{}]", v.join(", "));
    let not_exercised: Vec<String> = metrics
        .iter()
        .filter(|(n, _)| !out.exercised.contains(n))
        .map(|(n, _)| jstr(n))
        .collect();
    let manifest = jobj(&[
        ("commit", commit.map_or("null".into(), jstr)),
        ("workload", jstr(&o.workload)),
        ("seed", o.seed.to_string()),
        ("mesh_seed", o.mesh_seed().to_string()),
        ("x_seed", o.x_seed().to_string()),
        ("fault_seed", o.fault_seed().to_string()),
        ("seconds", jnum(o.seconds)),
        ("trace", o.trace.to_string()),
        ("quick", o.quick.to_string()),
        ("perturb", o.perturb.to_string()),
        ("config", jobj(&out.config)),
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            pinned.map_or("null".into(), |c| c.to_string()),
        ),
        ("llc_bytes", jnum(cal.llc_bytes)),
        ("simd_active", quake_spark::simd_active().to_string()),
        ("calibration", jobj(&cal.json_fields())),
        ("not_exercised", list(not_exercised)),
    ]);
    let gates: Vec<(&str, String)> = out
        .ledger
        .gates
        .iter()
        .map(|(n, ok)| (n.as_str(), ok.to_string()))
        .collect();
    let hashes: Vec<(&str, String)> = out
        .hashes
        .iter()
        .map(|(k, h)| (k.as_str(), jstr(&format!("{h:016x}"))))
        .collect();
    let spans: Vec<String> = out
        .tracer
        .spans()
        .iter()
        .map(|s| {
            jobj(&[
                ("name", jstr(s.name)),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ("start_us", jnum(s.start_us)),
                ("dur_us", jnum(s.dur_us)),
            ])
        })
        .collect();
    let samples: Vec<(&str, String)> = out
        .samples
        .iter()
        .map(|(n, v)| (*n, list(v.iter().map(|&x| jnum(x)).collect())))
        .collect();
    jobj(&[
        ("manifest", manifest),
        ("correct", out.ledger.correct().to_string()),
        ("attempted", out.ledger.attempted.to_string()),
        ("failed", out.ledger.failed.to_string()),
        ("failed_frac", jnum(failed_frac)),
        ("steps_per_s", jnum(out.steps_per_s)),
        ("gates", jobj(&gates)),
        ("displacement_hashes", jobj(&hashes)),
        ("metrics", jobj(metrics)),
        ("samples", jobj(&samples)),
        ("spans", list(spans)),
    ])
}
