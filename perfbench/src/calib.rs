//! Host calibration: scale-copy bandwidth at a kernel's working-set size
//! and at DRAM size, a fixed reference kernel, and the socket `T_l`/`T_w`
//! a proc run measures. It runs in a child process of its own so its
//! large arrays never count toward a workload's peak RSS.

use crate::util::{median, peak_rss_mb};
use quake_app::transport::run::{build, run_with};
use quake_app::transport::wire::RunSpec;
use quake_app::transport::TransportKind;
use std::hint::black_box;
use std::time::Instant;

/// What the calibration child measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// Bytes of both copy arrays together at the kernel working set.
    pub ws_bytes: f64,
    pub copy_gbps_ws: f64,
    /// Bytes of each DRAM copy array (at least 4x the LLC outside quick
    /// mode).
    pub dram_array_bytes: f64,
    pub copy_gbps_dram: f64,
    pub llc_bytes: f64,
    pub ref_kernel_ms: f64,
    pub socket_t_l_s: f64,
    pub socket_t_w_s: f64,
    /// Wall time of that proc run: shard bootstrap plus one step.
    pub proc_run_s: f64,
}

const FIELDS: usize = 9;

impl Calibration {
    fn fields(&self) -> [(&'static str, f64); FIELDS] {
        [
            ("ws_bytes", self.ws_bytes),
            ("copy_gbps_ws", self.copy_gbps_ws),
            ("dram_array_bytes", self.dram_array_bytes),
            ("copy_gbps_dram", self.copy_gbps_dram),
            ("llc_bytes", self.llc_bytes),
            ("ref_kernel_ms", self.ref_kernel_ms),
            ("socket_t_l_s", self.socket_t_l_s),
            ("socket_t_w_s", self.socket_t_w_s),
            ("proc_run_s", self.proc_run_s),
        ]
    }

    /// `key value` lines, the child's stdout protocol.
    pub fn to_lines(self) -> String {
        self.fields()
            .iter()
            .map(|(k, v)| format!("{k} {v:?}\n"))
            .collect()
    }

    pub fn from_lines(text: &str) -> Result<Self, String> {
        let mut c = Calibration::default();
        let mut seen = 0;
        for line in text.lines() {
            let Some((k, v)) = line.split_once(' ') else {
                continue;
            };
            let v: f64 = v
                .trim()
                .parse()
                .map_err(|_| format!("bad value in '{line}'"))?;
            let slot = match k {
                "ws_bytes" => &mut c.ws_bytes,
                "copy_gbps_ws" => &mut c.copy_gbps_ws,
                "dram_array_bytes" => &mut c.dram_array_bytes,
                "copy_gbps_dram" => &mut c.copy_gbps_dram,
                "llc_bytes" => &mut c.llc_bytes,
                "ref_kernel_ms" => &mut c.ref_kernel_ms,
                "socket_t_l_s" => &mut c.socket_t_l_s,
                "socket_t_w_s" => &mut c.socket_t_w_s,
                "proc_run_s" => &mut c.proc_run_s,
                _ => continue,
            };
            *slot = v;
            seen += 1;
        }
        if seen != FIELDS {
            return Err(format!("calibration printed {seen} of {FIELDS} fields"));
        }
        Ok(c)
    }

    pub fn json_fields(&self) -> Vec<(&'static str, String)> {
        self.fields()
            .iter()
            .map(|&(k, v)| (k, crate::util::jnum(v)))
            .collect()
    }
}

/// The last-level cache size in bytes, from sysfs (0 if unreadable).
pub fn llc_bytes() -> f64 {
    let mut best = (0u32, 0.0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<f64>().unwrap_or(0.0) * 1024.0,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<f64>().unwrap_or(0.0) * 1024.0 * 1024.0,
                None => size.parse().unwrap_or(0.0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Scale-copy `a = s * b` over two arrays of `n` f64 each; returns GB/s
/// counting 16 bytes per element (one read, one write), the median over
/// passes after one untimed first-touch pass.
fn scale_copy_gbps(n: usize, min_passes: usize, min_s: f64) -> f64 {
    let b = vec![1.000_000_1f64; n];
    let mut a = vec![0.0f64; n];
    let mut s = 1.0;
    let mut times = Vec::new();
    let t_all = Instant::now();
    for pass in 0.. {
        let t = Instant::now();
        for (ai, &bi) in a.iter_mut().zip(&b) {
            *ai = s * bi;
        }
        black_box(&mut a);
        if pass > 0 {
            times.push(t.elapsed().as_secs_f64());
        }
        s = a[n / 2];
        if times.len() >= min_passes && t_all.elapsed().as_secs_f64() >= min_s {
            break;
        }
    }
    16.0 * n as f64 / median(&times) / 1e9
}

/// A fixed reference kernel that depends on no repository code: a 3x3
/// block product over a synthetic banded pattern (4096 block rows, 8
/// blocks each, about 2.9 MB). Its time tracks the host, not the program.
fn ref_kernel_ms(reps: usize) -> f64 {
    const ROWS: usize = 4096;
    const PER_ROW: usize = 8;
    let cols: Vec<usize> = (0..ROWS * PER_ROW)
        .map(|k| (k / PER_ROW + (k % PER_ROW) * 97) % ROWS)
        .collect();
    let blocks: Vec<[f64; 9]> = (0..ROWS * PER_ROW)
        .map(|k| std::array::from_fn(|e| 1.0 / (1 + (k + e) % 13) as f64))
        .collect();
    let x: Vec<[f64; 3]> = (0..ROWS).map(|i| [i as f64, 1.0, -0.5]).collect();
    let mut y = vec![[0.0f64; 3]; ROWS];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = [0.0; 3];
            for k in i * PER_ROW..(i + 1) * PER_ROW {
                let (m, v) = (&blocks[k], &x[cols[k]]);
                for r in 0..3 {
                    acc[r] += m[3 * r] * v[0] + m[3 * r + 1] * v[1] + m[3 * r + 2] * v[2];
                }
            }
            *yi = acc;
        }
        black_box(&mut y);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times) * 1e3
}

/// Socket `T_l`/`T_w` as a proc run measures them (`RunOutput.link`) on a
/// small two-shard problem, and the run's wall time.
fn socket_link(quick: bool) -> Result<(f64, f64, f64), String> {
    let spec = RunSpec {
        period: 10.0,
        scale: if quick { 12.0 } else { 8.0 },
        parts: 2,
        shards: 2,
        threads: 1,
        steps: 1,
        ..RunSpec::default()
    };
    let built = build(&spec)?;
    let t = Instant::now();
    let out = run_with(TransportKind::Proc, &spec, &built)?;
    let run_s = t.elapsed().as_secs_f64();
    if !out.link.measured {
        return Err("proc run did not measure its link".into());
    }
    Ok((out.link.t_l, out.link.t_w, run_s))
}

/// Runs every calibration step; `ws_bytes` is the kernel's working set.
pub fn calibrate(ws_bytes: f64, quick: bool) -> Result<Calibration, String> {
    let llc = llc_bytes();
    let dram_array_bytes = if quick {
        64.0 * 1024.0 * 1024.0
    } else {
        (4.0 * llc).max(256.0 * 1024.0 * 1024.0)
    };
    let ws_n = (ws_bytes / 16.0).max(1024.0) as usize;
    let copy_gbps_ws = scale_copy_gbps(ws_n, 10, if quick { 0.05 } else { 0.3 });
    let copy_gbps_dram = scale_copy_gbps((dram_array_bytes / 8.0) as usize, 3, 0.0);
    let ref_kernel_ms = ref_kernel_ms(if quick { 20 } else { 200 });
    let (socket_t_l_s, socket_t_w_s, proc_run_s) = socket_link(quick)?;
    Ok(Calibration {
        ws_bytes: 16.0 * ws_n as f64,
        copy_gbps_ws,
        dram_array_bytes: 8.0 * (dram_array_bytes / 8.0).floor(),
        copy_gbps_dram,
        llc_bytes: llc,
        ref_kernel_ms,
        socket_t_l_s,
        socket_t_w_s,
        proc_run_s,
    })
}

/// Runs the calibration in a child process (this executable's
/// `calibrate` mode) and parses what it prints.
pub fn calibrate_in_child(ws_bytes: f64, quick: bool) -> Result<Calibration, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["calibrate", "--ws-bytes", &format!("{ws_bytes}")]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("calibration child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "calibration child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Calibration::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// Entry point of the `calibrate` mode.
pub fn main(ws_bytes: f64, quick: bool) -> Result<(), String> {
    let c = calibrate(ws_bytes, quick)?;
    print!("{}", c.to_lines());
    // Printed for the record: the child's own peak, which the parent's
    // peak_rss_mb deliberately excludes.
    eprintln!("calibration child peak RSS {:.1} MB", peak_rss_mb()?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let c = Calibration {
            ws_bytes: 1.0,
            copy_gbps_ws: 2.5,
            dram_array_bytes: 3.0,
            copy_gbps_dram: 4.25,
            llc_bytes: 5.0,
            ref_kernel_ms: 0.125,
            socket_t_l_s: 3e-6,
            socket_t_w_s: 1.5e-9,
            proc_run_s: 0.25,
        };
        let back = Calibration::from_lines(&c.to_lines()).unwrap();
        assert_eq!(back.to_lines(), c.to_lines());
        assert!(Calibration::from_lines("ws_bytes 1\n").is_err());
    }
}
