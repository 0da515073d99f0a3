//! Small helpers shared by the workloads: order statistics, the span
//! recorder, correctness bookkeeping, and a minimal JSON writer.

use quake_sparse::dense::Vec3;
use std::time::Instant;

/// The median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The nearest-rank `q`-quantile of `v` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Throughput per window: consecutive step times are cut into windows of
/// at least `window_s` seconds of stepping, and each window gives its
/// steps over its seconds. A trailing partial window is dropped.
pub fn window_rates(times: &[f64], window_s: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut n, mut sum) = (0usize, 0.0);
    for &t in times {
        n += 1;
        sum += t;
        if sum >= window_s {
            rates.push(n as f64 / sum);
            (n, sum) = (0, 0.0);
        }
    }
    rates
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// FNV-1a over the bit patterns of a vector field: equal hashes mean
/// bitwise-equal fields (up to hash collisions).
pub fn hash_field(v: &[Vec3]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in v.iter().flat_map(|p| [p.x, p.y, p.z]) {
        for b in w.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// True when `a` and `b` are bitwise-equal.
pub fn bitwise_eq(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            u.x.to_bits() == v.x.to_bits()
                && u.y.to_bits() == v.y.to_bits()
                && u.z.to_bits() == v.z.to_bits()
        })
}

/// Operations attempted and failed, plus the named correctness gates that
/// decided the failures.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Named gates, each the AND of every time it was checked.
    pub gates: Vec<(String, bool)>,
    /// With `--perturb`, the next checked output is damaged first, to
    /// prove that the checks count it.
    pub perturb_pending: bool,
}

impl Ledger {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks `n` more of the attempted operations failed.
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// True when `y` equals `oracle` bitwise (after the pending
    /// perturbation, if any, flips one bit of `y`).
    pub fn output_ok(&mut self, y: &[Vec3], oracle: &[Vec3]) -> bool {
        if std::mem::take(&mut self.perturb_pending) {
            let mut bad = y.to_vec();
            bad[0].x = f64::from_bits(bad[0].x.to_bits() ^ 1);
            return bitwise_eq(&bad, oracle);
        }
        bitwise_eq(y, oracle)
    }

    /// True when `v` is finite (after the pending perturbation, if any,
    /// replaces it with NaN).
    pub fn finite_ok(&mut self, v: f64) -> bool {
        if std::mem::take(&mut self.perturb_pending) {
            return false;
        }
        v.is_finite()
    }

    /// Records a named gate; repeated checks of one name are ANDed.
    pub fn gate(&mut self, name: &str, ok: bool) {
        match self.gates.iter_mut().find(|(n, _)| n == name) {
            Some((_, held)) => *held &= ok,
            None => self.gates.push((name.to_string(), ok)),
        }
    }

    /// True when nothing failed and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }
}

/// One recorded span: a named interval with the span that enclosed it.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The benchmark's own span recorder. It always times what it wraps;
/// with tracing off it keeps nothing, so an untraced run pays only for
/// the clock reads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len();
        let now = Instant::now();
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.open.last().map(|&(p, _)| p),
                start_us: (now - self.epoch).as_secs_f64() * 1e6,
                dur_us: 0.0,
            });
        }
        self.open.push((id, now));
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn close(&mut self) -> f64 {
        let (id, t0) = self.open.pop().expect("close matches an open span");
        let dt = t0.elapsed().as_secs_f64();
        if self.on {
            self.spans[id].dur_us = dt * 1e6;
        }
        dt
    }

    /// Runs `f` inside a span named `name`; returns its value and seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let v = f();
        (v, self.close())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A JSON number; non-finite values become `null`.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values, in the given order.
pub fn jobj<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(
            window_rates(&[0.5, 0.5, 0.25, 0.75, 0.1], 1.0),
            vec![2.0, 2.0]
        );
    }

    #[test]
    fn a_perturbed_output_is_counted_as_failed() {
        let y = vec![Vec3::new(1.0, 2.0, 3.0); 4];
        let mut ledger = Ledger {
            perturb_pending: true,
            ..Ledger::default()
        };
        for _ in 0..2 {
            let ok = ledger.output_ok(&y, &y);
            ledger.op(ok);
        }
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(!ledger.correct());
        ledger.gate("g", true);
        ledger.gate("g", false);
        ledger.gate("g", true);
        assert_eq!(ledger.gates, vec![("g".to_string(), false)]);
    }

    #[test]
    fn spans_nest_and_json_escapes() {
        let mut tr = Tracer::new(true);
        tr.open("outer");
        let ((), _) = tr.span("inner", || ());
        tr.close();
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jobj(&[("k", jnum(1.5))]), "{\"k\": 1.5}");
    }
}
