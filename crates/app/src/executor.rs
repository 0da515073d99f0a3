//! Instrumented bulk-synchronous SMVP executor.
//!
//! [`DistributedSystem::smvp`](crate::distributed::DistributedSystem::smvp)
//! models the paper's distributed product but runs serially and reports
//! nothing. [`BspExecutor`] runs the same assemble→compute→exchange→fold
//! phases over a persistent [`WorkerPool`] — PEs striped across workers
//! per phase, with the pool's broadcast barrier standing in for the
//! machine's phase barriers — and *measures* what the characterization
//! layer only *predicts*: per-PE flops, words and blocks sent/received,
//! per-phase wall times, and per-PE barrier wait.
//!
//! Observed `F_i`/`C_i`/`B_i` are counted from the data structures the
//! kernel actually traverses, so for a correct build they match
//! [`CommAnalysis`](quake_partition::comm::CommAnalysis) *exactly* — that
//! exact match (checked in tests and by `quake smvp-run`) is the executor's
//! reason to exist: it closes the loop between the paper's Figure 7
//! characterization and a live parallel execution, and its phase times feed
//! the Eq. (1)/(2) validation in `quake_core::model::validate`.
//!
//! # One step engine
//!
//! Every step, on every schedule, with or without faults or tracing, runs
//! through one private engine: an assemble broadcast, then either a
//! compute broadcast and an exchange broadcast (the **barrier** schedule)
//! or one merged broadcast of three passes (the **overlap** schedule, see
//! below), then the transport barrier and the driver's fold. The engine is
//! built from one helper per PE-level job — gather, compute, post (pack
//! and `Transport::post`), fetch-and-apply, plus the driver's fold — and
//! one counter tally, so each of those loops exists exactly once.
//!
//! Faults and telemetry are plain `Option` hooks on that path, never a
//! second copy of it, and never checked inside a kernel. An armed
//! [`FaultPlan`] is consulted once per PE in the compute pass (crash,
//! straggle) and once per inbound message in the fetch (drop, corrupt,
//! checksum verify, bounded re-fetch). Armed
//! telemetry costs one check per inbound message (its latency sample)
//! while a broadcast runs; the spans, histograms, transport waits and
//! drift feed are recorded in one block after the fold, from per-PE laps
//! that every step keeps anyway for the report. What the hooks cost when
//! disarmed versus armed is measured, not assumed: the repository
//! benchmark reports it as `fault.overhead_ratio` (armed-but-empty vs
//! disarmed) and `trace.overhead` (traced vs untraced) — see
//! `perfbench/README.md`.
//!
//! # Allocation-free steady state
//!
//! The paper's time loop repeats this product 6000 times, so the executor
//! owns every per-step buffer (`x_local`, partials, exchanged copies,
//! per-PE clocks, fault and telemetry scratch, the checkpoint snapshot)
//! and each [`BspExecutor::step_into`] reuses them: after the first step
//! no phase allocates, dispatch goes through [`WorkerPool::try_broadcast`]
//! (one shared closure per phase, nothing boxed), and the measured phase
//! walls reflect memory-system behaviour instead of allocator traffic.
//! [`BspExecutor::buffer_fingerprint`] exposes buffer pointers/capacities
//! so tests can assert the steady state really is allocation-free.
//!
//! # RCM locality pre-pass
//!
//! [`BspExecutor::with_rcm`] renumbers each PE's local nodes with reverse
//! Cuthill–McKee before executing: the local stiffness is permuted
//! (`P K Pᵀ`), the gather list and exchange pair indices are remapped to
//! match, and everything downstream runs over the bandwidth-reduced
//! matrices. The permutation relabels rows within each PE, so flop and
//! communication counters are invariant — the `CommAnalysis` match stays
//! exact — while the `x[col]` gather of the compute phase touches a
//! compact window of the local vector (the paper's "irregular memory
//! reference" mitigation, executed rather than simulated).
//!
//! # Latency-hiding overlap
//!
//! [`BspExecutor::with_options`] can replace the strict compute→exchange
//! barrier with a latency-hiding schedule. At build time each PE's local
//! rows are split: a row is **boundary** if it appears in an exchange pair
//! (a neighbor consumes its partial), **interior** otherwise; a stable
//! boundary-first permutation makes the boundary rows contiguous at the
//! front without disturbing any row's entry order. At step time compute
//! and exchange share ONE pool broadcast: every worker (A) computes and
//! *posts* its PEs' boundary rows — the only data any neighbor waits on —
//! then (B) computes the interior rows while other workers are still
//! posting, then (C) fetches and applies each inbound block, blocking only
//! until that sender's post has landed. Pass A never blocks, so every post
//! eventually lands and pass C cannot deadlock however PEs are striped
//! across workers. The interior SMVP is the work the schedule hides the
//! exchange latency behind — the paper's overlap opportunity, executed
//! rather than simulated — and
//! [`OverlapAnalysis`](quake_partition::comm::OverlapAnalysis) prices
//! exactly this schedule (`T_step = max(T_interior, T_exchange) +
//! T_boundary`). Because rows are independent, the permutation is
//! entry-order-stable, and inbound pairs apply in the barrier order, the
//! overlapped product is **bitwise-equal** to the barrier product and
//! every flop/word/block counter is unchanged (both asserted by the
//! `overlap_equivalence` tests). Armed faults force the barrier schedule —
//! a crash must be caught before anything is posted — over the same
//! boundary-first matrices, so recovery invariants survive unchanged.
//!
//! # Fault injection & recovery
//!
//! [`BspExecutor::enable_faults`] arms a seeded
//! [`FaultPlan`](quake_core::fault::FaultPlan): per-step, per-PE straggler
//! delays and PE crashes fire in the compute pass; dropped and corrupted
//! exchange blocks fire in the fetch, where every inbound block is
//! verified against the sender-side checksum its transport carries.
//! Recovery is built in — dropped blocks are re-fetched after a bounded
//! exponential-backoff retry, checksum mismatches force a clean re-fetch,
//! and a crashed PE is healed per [`RecoveryPolicy`]: `FailFast` re-raises
//! (the pre-chaos behaviour), `Degrade` re-executes the dead shard on a
//! surviving thread, `Restart` replaces the worker thread, restores the
//! last in-memory checkpoint, and replays the lost steps. Because every
//! injected event is one-shot and every recovery path re-executes exactly
//! the deterministic work the fault interrupted, a recovered run is
//! **bitwise-equal** to a fault-free run (asserted by the chaos tests), and
//! under `Restart` the checkpoint rollback keeps even the accumulated
//! `F`/`C`/`B` counters exactly equal to the fault-free characterization.

use crate::distributed::DistributedSystem;
use crate::transport::{ghost_edges, SharedTransport, Transport};
use quake_core::fault::{mix64, FaultKind, FaultPlan, FaultReport, RecoveryPolicy, RetryBackoff};
use quake_core::model::validate::MeasuredSmvp;
use quake_core::telemetry::{PhaseId, Span, Telemetry, TelemetryConfig, TraceInstant};
use quake_memsim::hierarchy::Hierarchy;
use quake_spark::kernels::bmv_range_into;
use quake_spark::pool::WorkerPool;
use quake_spark::tile_kernels::bmv_tiles_banded_into;
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::Vec3;
use quake_sparse::pattern::Pattern;
use quake_sparse::reorder::rcm;
use quake_sparse::tiles::{BandPlan, Bcsr3Tiles};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability counters for one PE, accumulated over all executed steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeCounters {
    /// Flops executed by this PE's local SMVPs (18 per traversed 3×3 block,
    /// the paper's `F_i = 2·m_i`).
    pub flops: u64,
    /// Words this PE sent during exchange phases.
    pub words_sent: u64,
    /// Words this PE received during exchange phases.
    pub words_received: u64,
    /// Messages (blocks under maximal aggregation) this PE sent.
    pub blocks_sent: u64,
    /// Messages this PE received.
    pub blocks_received: u64,
    /// Seconds spent gathering local `x` (assemble phase).
    pub t_assemble: f64,
    /// Seconds spent in local SMVP (compute phase).
    pub t_compute: f64,
    /// Seconds spent summing neighbor contributions (exchange phase).
    pub t_exchange: f64,
    /// Seconds spent waiting at phase barriers (phase wall time minus this
    /// PE's own work, summed over phases and steps).
    pub t_barrier: f64,
}

impl PeCounters {
    /// Words sent + received (the paper's `C_i`).
    pub fn words(&self) -> u64 {
        self.words_sent + self.words_received
    }

    /// Blocks sent + received (the paper's `B_i`).
    pub fn blocks(&self) -> u64 {
        self.blocks_sent + self.blocks_received
    }
}

/// Wall-clock seconds per phase, accumulated over all executed steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseWalls {
    /// Assemble (gather local `x`) phase.
    pub assemble: f64,
    /// Compute (local SMVP) phase.
    pub compute: f64,
    /// Exchange (pairwise sum) phase.
    pub exchange: f64,
    /// Fold (replicated results → global vector) phase.
    pub fold: f64,
}

impl PhaseWalls {
    /// Total wall-clock across phases.
    pub fn total(&self) -> f64 {
        self.assemble + self.compute + self.exchange + self.fold
    }
}

/// Structured measurement report of an executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Worker threads in the pool.
    pub threads: usize,
    /// SMVP steps executed.
    pub steps: u64,
    /// Per-PE counters (accumulated over all steps).
    pub pe: Vec<PeCounters>,
    /// Per-phase wall times (accumulated over all steps).
    pub phases: PhaseWalls,
    /// Chaos-layer ledger, present when fault injection was enabled.
    pub fault: Option<FaultReport>,
}

impl ExecutionReport {
    /// Observed max per-PE flops per SMVP (the paper's `F`).
    pub fn f_max(&self) -> u64 {
        self.per_step_max(|c| c.flops)
    }

    /// Observed max per-PE words per SMVP (`C_max`).
    pub fn c_max(&self) -> u64 {
        self.per_step_max(|c| c.words())
    }

    /// Observed max per-PE blocks per SMVP (`B_max`).
    pub fn b_max(&self) -> u64 {
        self.per_step_max(|c| c.blocks())
    }

    /// Observed per-PE `(C_i, B_i)` loads per SMVP, the β-bound input.
    pub fn comm_loads(&self) -> Vec<(u64, u64)> {
        let steps = self.steps.max(1);
        self.pe
            .iter()
            .map(|c| (c.words() / steps, c.blocks() / steps))
            .collect()
    }

    /// Compute-phase wall seconds per SMVP step.
    pub fn t_compute_per_step(&self) -> f64 {
        self.phases.compute / self.steps.max(1) as f64
    }

    /// Exchange-phase wall seconds per SMVP step.
    pub fn t_exchange_per_step(&self) -> f64 {
        self.phases.exchange / self.steps.max(1) as f64
    }

    /// Measured parallel efficiency proxy: compute wall over compute +
    /// exchange wall (the paper's `E` with communication as the only
    /// overhead).
    pub fn efficiency(&self) -> f64 {
        let c = self.phases.compute;
        let x = self.phases.exchange;
        if c + x == 0.0 {
            return 1.0;
        }
        c / (c + x)
    }

    /// Per-PE exchange seconds per step (for fitting effective `t_l`/`t_w`).
    pub fn exchange_times_per_step(&self) -> Vec<f64> {
        let steps = self.steps.max(1) as f64;
        self.pe.iter().map(|c| c.t_exchange / steps).collect()
    }

    /// The per-SMVP measurements in the shape
    /// [`quake_core::model::validate`] consumes.
    pub fn measured(&self) -> MeasuredSmvp {
        let steps = self.steps.max(1);
        MeasuredSmvp {
            per_pe_flops: self.pe.iter().map(|c| c.flops / steps).collect(),
            per_pe_loads: self.comm_loads(),
            per_pe_exchange: self.exchange_times_per_step(),
            t_compute: self
                .pe
                .iter()
                .map(|c| c.t_compute / steps as f64)
                .fold(0.0, f64::max),
        }
    }

    fn per_step_max(&self, f: impl Fn(&PeCounters) -> u64) -> u64 {
        let steps = self.steps.max(1);
        self.pe.iter().map(|c| f(c) / steps).max().unwrap_or(0)
    }
}

/// Per-PE slice of the exchange schedule: what PE `q` receives, from whom.
struct Inbound {
    neighbor: usize,
    /// `(local index on q, local index on neighbor)` per shared node.
    pairs: Vec<(usize, usize)>,
}

/// Per-PE slice of the outbound schedule: what PE `q` posts, to whom.
/// `send_idx` lists q's local slots in the *receiver's* pair order, so a
/// packed block applies on the far side index-for-index — that shared
/// order is what keeps every transport bitwise-equal to the in-memory
/// exchange.
struct Outbound {
    to: usize,
    send_idx: Vec<usize>,
}

/// Which local SMVP microkernel the compute phases run. Both kernels
/// traverse the same matrix in the same row order with the same per-lane
/// operation order, so the choice never changes a single output bit or
/// counter — only raw speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The register-blocked scalar 3×3 microkernel (`bmv_range_into`).
    #[default]
    Micro,
    /// The SIMD tile kernel over the flat BCSR layout ([`Bcsr3Tiles`]),
    /// cache-blocked by a memsim-sized [`BandPlan`], with runtime AVX
    /// dispatch and a bitwise-identical scalar fallback.
    MicroSimd,
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "micro" => Ok(KernelKind::Micro),
            "micro-simd" => Ok(KernelKind::MicroSimd),
            other => Err(format!(
                "unknown kernel '{other}' (expected micro or micro-simd)"
            )),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelKind::Micro => "micro",
            KernelKind::MicroSimd => "micro-simd",
        })
    }
}

/// The x-window budget for [`BandPlan`] sizing: half the modeled modern
/// core's L2, leaving the other half to the streamed tiles and indices.
/// Derived from the memsim hierarchy so the model that *predicts* the
/// blocking win is the one that sizes it.
fn band_window_bytes() -> usize {
    (Hierarchy::modern_core_like().l2().capacity_bytes() / 2) as usize
}

/// One PE's executable state: the gather list and stiffness it actually
/// traverses (identical to the subdomain's, or RCM-renumbered).
struct PeState {
    /// `gather[l]`: global node id held in local slot `l`.
    gather: Vec<usize>,
    stiffness: Bcsr3,
    /// The stiffness's flat tile twin plus its band plan, present exactly
    /// when [`KernelKind::MicroSimd`] is selected.
    tiled: Option<(Bcsr3Tiles, BandPlan)>,
}

impl PeState {
    /// Local SMVP over the block-row range `rows` through the selected
    /// microkernel; `out[i - rows.start]` receives row `i`. Bitwise-equal
    /// across kernels.
    fn mult_range(&self, xl: &[Vec3], rows: Range<usize>, out: &mut [Vec3]) {
        match &self.tiled {
            Some((tiles, plan)) => bmv_tiles_banded_into(tiles, plan, xl, rows, out),
            None => bmv_range_into(&self.stiffness, xl, rows, out),
        }
    }
}

/// A raw pointer that may cross thread boundaries; each phase closure
/// dereferences it only for the PEs its worker owns (disjoint indices), and
/// the broadcast barrier orders every access.
struct SendPtr<T>(*mut T);

// Manual impls: the derived ones would demand `T: Copy`, but copying the
// *pointer* never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the type's doc comment — all dereferences are to disjoint
// per-PE elements between barriers.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

/// The `w`-th of `workers` near-equal contiguous chunks of `0..p` — the
/// static PE-to-worker assignment, computed arithmetically so phase
/// closures never allocate.
fn pe_chunk(p: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    (p * w / workers)..(p * (w + 1) / workers)
}

/// [`pe_chunk`] over an executor's owned PE range: the `w`-th chunk of
/// `owned`, in global PE ids. With full ownership (`0..p`, the in-process
/// backends) this is exactly `pe_chunk`.
fn owned_chunk(owned: &Range<usize>, workers: usize, w: usize) -> Range<usize> {
    let r = pe_chunk(owned.len(), workers, w);
    (owned.start + r.start)..(owned.start + r.end)
}

/// In-memory snapshot of the executor's accumulated measurement state,
/// taken every K steps while chaos is armed. Restoring it and replaying the
/// lost steps is [`RecoveryPolicy::Restart`]'s crash path; because each
/// SMVP step is a pure function of `x`, replay heals the data buffers for
/// free and the snapshot only needs the accumulators.
#[derive(Debug, Clone)]
struct Checkpoint {
    step: u64,
    counters: Vec<PeCounters>,
    phases: PhaseWalls,
}

/// Per-PE chaos scratch, written by phase closures through disjoint
/// [`SendPtr`] slots and folded into the [`FaultReport`] on the caller
/// thread once the attempt's broadcasts have drained (consumed by
/// `std::mem::take`).
#[derive(Debug, Clone, Copy, Default)]
struct PeFaultScratch {
    straggles: u64,
    straggle_delay_s: f64,
    crashes: u64,
    drops: u64,
    drops_detected: u64,
    retries: u64,
    corrupts: u64,
    corrupts_detected: u64,
    refetches: u64,
    /// Backoff slept before retrying dropped fetches, ns (telemetry).
    backoff_ns: u64,
    /// Time staging inbound blocks through the NI buffer, ns (telemetry).
    stage_ns: u64,
    /// Time verifying receiver-side checksums, ns (telemetry).
    verify_ns: u64,
}

/// Everything the chaos layer owns while armed.
struct FaultState {
    plan: FaultPlan,
    /// One consumed-flag per plan event. Events are one-shot: a shard
    /// re-executed during recovery skips everything that already fired,
    /// which is what makes every recovery loop converge.
    fired: Vec<AtomicBool>,
    policy: RecoveryPolicy,
    checkpoint_every: u64,
    report: FaultReport,
    checkpoint: Checkpoint,
    scratch: Vec<PeFaultScratch>,
    /// Crash events caught in the current failed attempt; credited as
    /// recovered once the restart has restored state.
    pending_crashes: u64,
}

/// Fetch attempts per exchange block before the executor gives up. Injected
/// drops are transient by construction (events are one-shot), so attempt 2
/// always succeeds; the bound guards the retry loop against logic bugs.
const MAX_FETCH_ATTEMPTS: u32 = 5;

/// Everything the telemetry layer owns while armed: the core recorder plus
/// the per-message latency scratch the fetch writes through.
struct TelemetryState {
    /// The shared clock zero every span offset is measured from.
    epoch: Instant,
    data: Telemetry,
    /// Per-PE, per-inbound-message fetch latency scratch (ns), sized to the
    /// exchange schedule at arm time so recording never allocates.
    msg_ns: Vec<Vec<u64>>,
}

/// Node-placement view of a two-level (node-aware) run, used by traced
/// steps for attribution only. The exchange schedule never consults it:
/// aggregation happens entirely inside the transport, so arming a node map
/// changes no output, no counter, and no acquire order.
struct NodeView {
    /// PE → node placement (matches the transport's `NodeMap`).
    node_of: Vec<usize>,
    /// Words of each merged cross-node (node, node) block whose sending
    /// node's leader PE this executor owns — the blocks this shard's relay
    /// actually puts on the slow link, recorded once per traced step.
    pair_words: Vec<u64>,
}

/// Seconds to integer nanoseconds for span durations.
fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Nanoseconds of `t` since `epoch`.
fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

impl TelemetryState {
    /// Records PE `q`'s span for one lap of `phase`; returns the span's end
    /// offset (ns since epoch).
    fn span(&mut self, phase: PhaseId, q: usize, step: u64, lap: Lap) -> u64 {
        let start_ns = ns_since(self.epoch, lap.start);
        let dur_ns = secs_to_ns(lap.secs);
        self.data.span(Span {
            phase,
            pe: q as u32,
            step,
            start_ns,
            dur_ns,
        });
        start_ns + dur_ns
    }

    /// Records the `secs` PE `q` sat idle at the end of a broadcast as a
    /// Barrier span starting at `from_ns`, and bills it to the Barrier
    /// phase wall. Nothing when the PE never idled.
    fn idle(&mut self, q: usize, step: u64, from_ns: u64, secs: f64) {
        if secs > 0.0 {
            let dur_ns = secs_to_ns(secs);
            self.data.add_phase_wall(PhaseId::Barrier, dur_ns);
            self.data.span(Span {
                phase: PhaseId::Barrier,
                pe: q as u32,
                step,
                start_ns: from_ns,
                dur_ns,
            });
        }
    }
}

/// When one pass of one PE started and how many seconds of work it took.
#[derive(Debug, Clone, Copy)]
struct Lap {
    start: Instant,
    secs: f64,
}

impl Lap {
    /// The lap from `start` to now.
    fn since(start: Instant) -> Self {
        Lap {
            start,
            secs: start.elapsed().as_secs_f64(),
        }
    }
}

/// One PE's laps in the current step: written by the worker that owns the
/// PE, read by the driver once the broadcast has drained. Every step keeps
/// them — they feed the report's per-PE seconds — and traced steps turn
/// them into spans.
#[derive(Debug, Clone, Copy)]
struct PeClock {
    assemble: Lap,
    /// Overlap pass A: boundary rows plus post. The barrier schedule does
    /// not run it and never reads it.
    post: Lap,
    /// The local SMVP (barrier) or pass B's interior rows (overlap).
    compute: Lap,
    /// Post plus fetch-and-apply (barrier) or pass C's fetch-and-apply
    /// (overlap).
    exchange: Lap,
    /// Seconds of `exchange` spent blocked in `Transport::acquire`.
    waited: f64,
}

/// Wall seconds of the compute and exchange broadcasts of one step, per
/// schedule. The schedule decides how they bill to the report's phases.
#[derive(Debug, Clone, Copy)]
enum Walls {
    /// A compute broadcast, then an exchange broadcast.
    Barrier { compute: f64, exchange: f64 },
    /// One merged broadcast running passes A, B and C.
    Overlap { merged: f64 },
}

/// The armed chaos layer as the phase closures see it.
struct FaultHook<'a> {
    plan: &'a FaultPlan,
    fired: &'a [AtomicBool],
    scratch: SendPtr<PeFaultScratch>,
}

impl FaultHook<'_> {
    /// Consumes plan event `e`: true only the first time it is asked.
    fn fire(&self, e: usize) -> bool {
        !self.fired[e].swap(true, Ordering::Relaxed)
    }

    /// Reads or updates PE `q`'s chaos scratch.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` in the current phase (see [`StepView`]).
    unsafe fn scratch<R>(&self, q: usize, f: impl FnOnce(&mut PeFaultScratch) -> R) -> R {
        // SAFETY: the caller owns slot q, so this is its only reference.
        f(unsafe { &mut *self.scratch.get().add(q) })
    }

    /// Compute-pass injection for PE `q`: an unfired crash panics the
    /// worker (checked first, so a consumed straggle always has a written
    /// lap behind it); an unfired straggle sleeps its delay.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` in the current phase (see [`StepView`]).
    unsafe fn strike(&self, step: u64, q: usize) {
        let events = self.plan.events();
        for e in self.plan.at(step, q) {
            if let FaultKind::Crash = events[e].kind {
                if self.fire(e) {
                    // SAFETY: the caller owns PE q.
                    unsafe { self.scratch(q, |sc| sc.crashes += 1) };
                    panic!("injected fault: PE {q} crash at step {step}");
                }
            }
        }
        for e in self.plan.at(step, q) {
            if let FaultKind::Straggle { delay_us } = events[e].kind {
                if self.fire(e) {
                    let delay = Duration::from_micros(u64::from(delay_us));
                    // SAFETY: the caller owns PE q.
                    unsafe {
                        self.scratch(q, |sc| {
                            sc.straggles += 1;
                            sc.straggle_delay_s += delay.as_secs_f64();
                        })
                    };
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// True if the network eats this fetch of PE `q`'s inbound message
    /// `mi`: an unfired Drop event is charged to it (the j-th Drop on PE q
    /// targets message j mod `n_msgs`).
    fn drops(&self, step: u64, q: usize, mi: usize, n_msgs: usize) -> bool {
        let events = self.plan.events();
        let mut dcount = 0usize;
        for e in self.plan.at(step, q) {
            if let FaultKind::Drop = events[e].kind {
                let victim = dcount % n_msgs;
                dcount += 1;
                if victim == mi && self.fire(e) {
                    return true;
                }
            }
        }
        false
    }

    /// In-flight corruption of PE `q`'s staged message `mi`: flips one bit
    /// of one ghost word, chosen by the salt of an unfired Corrupt event
    /// that targets the message. True if a bit flipped.
    fn corrupt(&self, step: u64, q: usize, mi: usize, n_msgs: usize, block: &mut [Vec3]) -> bool {
        for e in self.plan.at(step, q) {
            if let FaultKind::Corrupt { salt } = self.plan.events()[e].kind {
                if (salt as usize) % n_msgs == mi && self.fire(e) {
                    let wi = ((salt >> 8) as usize) % (3 * block.len());
                    let bit = ((salt >> 32) % 64) as u32;
                    let v = &mut block[wi / 3];
                    let c = match wi % 3 {
                        0 => &mut v.x,
                        1 => &mut v.y,
                        _ => &mut v.z,
                    };
                    *c = f64::from_bits(c.to_bits() ^ (1u64 << bit));
                    return true;
                }
            }
        }
        false
    }
}

/// One step's view of the executor, shared by every phase closure: plain
/// references to the read-only plan plus [`SendPtr`]s to the per-PE
/// buffers. Each method touches only the slots of the PE `q` it is given.
/// Its safety contract is ownership: only the thread that owns `q` in the
/// current phase may pass it — the worker whose chunk holds `q` while a
/// broadcast runs (each PE belongs to exactly one chunk), the driver
/// between broadcasts — so no two threads ever reach the same slot, and
/// the broadcast barrier orders every hand-over.
struct StepView<'a> {
    step: u64,
    x: &'a [Vec3],
    pe: &'a [PeState],
    inbound: &'a [Vec<Inbound>],
    outbound: &'a [Vec<Outbound>],
    link: &'a dyn Transport,
    x_local: SendPtr<Vec<Vec3>>,
    partials: SendPtr<Vec<Vec3>>,
    exchanged: SendPtr<Vec<Vec3>>,
    pack: SendPtr<Vec<Vec3>>,
    stage: SendPtr<Vec<Vec3>>,
    clock: SendPtr<PeClock>,
    /// The armed chaos layer, or `None`.
    fault: Option<FaultHook<'a>>,
    /// Armed telemetry's per-message latency scratch, or `None`.
    msg_ns: Option<SendPtr<Vec<u64>>>,
}

impl StepView<'_> {
    /// Reads or updates PE `q`'s clock.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` (see the type docs).
    unsafe fn clock<R>(&self, q: usize, f: impl FnOnce(&mut PeClock) -> R) -> R {
        // SAFETY: the caller owns slot q, so this is its only reference.
        f(unsafe { &mut *self.clock.get().add(q) })
    }

    /// Assemble: gathers PE `q`'s replicated local x from the global input.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` (see the type docs).
    unsafe fn gather(&self, q: usize) {
        // SAFETY: the caller owns slot q.
        let xl = unsafe { &mut *self.x_local.get().add(q) };
        for (slot, &g) in xl.iter_mut().zip(&self.pe[q].gather) {
            *slot = self.x[g];
        }
    }

    /// Compute: PE `q`'s local SMVP over block rows `rows`, into the same
    /// rows of its partials.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` (see the type docs).
    unsafe fn compute(&self, q: usize, rows: Range<usize>) {
        // SAFETY: the caller owns slot q; x_local[q] was fully written
        // before the assemble barrier.
        let (xl, part) = unsafe {
            (
                &*self.x_local.get().add(q),
                &mut *self.partials.get().add(q),
            )
        };
        self.pe[q].mult_range(xl, rows.clone(), &mut part[rows]);
    }

    /// Exchange, send half: packs PE `q`'s outbound ghost blocks in the
    /// receiver's pair order and posts them. Posting is not a fault
    /// target: drops and corruption strike the receive side of the modeled
    /// wire, so posted blocks are always clean.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` (see the type docs).
    unsafe fn post(&self, q: usize) {
        // SAFETY: the caller owns slot q.
        let (mine, buf) = unsafe { (&*self.partials.get().add(q), &mut *self.pack.get().add(q)) };
        for ob in &self.outbound[q] {
            let blk = &mut buf[..ob.send_idx.len()];
            for (slot, &l) in blk.iter_mut().zip(&ob.send_idx) {
                *slot = mine[l];
            }
            self.link
                .post(self.step, q, ob.to, blk)
                .expect("transport post");
        }
    }

    /// Exchange, receive half: seeds `exchanged[q]` with PE `q`'s own
    /// partials, then fetches each inbound block through the staging
    /// buffer (the modeled NI buffer) and adds it in schedule order — the
    /// serial product's summation order, so every transport and schedule
    /// is bitwise-equal. With faults armed a fetch may be dropped (retried
    /// after a bounded backoff) or corrupted in flight (caught by the
    /// receiver-side checksum and re-fetched). Returns the seconds spent
    /// blocked in `Transport::acquire`.
    ///
    /// # Safety
    ///
    /// The caller owns PE `q` (see the type docs).
    unsafe fn fetch_apply(&self, q: usize) -> f64 {
        let step = self.step;
        // SAFETY: the caller owns slot q; partials[q] is complete, written
        // by this same thread's compute passes.
        let (out, mine, buf) = unsafe {
            (
                &mut *self.exchanged.get().add(q),
                &*self.partials.get().add(q),
                &mut *self.stage.get().add(q),
            )
        };
        out.copy_from_slice(mine);
        let n_msgs = self.inbound[q].len();
        let mut waited = 0.0f64;
        for (mi, msg) in self.inbound[q].iter().enumerate() {
            let tm = self.msg_ns.map(|_| Instant::now());
            let block = &mut buf[..msg.pairs.len()];
            let mut retry = None;
            let mut attempt: u32 = 0;
            loop {
                attempt += 1;
                assert!(
                    attempt <= MAX_FETCH_ATTEMPTS,
                    "PE {q} message {mi}: fetch failed after {MAX_FETCH_ATTEMPTS} attempts"
                );
                if let Some(f) = &self.fault {
                    if f.drops(step, q, mi, n_msgs) {
                        // Detected: the fetch visibly failed. Retry after a
                        // bounded decorrelated-jitter backoff, seeded per
                        // (step, PE, message) so a replayed step sleeps the
                        // identical schedule.
                        let backoff = retry
                            .get_or_insert_with(|| {
                                RetryBackoff::new(mix64(
                                    step ^ ((q as u64) << 40) ^ ((mi as u64) << 20),
                                ))
                            })
                            .next_delay();
                        // SAFETY: the caller owns PE q.
                        unsafe {
                            f.scratch(q, |sc| {
                                sc.drops += 1;
                                sc.drops_detected += 1;
                                sc.retries += 1;
                                sc.backoff_ns += backoff.as_nanos() as u64;
                            })
                        };
                        std::thread::sleep(backoff);
                        continue;
                    }
                }
                // A re-fetch acquires the same posted step again.
                let ts = self.fault.as_ref().map(|_| Instant::now());
                let info = self
                    .link
                    .acquire(step, msg.neighbor, q, block)
                    .expect("transport acquire");
                waited += info.waited_s;
                if let (Some(f), Some(ts)) = (&self.fault, ts) {
                    let stage_ns = ts.elapsed().as_nanos() as u64;
                    let corrupted = f.corrupt(step, q, mi, n_msgs, block);
                    // Receiver-side verification against the sender-side
                    // checksum the transport carried; a mismatch forces a
                    // clean re-fetch of the whole block.
                    let tv = Instant::now();
                    let verified = self.link.verify(block, info.checksum);
                    let verify_ns = tv.elapsed().as_nanos() as u64;
                    // SAFETY: the caller owns PE q.
                    unsafe {
                        f.scratch(q, |sc| {
                            sc.stage_ns += stage_ns;
                            sc.verify_ns += verify_ns;
                            sc.corrupts += u64::from(corrupted);
                            sc.corrupts_detected += u64::from(!verified);
                            sc.refetches += u64::from(!verified);
                        })
                    };
                    if !verified {
                        continue;
                    }
                }
                break;
            }
            for (&(m, _), v) in msg.pairs.iter().zip(block.iter()) {
                out[m] += *v;
            }
            if let (Some(lat), Some(tm)) = (self.msg_ns, tm) {
                // SAFETY: the caller owns slot q.
                let lat = unsafe { &mut *lat.get().add(q) };
                lat[mi] = tm.elapsed().as_nanos() as u64;
            }
        }
        waited
    }

    /// `Degrade` recovery of one dead worker: re-runs its compute chunk
    /// inline via `rerun` until the chunk completes (remaining one-shot
    /// events may fire, and panic, again) and returns the attempts. The
    /// rows are fully overwritten, so the result is bitwise what the
    /// worker would have produced. Each attempt overwrites the chunk's
    /// compute laps, but a straggle's sleep shows only in the attempt
    /// where it fired, so a PE that straggled keeps its longest lap: the
    /// observational evidence of the straggle survives the re-run.
    ///
    /// # Safety
    ///
    /// Called by the driver between broadcasts, so it owns every PE.
    unsafe fn degrade(&self, chunk: Range<usize>, rerun: impl Fn()) -> u64 {
        // SAFETY: the caller owns every PE.
        let lap = |q: usize| unsafe { self.clock(q, |c| c.compute.secs) };
        let mut longest: Vec<f64> = chunk.clone().map(lap).collect();
        let mut attempts = 0;
        loop {
            attempts += 1;
            let done = catch_unwind(AssertUnwindSafe(&rerun)).is_ok();
            for (l, q) in longest.iter_mut().zip(chunk.clone()) {
                *l = l.max(lap(q));
            }
            if done {
                break;
            }
        }
        let fault = self
            .fault
            .as_ref()
            .expect("degrade runs only with faults armed");
        for (&l, q) in longest.iter().zip(chunk) {
            // SAFETY: the caller owns every PE.
            unsafe {
                if fault.scratch(q, |sc| sc.straggle_delay_s) > 0.0 {
                    self.clock(q, |c| c.compute.secs = l);
                }
            }
        }
        attempts
    }
}

/// Bulk-synchronous instrumented executor over a [`DistributedSystem`].
pub struct BspExecutor {
    pool: WorkerPool,
    pe: Vec<PeState>,
    /// `inbound[q]`: messages PE q receives each exchange phase.
    inbound: Vec<Vec<Inbound>>,
    /// `outbound[q]`: blocks PE q posts each exchange phase.
    outbound: Vec<Vec<Outbound>>,
    /// The PEs this executor instance actually runs: all of them for the
    /// in-process transports, one shard's contiguous slice under `proc`.
    owned: Range<usize>,
    /// The ghost-block transport every exchange phase goes through.
    link: Arc<dyn Transport>,
    global_nodes: usize,
    rcm: bool,
    /// The microkernel the compute phases dispatch to.
    kernel: KernelKind,
    /// Armed chaos layer, checked once per PE in the compute pass and once
    /// per inbound message in the fetch; `None` when disarmed.
    fault: Option<Box<FaultState>>,
    /// Armed telemetry layer, checked once per inbound message during a
    /// step and recorded once after it; `None` when disarmed.
    telemetry: Option<Box<TelemetryState>>,
    /// Overlap schedule: `boundary_rows[q]` means PE q's rows `0..nb` are
    /// boundary rows (a neighbor consumes them) and the rest interior.
    /// `None` runs the barrier schedule.
    boundary_rows: Option<Vec<usize>>,
    /// Node placement of a two-level run, or `None` when flat. Telemetry
    /// attribution only (see [`NodeView`]).
    node_view: Option<NodeView>,
    // Persistent per-step buffers: sized once in `build`, reused by every
    // `step_into` so the steady-state step never touches the allocator.
    x_local: Vec<Vec<Vec3>>,
    partials: Vec<Vec<Vec3>>,
    exchanged: Vec<Vec<Vec3>>,
    /// Per-PE send packing buffer, sized to the largest outbound edge.
    pack: Vec<Vec<Vec3>>,
    /// Per-PE receive staging buffer (the modeled NI buffer), sized to the
    /// largest inbound edge.
    stage: Vec<Vec<Vec3>>,
    clock: Vec<PeClock>,
    /// Per-PE exchange seconds net of `Transport::acquire` waits — the
    /// drift monitor's feed, so transport spin waits never read as per-PE
    /// load skew.
    drift_feed: Vec<f64>,
    written: Vec<bool>,
    counters: Vec<PeCounters>,
    phases: PhaseWalls,
    steps: u64,
}

impl BspExecutor {
    /// Creates an executor running `system`'s PEs on `threads` pooled
    /// workers, in the subdomains' natural node order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(system: &DistributedSystem, threads: usize) -> Self {
        Self::build(system, threads, false, false)
    }

    /// Like [`BspExecutor::new`], but renumbers each PE's local nodes with
    /// reverse Cuthill–McKee first (see the module docs). Numerics and
    /// counters are unchanged; only the traversal order (and hence cache
    /// behaviour) differs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_rcm(system: &DistributedSystem, threads: usize) -> Self {
        Self::build(system, threads, true, false)
    }

    /// Creates an executor with both locality options explicit: `use_rcm`
    /// for the reverse Cuthill–McKee pre-pass and `use_overlap` for the
    /// latency-hiding interior/boundary schedule (see the module docs).
    /// The options compose; either way output is bitwise-equal to
    /// [`BspExecutor::new`] with the same `use_rcm`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_options(
        system: &DistributedSystem,
        threads: usize,
        use_rcm: bool,
        use_overlap: bool,
    ) -> Self {
        Self::build(system, threads, use_rcm, use_overlap)
    }

    fn build(system: &DistributedSystem, threads: usize, use_rcm: bool, use_overlap: bool) -> Self {
        let p = system.subdomains().len();
        let link: Arc<dyn Transport> = Arc::new(SharedTransport::new(&ghost_edges(system)));
        Self::with_transport(system, threads, use_rcm, use_overlap, 0..p, link)
    }

    /// Creates an executor that runs only the PEs in `owned` and routes
    /// every ghost-block exchange through `link`. This is the fully general
    /// constructor the transport backends use: the in-process constructors
    /// above are `owned = 0..p` over a [`SharedTransport`], the `proc`
    /// backend builds one executor per shard process with that shard's PE
    /// slice and a socket-backed link. Non-owned PEs are never computed,
    /// exchanged, or folded — their ghost blocks arrive through the link.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `owned` is out of `0..p` bounds.
    pub fn with_transport(
        system: &DistributedSystem,
        threads: usize,
        use_rcm: bool,
        use_overlap: bool,
        owned: Range<usize>,
        link: Arc<dyn Transport>,
    ) -> Self {
        let subdomains = system.subdomains();
        let p = subdomains.len();
        assert!(
            owned.start <= owned.end && owned.end <= p,
            "owned PE range {owned:?} out of bounds for {p} PEs"
        );
        // Boundary flags in the subdomains' natural numbering: a local node
        // is boundary iff it appears in some exchange pair (a neighbor PE
        // holds a replica and will consume its partial), interior otherwise.
        let mut boundary_old: Vec<Vec<bool>> = subdomains
            .iter()
            .map(|sd| vec![false; sd.node_count()])
            .collect();
        if use_overlap {
            for ex in system.exchanges() {
                for &(la, lb) in &ex.pairs {
                    boundary_old[ex.a][la] = true;
                    boundary_old[ex.b][lb] = true;
                }
            }
        }
        // Per-PE: composed local permutation (`perm[old] = new`, or None
        // for the natural order), executable state, boundary row count.
        let mut perms: Vec<Option<Vec<usize>>> = Vec::with_capacity(p);
        let mut pe: Vec<PeState> = Vec::with_capacity(p);
        let mut boundary_rows: Vec<usize> = Vec::with_capacity(p);
        for (q, sd) in subdomains.iter().enumerate() {
            let n = sd.node_count();
            // Stage 1: RCM bandwidth reduction — the column-sorted
            // permutation `with_rcm` always applied.
            let p1: Option<Vec<usize>> = if use_rcm {
                let (row_ptr, col_idx) = sd.stiffness.adjacency();
                let mut edges = Vec::new();
                for i in 0..n {
                    for k in row_ptr[i]..row_ptr[i + 1] {
                        let j = col_idx[k];
                        if j > i {
                            edges.push((i, j));
                        }
                    }
                }
                let pattern =
                    Pattern::from_edges(n, &edges).expect("block adjacency indices are in range");
                Some(rcm(&pattern))
            } else {
                None
            };
            // Stage 2: boundary-first reorder, stable within each class so
            // every row keeps its stage-1 entry order — and with it its
            // floating-point summation order. That stability is what keeps
            // the overlapped schedule bitwise-equal to the barrier one.
            let (p2, nb): (Option<Vec<usize>>, usize) = if use_overlap {
                let mut b1 = vec![false; n];
                for (old, &flag) in boundary_old[q].iter().enumerate() {
                    if flag {
                        b1[p1.as_ref().map_or(old, |pm| pm[old])] = true;
                    }
                }
                let nb = b1.iter().filter(|&&b| b).count();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (!b1[i], i));
                let mut p2 = vec![0usize; n];
                for (rank, &i) in order.iter().enumerate() {
                    p2[i] = rank;
                }
                (Some(p2), nb)
            } else {
                (None, 0)
            };
            let composed: Option<Vec<usize>> = match (&p1, &p2) {
                (None, None) => None,
                (Some(a), None) => Some(a.clone()),
                (None, Some(b)) => Some(b.clone()),
                (Some(a), Some(b)) => Some(a.iter().map(|&s1| b[s1]).collect()),
            };
            let stiffness = {
                let s1 = match &p1 {
                    None => sd.stiffness.clone(),
                    Some(a) => sd
                        .stiffness
                        .permute_symmetric(a)
                        .expect("RCM yields a valid permutation"),
                };
                match &p2 {
                    None => s1,
                    Some(b) => s1
                        .permute_symmetric_stable(b)
                        .expect("boundary-first reorder is a valid permutation"),
                }
            };
            let gather = match &composed {
                None => sd.global_nodes.clone(),
                Some(f) => {
                    let mut gather = vec![0usize; n];
                    for (old, &g) in sd.global_nodes.iter().enumerate() {
                        gather[f[old]] = g;
                    }
                    gather
                }
            };
            perms.push(composed);
            pe.push(PeState {
                gather,
                stiffness,
                tiled: None,
            });
            boundary_rows.push(nb);
        }
        // Exchange pair indices are local slots, so they follow the
        // renumbering.
        let map = |q: usize, l: usize| perms[q].as_ref().map_or(l, |pm| pm[l]);
        let mut inbound: Vec<Vec<Inbound>> = (0..p).map(|_| Vec::new()).collect();
        for ex in system.exchanges() {
            inbound[ex.a].push(Inbound {
                neighbor: ex.b,
                pairs: ex
                    .pairs
                    .iter()
                    .map(|&(la, lb)| (map(ex.a, la), map(ex.b, lb)))
                    .collect(),
            });
            inbound[ex.b].push(Inbound {
                neighbor: ex.a,
                pairs: ex
                    .pairs
                    .iter()
                    .map(|&(la, lb)| (map(ex.b, lb), map(ex.a, la)))
                    .collect(),
            });
        }
        let mut outbound: Vec<Vec<Outbound>> = (0..p).map(|_| Vec::new()).collect();
        for ex in system.exchanges() {
            // Mirror of `inbound`: the entry feeding inbound[a]'s pairs is
            // outbound[b], packed in the exact same ex.pairs order.
            outbound[ex.b].push(Outbound {
                to: ex.a,
                send_idx: ex.pairs.iter().map(|&(_, lb)| map(ex.b, lb)).collect(),
            });
            outbound[ex.a].push(Outbound {
                to: ex.b,
                send_idx: ex.pairs.iter().map(|&(la, _)| map(ex.a, la)).collect(),
            });
        }
        if use_overlap {
            // The overlap schedule posts right after the boundary pass, so
            // every sent slot must be a boundary row.
            for (q, obs) in outbound.iter().enumerate() {
                for ob in obs {
                    debug_assert!(
                        ob.send_idx.iter().all(|&l| l < boundary_rows[q]),
                        "PE {q} would post interior rows before computing them"
                    );
                }
            }
        }
        let pack: Vec<Vec<Vec3>> = outbound
            .iter()
            .map(|obs| {
                let max = obs.iter().map(|o| o.send_idx.len()).max().unwrap_or(0);
                vec![Vec3::ZERO; max]
            })
            .collect();
        let stage: Vec<Vec<Vec3>> = inbound
            .iter()
            .map(|msgs| {
                let max = msgs.iter().map(|m| m.pairs.len()).max().unwrap_or(0);
                vec![Vec3::ZERO; max]
            })
            .collect();
        let local_buf = || {
            pe.iter()
                .map(|s| vec![Vec3::ZERO; s.gather.len()])
                .collect::<Vec<_>>()
        };
        let now = Instant::now();
        let lap = Lap {
            start: now,
            secs: 0.0,
        };
        let clock = PeClock {
            assemble: lap,
            post: lap,
            compute: lap,
            exchange: lap,
            waited: 0.0,
        };
        BspExecutor {
            pool: WorkerPool::new(threads),
            x_local: local_buf(),
            partials: local_buf(),
            exchanged: local_buf(),
            pack,
            stage,
            clock: vec![clock; p],
            drift_feed: vec![0.0; p],
            written: vec![false; system.global_nodes()],
            global_nodes: system.global_nodes(),
            pe,
            inbound,
            outbound,
            owned,
            link,
            rcm: use_rcm,
            kernel: KernelKind::Micro,
            fault: None,
            telemetry: None,
            boundary_rows: use_overlap.then_some(boundary_rows),
            node_view: None,
            counters: vec![PeCounters::default(); p],
            phases: PhaseWalls::default(),
            steps: 0,
        }
    }

    /// Arms the chaos layer: from the next step on, `plan`'s events fire at
    /// their scheduled (step, PE) slots and the executor recovers per
    /// `policy`, snapshotting its accumulators every `checkpoint_every`
    /// steps. With an empty plan the fault hook and the checkpoints still
    /// run (useful for invariance tests) but nothing is injected.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every == 0`.
    pub fn enable_faults(
        &mut self,
        plan: FaultPlan,
        policy: RecoveryPolicy,
        checkpoint_every: u64,
    ) {
        assert!(
            checkpoint_every > 0,
            "checkpoint interval must be at least 1 step"
        );
        let p = self.pe.len();
        self.fault = Some(Box::new(FaultState {
            fired: (0..plan.len()).map(|_| AtomicBool::new(false)).collect(),
            plan,
            policy,
            checkpoint_every,
            report: FaultReport::default(),
            // Seed the checkpoint with the armed-at state so a crash before
            // the first periodic snapshot restores to something valid.
            checkpoint: Checkpoint {
                step: self.steps,
                counters: self.counters.clone(),
                phases: self.phases,
            },
            scratch: vec![PeFaultScratch::default(); p],
            pending_crashes: 0,
        }));
    }

    /// The chaos ledger so far, or `None` if faults were never armed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.fault.as_ref().map(|f| f.report)
    }

    /// Arms the telemetry layer: from the next step on, every phase records
    /// per-PE spans, the exchange feeds the block latency/size histograms,
    /// and (if configured) the drift monitor checks each step against the
    /// Eq. (2) model. Traced and untraced steps run the same engine, so
    /// tracing never changes results: the hook only times each inbound
    /// message during the step and records the rest after the fold (see
    /// the module docs for where it is checked and how its cost is
    /// measured).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.enable_telemetry_at(config, Instant::now());
    }

    /// [`Self::enable_telemetry`] with an explicit epoch. A shard child
    /// passes its transport fabric's origin instant so every span timestamp
    /// is already expressed on the clock the parent's handshake-time offset
    /// measurement refers to — the merged timeline needs no post-hoc shift.
    pub fn enable_telemetry_at(&mut self, config: TelemetryConfig, epoch: Instant) {
        // Per-*owned*-PE (C_i, B_i) per step, counting both directions like
        // `PeCounters::words()`/`blocks()` — the drift monitor must use the
        // same convention as the validation layer, and under a partial
        // ownership it only ever observes the owned slice.
        let loads: Vec<(u64, u64)> = self.inbound[self.owned.clone()]
            .iter()
            .map(|msgs| {
                let words: u64 = msgs.iter().map(|m| 3 * m.pairs.len() as u64).sum();
                (2 * words, 2 * msgs.len() as u64)
            })
            .collect();
        let msg_ns = self
            .inbound
            .iter()
            .map(|msgs| vec![0u64; msgs.len()])
            .collect();
        self.telemetry = Some(Box::new(TelemetryState {
            epoch,
            data: Telemetry::new(self.owned.len(), loads, config),
            msg_ns,
        }));
    }

    /// The telemetry recorded so far, or `None` if telemetry was never
    /// armed.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref().map(|t| &t.data)
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The worker pool's lifetime dispatch counters (batches, targeted
    /// recovery re-runs, thread respawns).
    pub fn pool_stats(&self) -> quake_spark::PoolStats {
        self.pool.stats()
    }

    /// True if this executor runs over RCM-renumbered subdomains.
    pub fn rcm_enabled(&self) -> bool {
        self.rcm
    }

    /// True if this executor runs the latency-hiding overlap schedule.
    pub fn overlap_enabled(&self) -> bool {
        self.boundary_rows.is_some()
    }

    /// Selects the compute-phase microkernel. `MicroSimd` builds each
    /// owned PE's flat tile twin and memsim-sized band plan (a one-time
    /// cost, like the RCM pre-pass); `Micro` drops them. Output, counters
    /// and every schedule/transport interaction are bitwise-unchanged —
    /// the kernels share one traversal and operation order.
    pub fn set_kernel(&mut self, kernel: KernelKind) {
        if kernel == self.kernel {
            return;
        }
        self.kernel = kernel;
        let window = band_window_bytes();
        for q in self.owned.clone() {
            let s = &mut self.pe[q];
            s.tiled = match kernel {
                KernelKind::Micro => None,
                KernelKind::MicroSimd => {
                    let tiles = Bcsr3Tiles::from_bcsr(&s.stiffness);
                    let plan = BandPlan::for_tiles(&tiles, window);
                    Some((tiles, plan))
                }
            };
        }
    }

    /// The microkernel the compute phases currently dispatch to.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Hands the executor the PE → node placement of a node-aware run
    /// (`node_of[q]` = the node PE q lives on, matching the transport's
    /// `NodeMap`). Telemetry attribution only: traced steps emit an
    /// intra-node `gather` span inside each exchange and feed the merged
    /// per-(node, node) block-size histogram. The exchange itself never
    /// consults the map — aggregation lives in the transport — so output,
    /// counters, and acquire order are bitwise-unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node_of` does not cover every PE.
    pub fn set_node_map(&mut self, node_of: &[usize]) {
        let p = self.pe.len();
        assert_eq!(node_of.len(), p, "node map must cover every PE");
        let nodes = node_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut merged = vec![0u64; nodes * nodes];
        for (q, msgs) in self.inbound.iter().enumerate() {
            for msg in msgs {
                let (src, dst) = (node_of[msg.neighbor], node_of[q]);
                if src != dst {
                    merged[src * nodes + dst] += 3 * msg.pairs.len() as u64;
                }
            }
        }
        // A node's leader is its lowest PE; keeping only leader-owned
        // source nodes counts each merged block exactly once across `proc`
        // shards — the same shard whose relay puts it on the slow link.
        let mut leader = vec![usize::MAX; nodes];
        for (q, &n) in node_of.iter().enumerate().rev() {
            leader[n] = q;
        }
        let mut pair_words = Vec::new();
        for src in 0..nodes {
            if !self.owned.contains(&leader[src]) {
                continue;
            }
            for dst in 0..nodes {
                let w = merged[src * nodes + dst];
                if w > 0 {
                    pair_words.push(w);
                }
            }
        }
        self.node_view = Some(NodeView {
            node_of: node_of.to_vec(),
            pair_words,
        });
    }

    /// The armed PE → node placement, or `None` on flat runs.
    pub fn node_map(&self) -> Option<&[usize]> {
        self.node_view.as_ref().map(|nv| nv.node_of.as_slice())
    }

    /// Node-aware telemetry hooks for one traced exchange: per owned PE, a
    /// `gather` span (the share of its fetch time spent on same-node
    /// neighbors — the intra-node leg of the two-level exchange) nested at
    /// the head of its exchange span, plus one histogram sample per merged
    /// (node, node) block this shard leads. No-op on flat runs.
    fn record_node_exchange(&self, telem: &mut TelemetryState, step: u64) {
        let Some(nv) = &self.node_view else {
            return;
        };
        for q in self.owned.clone() {
            let intra_ns: u64 = self.inbound[q]
                .iter()
                .enumerate()
                .filter(|(_, m)| nv.node_of[m.neighbor] == nv.node_of[q])
                .map(|(mi, _)| telem.msg_ns[q][mi])
                .sum();
            let exchange = self.clock[q].exchange;
            let gather_ns = intra_ns.min(secs_to_ns(exchange.secs));
            if gather_ns > 0 {
                telem.data.add_phase_wall(PhaseId::Gather, gather_ns);
                telem.data.span(Span {
                    phase: PhaseId::Gather,
                    pe: q as u32,
                    step,
                    start_ns: ns_since(telem.epoch, exchange.start),
                    dur_ns: gather_ns,
                });
            }
        }
        for &w in &nv.pair_words {
            telem.data.node_block_words.record(w);
        }
    }

    /// Per-PE boundary row counts of the overlap split, or `None` when the
    /// executor runs the barrier schedule. Matches
    /// [`OverlapAnalysis`](quake_partition::comm::OverlapAnalysis) exactly
    /// (checked in tests): the split the executor runs is the split the
    /// model prices.
    pub fn overlap_boundary_rows(&self) -> Option<&[usize]> {
        self.boundary_rows.as_deref()
    }

    /// `(pointer, capacity)` of every persistent per-step buffer. Steady
    /// state means this is identical before and after a `step_into` — the
    /// step reallocated nothing.
    pub fn buffer_fingerprint(&self) -> Vec<(usize, usize)> {
        fn buf<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        let mut fp = Vec::new();
        for group in [
            &self.x_local,
            &self.partials,
            &self.exchanged,
            &self.pack,
            &self.stage,
        ] {
            fp.extend(group.iter().map(buf));
        }
        fp.extend([buf(&self.clock), buf(&self.drift_feed), buf(&self.written)]);
        if let Some(f) = &self.fault {
            fp.extend([buf(&f.checkpoint.counters), buf(&f.scratch)]);
        }
        if let Some(t) = &self.telemetry {
            fp.extend(t.msg_ns.iter().map(buf));
        }
        fp
    }

    /// The PE range this executor runs (see [`BspExecutor::with_transport`]).
    pub fn owned_range(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// PE `q`'s gather list (local slot → global node), post-renumbering.
    /// The `proc` shard host sends these alongside the exchanged vectors so
    /// the parent can fold without rebuilding the permutations.
    pub(crate) fn gather_of(&self, q: usize) -> &[usize] {
        &self.pe[q].gather
    }

    /// PE `q`'s post-exchange partial vector after the last executed step.
    pub(crate) fn exchanged_of(&self, q: usize) -> &[Vec3] {
        &self.exchanged[q]
    }

    /// Executes one bulk-synchronous SMVP `y = Kx` for a global input
    /// vector, updating the counters. Allocation-free: every buffer
    /// (including `y`) is caller- or executor-owned and reused.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` does not match the mesh node count.
    pub fn step_into(&mut self, x: &[Vec3], y: &mut [Vec3]) {
        assert_eq!(x.len(), self.global_nodes, "x length must match mesh nodes");
        assert_eq!(y.len(), self.global_nodes, "y length must match mesh nodes");
        if self.fault.is_some() {
            self.chaos_step_into(x, y);
        } else if self.execute_step(x, y, self.steps).is_err() {
            unreachable!("only an armed Restart policy fails a step");
        }
        // One logical step, however many attempts it took.
        self.steps += 1;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.data.steps += 1;
        }
    }

    /// The chaos-armed step: checkpoints on schedule, executes the logical
    /// step, and on a crashed attempt (Restart policy) respawns the dead
    /// workers, restores the last checkpoint, and replays forward until the
    /// target step completes.
    fn chaos_step_into(&mut self, x: &[Vec3], y: &mut [Vec3]) {
        let target = self.steps;
        let fault = self
            .fault
            .as_deref_mut()
            .expect("chaos step requires armed faults");
        if target.is_multiple_of(fault.checkpoint_every) {
            // `clone_from` reuses the snapshot's buffer, so checkpointing
            // never allocates in the steady state.
            fault.checkpoint.step = target;
            fault.checkpoint.counters.clone_from(&self.counters);
            fault.checkpoint.phases = self.phases;
            fault.report.checkpoints += 1;
        }
        // Replay cursor: normally just `target`; after a restore it walks
        // back up from the checkpoint. Each replayed step re-runs clean
        // (its events are already consumed), so the loop always converges.
        let mut s = target;
        loop {
            match self.execute_step(x, y, s) {
                Ok(()) if s == target => break,
                Ok(()) => s += 1,
                Err(panicked) => {
                    let t_rec = Instant::now();
                    for &w in &panicked {
                        self.pool.respawn(w);
                    }
                    let fault = self
                        .fault
                        .as_deref_mut()
                        .expect("chaos step requires armed faults");
                    fault.report.respawned_workers += panicked.len() as u64;
                    fault.report.restores += 1;
                    fault.report.recovered.crash += fault.pending_crashes;
                    fault.pending_crashes = 0;
                    fault.report.replayed_steps += s - fault.checkpoint.step;
                    self.counters.clone_from(&fault.checkpoint.counters);
                    self.phases = fault.checkpoint.phases;
                    s = fault.checkpoint.step;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        let driver = self.pe.len() as u32;
                        let start = ns_since(t.epoch, t_rec);
                        let dur = secs_to_ns(t_rec.elapsed().as_secs_f64());
                        t.data.span(Span {
                            phase: PhaseId::Recover,
                            pe: driver,
                            step: s,
                            start_ns: start,
                            dur_ns: dur,
                        });
                        t.data.add_phase_wall(PhaseId::Recover, dur);
                        t.data.instant(TraceInstant {
                            name: "recover:restore",
                            pe: driver,
                            step: s,
                            at_ns: start,
                        });
                    }
                }
            }
        }
    }

    /// The step engine: one SMVP `y = Kx`, labelled `step`, through the
    /// assemble → compute → exchange → fold phases on either schedule,
    /// with the fault and telemetry hooks checked where the module docs
    /// say. Returns `Err(panicked workers)` only under
    /// [`RecoveryPolicy::Restart`] when an injected crash fired, before
    /// anything was posted; the caller restores and replays. Every other
    /// fault, and every crash under `Degrade`, heals in here, and the
    /// output is bitwise-equal to the fault-free product.
    fn execute_step(&mut self, x: &[Vec3], y: &mut [Vec3], step: u64) -> Result<(), Vec<usize>> {
        let threads = self.pool.threads();
        let owned = self.owned.clone();
        // Armed faults force the barrier schedule: a crash must be caught
        // before anything is posted. The boundary-first row order stays
        // baked into the matrices, so output and counters are unchanged.
        let boundary = self
            .boundary_rows
            .as_deref()
            .filter(|_| self.fault.is_none());
        let scratch = self
            .fault
            .as_deref_mut()
            .map(|f| SendPtr(f.scratch.as_mut_ptr()));
        let v = StepView {
            step,
            x,
            pe: &self.pe,
            inbound: &self.inbound,
            outbound: &self.outbound,
            link: &*self.link,
            x_local: SendPtr(self.x_local.as_mut_ptr()),
            partials: SendPtr(self.partials.as_mut_ptr()),
            exchanged: SendPtr(self.exchanged.as_mut_ptr()),
            pack: SendPtr(self.pack.as_mut_ptr()),
            stage: SendPtr(self.stage.as_mut_ptr()),
            clock: SendPtr(self.clock.as_mut_ptr()),
            fault: self
                .fault
                .as_deref()
                .zip(scratch)
                .map(|(f, scratch)| FaultHook {
                    plan: &f.plan,
                    fired: &f.fired,
                    scratch,
                }),
            msg_ns: self
                .telemetry
                .as_deref_mut()
                .map(|t| SendPtr(t.msg_ns.as_mut_ptr())),
        };
        let chunk = |w: usize| owned_chunk(&owned, threads, w);

        // --- Assemble: gather each PE's replicated local x. ---
        let t0 = Instant::now();
        self.pool.broadcast(&|w| {
            for q in chunk(w) {
                let t = Instant::now();
                // SAFETY: q is in worker w's chunk, so its slots are this
                // worker's alone while the broadcast runs.
                unsafe {
                    v.gather(q);
                    v.clock(q, |c| c.assemble = Lap::since(t));
                }
            }
        });
        let assemble = t0.elapsed().as_secs_f64();

        let mut degraded = 0u64;
        let walls = match boundary {
            None => {
                // --- Compute: local SMVP per PE, with crash and straggle
                // events live. ---
                let compute = |w: usize| {
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            if let Some(f) = &v.fault {
                                f.strike(step, q);
                            }
                            v.compute(q, 0..v.pe[q].stiffness.block_rows());
                            v.clock(q, |c| c.compute = Lap::since(t));
                        }
                    }
                };
                let t0 = Instant::now();
                if let Err(failure) = self.pool.try_broadcast(&compute) {
                    match self.fault.as_deref().map(|f| f.policy) {
                        Some(RecoveryPolicy::Restart) => {
                            self.tally_faults(step, 0);
                            return Err(failure.panicked);
                        }
                        Some(RecoveryPolicy::Degrade) => {
                            for &w in &failure.panicked {
                                // SAFETY: the batch has drained, so the
                                // driver owns every PE.
                                degraded += unsafe { v.degrade(chunk(w), || compute(w)) };
                            }
                        }
                        Some(RecoveryPolicy::FailFast) | None => failure.resume(),
                    }
                }
                let compute = t0.elapsed().as_secs_f64();

                // --- Exchange: each worker posts ALL its PEs' blocks
                // before fetching ANY, which keeps the schedule
                // deadlock-free however PEs are striped across workers and
                // shards. ---
                let t0 = Instant::now();
                self.pool.broadcast(&|w| {
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            v.post(q);
                            v.clock(q, |c| c.exchange = Lap::since(t));
                        }
                    }
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            let waited = v.fetch_apply(q);
                            v.clock(q, |c| {
                                c.exchange.secs += t.elapsed().as_secs_f64();
                                c.waited = waited;
                            });
                        }
                    }
                });
                Walls::Barrier {
                    compute,
                    exchange: t0.elapsed().as_secs_f64(),
                }
            }
            Some(nb) => {
                // --- Compute and exchange in ONE broadcast, no barrier
                // between the passes. ---
                let t0 = Instant::now();
                self.pool.broadcast(&|w| {
                    // Pass A — compute and post the boundary rows (every
                    // posted slot is below nb, checked at build).
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            v.compute(q, 0..nb[q]);
                            v.post(q);
                            v.clock(q, |c| c.post = Lap::since(t));
                        }
                    }
                    // Pass B — interior rows, overlapping the neighbors'
                    // posts.
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            v.compute(q, nb[q]..v.pe[q].stiffness.block_rows());
                            v.clock(q, |c| c.compute = Lap::since(t));
                        }
                    }
                    // Pass C — fetch and apply as the posts land.
                    for q in chunk(w) {
                        let t = Instant::now();
                        // SAFETY: q is in worker w's chunk.
                        unsafe {
                            let waited = v.fetch_apply(q);
                            v.clock(q, |c| {
                                c.exchange = Lap::since(t);
                                c.waited = waited;
                            });
                        }
                    }
                });
                Walls::Overlap {
                    merged: t0.elapsed().as_secs_f64(),
                }
            }
        };
        self.tally_faults(step, degraded);
        self.tally(assemble, walls);
        self.link.barrier(step).expect("transport barrier");

        // --- Fold: replicated results → global vector, on the driver. ---
        let t0 = Instant::now();
        self.written.fill(false);
        for q in owned {
            let (s, part) = (&self.pe[q], &self.exchanged[q]);
            for (l, &g) in s.gather.iter().enumerate() {
                if self.written[g] {
                    debug_assert!(
                        (y[g] - part[l]).norm() <= 1e-9 * (1.0 + y[g].norm()),
                        "replicas disagree at node {g}"
                    );
                } else {
                    y[g] = part[l];
                    self.written[g] = true;
                }
            }
        }
        debug_assert!(
            self.owned.len() < self.pe.len() || self.written.iter().all(|&w| w),
            "every node resides somewhere"
        );
        let fold = Lap::since(t0);
        self.phases.fold += fold.secs;

        if let Some(mut t) = self.telemetry.take() {
            self.record_step(&mut t, step, assemble, walls, fold);
            self.telemetry = Some(t);
        }
        Ok(())
    }

    /// The counter tally of one completed step: per-PE phase seconds and
    /// barrier idle time, the flops, words and blocks that must match
    /// `CommAnalysis` exactly, and the report's phase walls.
    fn tally(&mut self, assemble: f64, walls: Walls) {
        self.phases.assemble += assemble;
        let mut busiest = 0.0f64;
        for q in self.owned.clone() {
            let k = self.clock[q];
            let c = &mut self.counters[q];
            c.t_assemble += k.assemble.secs;
            c.t_barrier += (assemble - k.assemble.secs).max(0.0);
            c.t_exchange += k.exchange.secs;
            match walls {
                Walls::Barrier { compute, exchange } => {
                    c.t_compute += k.compute.secs;
                    c.t_barrier +=
                        (compute - k.compute.secs).max(0.0) + (exchange - k.exchange.secs).max(0.0);
                }
                Walls::Overlap { merged } => {
                    let busy = k.post.secs + k.compute.secs;
                    c.t_compute += busy;
                    c.t_barrier += (merged - (busy + k.exchange.secs)).max(0.0);
                    busiest = busiest.max(busy);
                }
            }
            // 18 flops per traversed 3×3 block: the paper's F_i = 2·m_i
            // counted from the matrix this step just multiplied.
            c.flops += self.pe[q].stiffness.smvp_flops();
            for msg in &self.inbound[q] {
                let words = 3 * msg.pairs.len() as u64;
                // Each inbound message is matched by an equal outbound one
                // (the exchange is symmetric), so count both directions.
                c.words_received += words;
                c.words_sent += words;
                c.blocks_received += 1;
                c.blocks_sent += 1;
            }
        }
        match walls {
            Walls::Barrier { compute, exchange } => {
                self.phases.compute += compute;
                self.phases.exchange += exchange;
            }
            Walls::Overlap { merged } => {
                // The slowest PE's SMVP bills to compute; whatever wall
                // remains past it is exchange the interior work failed to
                // hide.
                self.phases.compute += busiest;
                self.phases.exchange += (merged - busiest).max(0.0);
            }
        }
    }

    /// Folds one attempt's per-PE chaos scratch into the fault ledger and,
    /// when traced, into fault instants, the retry histogram, and Stage and
    /// Verify spans nested at the head of each PE's exchange span. Runs
    /// after every attempt, completed or crashed; a no-op while disarmed.
    fn tally_faults(&mut self, step: u64, degraded: u64) {
        let Some(fault) = self.fault.as_deref_mut() else {
            return;
        };
        let mut telem = self.telemetry.as_deref_mut();
        let r = &mut fault.report;
        r.degraded_shards += degraded;
        let mut crashes = 0u64;
        for (q, slot) in fault.scratch.iter_mut().enumerate() {
            let sc = std::mem::take(slot);
            if sc.straggles > 0 {
                r.injected.straggle += sc.straggles;
                // Detection is observational: the PE's compute lap must
                // actually show the injected delay. The barrier absorbs
                // the delay; nothing else to heal.
                if self.clock[q].compute.secs >= sc.straggle_delay_s * 0.999 {
                    r.detected.straggle += sc.straggles;
                    r.recovered.straggle += sc.straggles;
                }
            }
            crashes += sc.crashes;
            // Every detected drop or corruption was healed by its retry or
            // re-fetch: a fetch returns only once its block verified.
            r.injected.drop += sc.drops;
            r.detected.drop += sc.drops_detected;
            r.recovered.drop += sc.drops_detected;
            r.retries += sc.retries;
            r.injected.corrupt += sc.corrupts;
            r.detected.corrupt += sc.corrupts_detected;
            r.recovered.corrupt += sc.corrupts_detected;
            r.refetches += sc.refetches;
            let Some(t) = telem.as_deref_mut() else {
                continue;
            };
            let exchange_ns = ns_since(t.epoch, self.clock[q].exchange.start);
            for (phase, start_ns, dur_ns) in [
                (PhaseId::Stage, exchange_ns, sc.stage_ns),
                (PhaseId::Verify, exchange_ns + sc.stage_ns, sc.verify_ns),
            ] {
                if dur_ns > 0 {
                    t.data.add_phase_wall(phase, dur_ns);
                    t.data.span(Span {
                        phase,
                        pe: q as u32,
                        step,
                        start_ns,
                        dur_ns,
                    });
                }
            }
            // Only the total backoff survives the hot path; record the
            // mean once per retry.
            if let Some(mean_ns) = sc.backoff_ns.checked_div(sc.retries) {
                t.data.retry_ns.record_n(mean_ns, sc.retries);
            }
            let at_ns = ns_since(t.epoch, Instant::now());
            for (name, n) in [
                ("fault:straggle", sc.straggles),
                ("fault:crash", sc.crashes),
                ("fault:drop", sc.drops),
                ("fault:corrupt", sc.corrupts),
            ] {
                for _ in 0..n {
                    t.data.instant(TraceInstant {
                        name,
                        pe: q as u32,
                        step,
                        at_ns,
                    });
                }
            }
        }
        if crashes > 0 {
            r.injected.crash += crashes;
            // Detection = the supervisor caught the panic.
            r.detected.crash += crashes;
            match fault.policy {
                RecoveryPolicy::Degrade => r.recovered.crash += crashes,
                // Credited as recovered once the restart actually restores.
                RecoveryPolicy::Restart => fault.pending_crashes += crashes,
                RecoveryPolicy::FailFast => {}
            }
        }
    }

    /// The telemetry block of one completed step: each owned PE's work
    /// spans from its laps, a Barrier span wherever it idled before a
    /// broadcast ended, the transport Wait nested at the tail of its
    /// exchange span, the compute and block histograms, node attribution,
    /// the drift feed, and the driver's Fold span.
    fn record_step(
        &mut self,
        t: &mut TelemetryState,
        step: u64,
        assemble: f64,
        walls: Walls,
        fold: Lap,
    ) {
        let driver = self.pe.len();
        t.data
            .add_phase_wall(PhaseId::Assemble, secs_to_ns(assemble));
        // Overlap phase walls: the slowest PE's pass A, pass B, and A + B.
        let (mut post_max, mut interior_max, mut busiest) = (0.0f64, 0.0f64, 0.0f64);
        for q in self.owned.clone() {
            let k = self.clock[q];
            let end = t.span(PhaseId::Assemble, q, step, k.assemble);
            t.idle(q, step, end, assemble - k.assemble.secs);
            // This PE's compute seconds, and its idle tail after the
            // exchange span before the broadcast holding it ended.
            let (busy, exchange_idle) = match walls {
                Walls::Barrier { compute, exchange } => {
                    let end = t.span(PhaseId::Compute, q, step, k.compute);
                    t.idle(q, step, end, compute - k.compute.secs);
                    (k.compute.secs, exchange - k.exchange.secs)
                }
                Walls::Overlap { merged } => {
                    let busy = k.post.secs + k.compute.secs;
                    t.span(PhaseId::Post, q, step, k.post);
                    t.span(PhaseId::Compute, q, step, k.compute);
                    post_max = post_max.max(k.post.secs);
                    interior_max = interior_max.max(k.compute.secs);
                    busiest = busiest.max(busy);
                    (busy, merged - (busy + k.exchange.secs))
                }
            };
            let exchange_end = t.span(PhaseId::Exchange, q, step, k.exchange);
            t.idle(q, step, exchange_end, exchange_idle);
            t.data.compute_ns.record(secs_to_ns(busy));
            // Transport wait, nested at the tail of the exchange span: the
            // profiler splits the exchange into apply (this PE's work) and
            // wait (blocked in `acquire` on the sender's progress).
            let waited = k.waited.clamp(0.0, k.exchange.secs);
            if waited > 0.0 {
                let wait_ns = secs_to_ns(waited);
                t.data.add_phase_wall(PhaseId::Wait, wait_ns);
                t.data.span(Span {
                    phase: PhaseId::Wait,
                    pe: q as u32,
                    step,
                    start_ns: exchange_end - wait_ns,
                    dur_ns: wait_ns,
                });
            }
            for (mi, msg) in self.inbound[q].iter().enumerate() {
                t.data.block_latency_ns.record(t.msg_ns[q][mi]);
                t.data.block_words.record(3 * msg.pairs.len() as u64);
            }
            // The drift feed is exchange time minus transport wait:
            // blocking in `acquire` tracks the *sender's* progress, not
            // this PE's load, so leaving it in would flag healthy runs.
            self.drift_feed[q] = (k.exchange.secs - k.waited).max(0.0);
        }
        match walls {
            Walls::Barrier { compute, exchange } => {
                t.data.add_phase_wall(PhaseId::Compute, secs_to_ns(compute));
                t.data
                    .add_phase_wall(PhaseId::Exchange, secs_to_ns(exchange));
            }
            Walls::Overlap { merged } => {
                t.data.add_phase_wall(PhaseId::Post, secs_to_ns(post_max));
                t.data
                    .add_phase_wall(PhaseId::Compute, secs_to_ns(interior_max));
                t.data
                    .add_phase_wall(PhaseId::Exchange, secs_to_ns((merged - busiest).max(0.0)));
            }
        }
        self.record_node_exchange(t, step);
        let flagged = t
            .data
            .drift
            .as_mut()
            .and_then(|m| m.observe(step, &self.drift_feed[self.owned.clone()]));
        if flagged.is_some() {
            t.data.instant(TraceInstant {
                name: "drift:flagged",
                pe: driver as u32,
                step,
                at_ns: ns_since(t.epoch, Instant::now()),
            });
        }
        t.span(PhaseId::Fold, driver, step, fold);
        t.data.add_phase_wall(PhaseId::Fold, secs_to_ns(fold.secs));
    }

    /// Executes one bulk-synchronous SMVP `y = Kx`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the mesh node count.
    pub fn step(&mut self, x: &[Vec3]) -> Vec<Vec3> {
        let mut y = vec![Vec3::ZERO; self.global_nodes];
        self.step_into(x, &mut y);
        y
    }

    /// Runs `steps` SMVPs of the same input (the paper's repeated time-loop
    /// product) and returns the final result. The output buffer is
    /// allocated once and reused by every step.
    pub fn run(&mut self, x: &[Vec3], steps: u64) -> Vec<Vec3> {
        let mut y = vec![Vec3::ZERO; self.global_nodes];
        for _ in 0..steps {
            self.step_into(x, &mut y);
        }
        y
    }

    /// The accumulated measurement report.
    pub fn report(&self) -> ExecutionReport {
        ExecutionReport {
            threads: self.pool.threads(),
            steps: self.steps,
            pe: self.counters.clone(),
            phases: self.phases,
            fault: self.fault.as_ref().map(|f| f.report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AppConfig, QuakeApp};
    use quake_fem::assembly::UniformMaterial;
    use quake_mesh::ground::Material;
    use quake_mesh::mesh::TetMesh;
    use quake_partition::comm::CommAnalysis;
    use quake_partition::geometric::{Partitioner, RecursiveBisection};
    use quake_partition::partition::Partition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(parts: usize) -> (TetMesh, Partition, DistributedSystem) {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, parts)
            .unwrap();
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let sys = DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat)).unwrap();
        (app.mesh, partition, sys)
    }

    fn random_x(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn assert_matches_serial(serial: &[Vec3], pooled: &[Vec3], what: &str) {
        let scale: f64 = serial.iter().map(|v| v.norm()).fold(0.0, f64::max);
        for (i, (a, b)) in serial.iter().zip(pooled).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-12 * (1.0 + scale),
                "node {i} ({what}): serial {a} vs pooled {b}"
            );
        }
    }

    #[test]
    fn executor_matches_serial_distributed_smvp() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 11);
        let serial = sys.smvp(&x);
        for threads in [1, 4] {
            let mut exec = BspExecutor::new(&sys, threads);
            let pooled = exec.step(&x);
            assert_matches_serial(&serial, &pooled, &format!("{threads} threads"));
        }
    }

    #[test]
    fn rcm_executor_matches_serial_and_counters() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 13);
        let serial = sys.smvp(&x);
        let mut exec = BspExecutor::with_rcm(&sys, 3);
        assert!(exec.rcm_enabled());
        let pooled = exec.step(&x);
        assert_matches_serial(&serial, &pooled, "rcm");
        // Renumbering is PE-local, so the characterization match stays
        // exact.
        let report = exec.report();
        assert_eq!(report.f_max(), analysis.f_max(), "F mismatch under RCM");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max mismatch under RCM");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max mismatch under RCM");
    }

    #[test]
    fn steady_state_steps_do_not_reallocate() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 17);
        let plain = BspExecutor::new(&sys, 2);
        let mut traced = BspExecutor::new(&sys, 2);
        traced.enable_telemetry(TelemetryConfig::default());
        // checkpoint_every = 1 snapshots the counters on every step.
        let mut chaos = BspExecutor::new(&sys, 2);
        chaos.enable_faults(FaultPlan::none(), RecoveryPolicy::Restart, 1);
        for (what, mut exec) in [("plain", plain), ("traced", traced), ("chaos", chaos)] {
            let mut y = vec![Vec3::ZERO; mesh.node_count()];
            // Warmup step, then the buffers must be pinned. Checked after
            // every step: a buffer that alternates between two
            // allocations would match again after an even count.
            exec.step_into(&x, &mut y);
            let fp = exec.buffer_fingerprint();
            let y_fp = (y.as_ptr() as usize, y.capacity());
            for _ in 0..100 {
                exec.step_into(&x, &mut y);
                assert_eq!(
                    exec.buffer_fingerprint(),
                    fp,
                    "{what}: executor buffers moved or regrew during steady-state steps"
                );
            }
            assert_eq!(
                (y.as_ptr() as usize, y.capacity()),
                y_fp,
                "{what}: output buffer moved during steady-state steps"
            );
            assert_eq!(exec.report().steps, 101);
        }
    }

    #[test]
    fn overlap_executor_matches_serial_distributed_smvp() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 19);
        let serial = sys.smvp(&x);
        for threads in [1, 4] {
            let mut exec = BspExecutor::with_options(&sys, threads, false, true);
            assert!(exec.overlap_enabled());
            let pooled = exec.step(&x);
            assert_matches_serial(&serial, &pooled, &format!("overlap, {threads} threads"));
        }
    }

    #[test]
    fn simd_kernel_is_bitwise_equal_across_schedules_with_exact_counters() {
        let (mesh, _, sys) = setup(5);
        let x = random_x(mesh.node_count(), 29);
        for (threads, use_rcm, use_overlap) in [
            (1, false, false),
            (4, false, false),
            (3, true, false),
            (2, false, true),
            (4, true, true),
        ] {
            let what = format!("threads {threads}, rcm {use_rcm}, overlap {use_overlap}");
            let mut scalar = BspExecutor::with_options(&sys, threads, use_rcm, use_overlap);
            assert_eq!(scalar.kernel(), KernelKind::Micro);
            let mut simd = BspExecutor::with_options(&sys, threads, use_rcm, use_overlap);
            simd.set_kernel(KernelKind::MicroSimd);
            assert_eq!(simd.kernel(), KernelKind::MicroSimd);
            let a = scalar.run(&x, 3);
            let b = simd.run(&x, 3);
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                assert_eq!(u.x.to_bits(), v.x.to_bits(), "node {i} .x ({what})");
                assert_eq!(u.y.to_bits(), v.y.to_bits(), "node {i} .y ({what})");
                assert_eq!(u.z.to_bits(), v.z.to_bits(), "node {i} .z ({what})");
            }
            // The kernels traverse the same matrices, so every counter is
            // identical — not merely close.
            let (ra, rb) = (scalar.report(), simd.report());
            for (ca, cb) in ra.pe.iter().zip(&rb.pe) {
                assert_eq!(ca.flops, cb.flops, "flops ({what})");
                assert_eq!(ca.words_sent, cb.words_sent, "words_sent ({what})");
                assert_eq!(
                    ca.words_received, cb.words_received,
                    "words_received ({what})"
                );
                assert_eq!(ca.blocks_sent, cb.blocks_sent, "blocks_sent ({what})");
                assert_eq!(
                    ca.blocks_received, cb.blocks_received,
                    "blocks_received ({what})"
                );
            }
        }
    }

    #[test]
    fn kernel_round_trips_its_cli_spelling() {
        for k in [KernelKind::Micro, KernelKind::MicroSimd] {
            assert_eq!(k.to_string().parse::<KernelKind>().unwrap(), k);
        }
        assert!("turbo".parse::<KernelKind>().is_err());
    }

    #[test]
    fn switching_kernels_back_drops_the_tile_twin() {
        let (mesh, _, sys) = setup(2);
        let x = random_x(mesh.node_count(), 31);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.set_kernel(KernelKind::MicroSimd);
        let a = exec.step(&x);
        exec.set_kernel(KernelKind::Micro);
        assert!(exec.pe.iter().all(|s| s.tiled.is_none()));
        let b = exec.step(&x);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.x.to_bits(), v.x.to_bits());
        }
    }

    #[test]
    fn overlap_single_pe_is_all_interior_and_still_correct() {
        let (mesh, _, sys) = setup(1);
        let x = random_x(mesh.node_count(), 23);
        let serial = sys.smvp(&x);
        let mut exec = BspExecutor::with_options(&sys, 2, false, true);
        assert_eq!(
            exec.overlap_boundary_rows(),
            Some(&[0usize][..]),
            "a lone PE exchanges nothing, so nothing is boundary"
        );
        let pooled = exec.step(&x);
        assert_matches_serial(&serial, &pooled, "overlap, single PE");
    }

    #[test]
    fn overlap_steady_state_steps_do_not_reallocate() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 29);
        let mut exec = BspExecutor::with_options(&sys, 2, false, true);
        let mut y = vec![Vec3::ZERO; mesh.node_count()];
        exec.step_into(&x, &mut y);
        let fp = exec.buffer_fingerprint();
        for _ in 0..100 {
            exec.step_into(&x, &mut y);
        }
        assert_eq!(
            exec.buffer_fingerprint(),
            fp,
            "overlap buffers moved or regrew during steady-state steps"
        );
        assert_eq!(exec.report().steps, 101);
    }

    #[test]
    fn measured_counters_match_characterization_exactly() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 3);
        let mut exec = BspExecutor::new(&sys, 4);
        exec.run(&x, 3);
        let report = exec.report();
        assert_eq!(report.steps, 3);
        assert_eq!(report.f_max(), analysis.f_max(), "F mismatch");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max mismatch");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max mismatch");
        for (q, (c, predicted)) in report.pe.iter().zip(analysis.per_pe()).enumerate() {
            assert_eq!(c.flops / 3, predicted.flops, "PE {q} flops");
            assert_eq!(c.words() / 3, predicted.words, "PE {q} words");
            assert_eq!(c.blocks() / 3, predicted.blocks, "PE {q} blocks");
            assert_eq!(c.words_sent, c.words_received, "exchange is symmetric");
        }
    }

    #[test]
    fn phase_times_accumulate() {
        let (mesh, _, sys) = setup(2);
        let x = random_x(mesh.node_count(), 5);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.run(&x, 2);
        let report = exec.report();
        assert!(report.phases.compute > 0.0);
        assert!(report.phases.exchange > 0.0);
        assert!(report.phases.total() > 0.0);
        assert!(report.efficiency() > 0.0 && report.efficiency() <= 1.0);
        for c in &report.pe {
            assert!(c.t_compute > 0.0);
            assert!(c.t_barrier >= 0.0);
        }
    }

    #[test]
    fn single_pe_has_no_communication() {
        let (mesh, _, _) = setup(2);
        let partition = RecursiveBisection::inertial().partition(&mesh, 1).unwrap();
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let sys = DistributedSystem::build(&mesh, &partition, &UniformMaterial(mat)).unwrap();
        let x = random_x(mesh.node_count(), 7);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.step(&x);
        let report = exec.report();
        assert_eq!(report.c_max(), 0);
        assert_eq!(report.b_max(), 0);
        assert_eq!(report.efficiency(), report.efficiency().clamp(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let (_, _, sys) = setup(2);
        let mut exec = BspExecutor::new(&sys, 2);
        let _ = exec.step(&[Vec3::ZERO]);
    }

    // --- Chaos layer ---

    use quake_core::fault::{FaultEvent, FaultRates};

    fn assert_bitwise_equal(clean: &[Vec3], chaos: &[Vec3], what: &str) {
        assert_eq!(clean.len(), chaos.len());
        for (i, (a, b)) in clean.iter().zip(chaos).enumerate() {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits(), a.z.to_bits()),
                (b.x.to_bits(), b.y.to_bits(), b.z.to_bits()),
                "node {i} ({what}): recovered run diverged from fault-free run"
            );
        }
    }

    /// A hand-built plan exercising all four fault kinds, including one PE
    /// crash.
    fn all_kinds_plan() -> FaultPlan {
        FaultPlan::from_events(vec![
            FaultEvent {
                step: 0,
                pe: 0,
                kind: FaultKind::Straggle { delay_us: 200 },
            },
            FaultEvent {
                step: 1,
                pe: 1,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                step: 1,
                pe: 2,
                kind: FaultKind::Corrupt {
                    salt: 0xDEAD_BEEF_CAFE,
                },
            },
            FaultEvent {
                step: 3,
                pe: 3,
                kind: FaultKind::Corrupt {
                    salt: 0x1234_5678_9ABC,
                },
            },
            FaultEvent {
                step: 2,
                pe: 3,
                kind: FaultKind::Crash,
            },
        ])
    }

    #[test]
    fn empty_plan_chaos_path_is_bitwise_invariant() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 23);
        let steps = 3;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut armed = BspExecutor::new(&sys, 4);
        armed.enable_faults(FaultPlan::none(), RecoveryPolicy::Restart, 4);
        let mut y_armed = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            armed.step_into(&x, &mut y_armed);
        }

        assert_bitwise_equal(&y_clean, &y_armed, "empty plan");
        let report = armed.report();
        assert_eq!(report.f_max(), analysis.f_max());
        assert_eq!(report.c_max(), analysis.c_max());
        assert_eq!(report.b_max(), analysis.b_max());
        let fr = report.fault.expect("armed executor reports faults");
        assert!(fr.balanced());
        assert_eq!(fr.injected.total(), 0);
        assert_eq!(fr.retries + fr.refetches + fr.restores, 0);
        assert_eq!(fr.checkpoints, 1, "one checkpoint at step 0");
    }

    #[test]
    fn chaos_run_recovers_bitwise_equal_with_restart() {
        let (mesh, partition, sys) = setup(6);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 29);
        let steps = 5;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(all_kinds_plan(), RecoveryPolicy::Restart, 2);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "all kinds, restart");
        let report = chaos.report();
        assert_eq!(report.steps, steps as u64);
        // Even with a crash + restore in the middle, the measured
        // characterization stays exact.
        assert_eq!(report.f_max(), analysis.f_max(), "F under chaos");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max under chaos");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max under chaos");
        let fr = report.fault.expect("fault report present");
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.injected.straggle, 1);
        assert_eq!(fr.injected.drop, 1);
        assert_eq!(fr.injected.corrupt, 2);
        assert_eq!(fr.injected.crash, 1);
        assert!(fr.retries >= 1, "drop recovery retried");
        assert!(fr.refetches >= 2, "corruption recovery re-fetched");
        assert_eq!(fr.restores, 1, "one checkpoint restore");
        assert_eq!(fr.respawned_workers, 1, "one worker replaced");
        assert_eq!(fr.replayed_steps, 0, "crash at a checkpoint step");
        assert_eq!(fr.degraded_shards, 0);
    }

    #[test]
    fn crash_mid_interval_replays_lost_steps() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 31);
        let steps = 4;
        let plan = FaultPlan::from_events(vec![FaultEvent {
            step: 2,
            pe: 1,
            kind: FaultKind::Crash,
        }]);

        let mut clean = BspExecutor::new(&sys, 2);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 2);
        // Checkpoint interval 3: the crash at step 2 rolls back to the
        // step-0 snapshot and replays steps 0 and 1.
        chaos.enable_faults(plan, RecoveryPolicy::Restart, 3);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "mid-interval crash");
        let report = chaos.report();
        assert_eq!(report.f_max(), analysis.f_max());
        assert_eq!(report.c_max(), analysis.c_max());
        let fr = report.fault.unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.replayed_steps, 2, "steps 0 and 1 replayed");
        assert_eq!(fr.restores, 1);
        // Per-PE counters must not double-count the replays.
        for (q, (c, predicted)) in report.pe.iter().zip(analysis.per_pe()).enumerate() {
            assert_eq!(c.flops / steps as u64, predicted.flops, "PE {q} flops");
            assert_eq!(c.words() / steps as u64, predicted.words, "PE {q} words");
        }
    }

    #[test]
    fn degrade_policy_heals_crashes_inline() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 37);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            step: 1,
            pe: 2,
            kind: FaultKind::Crash,
        }]);

        let mut clean = BspExecutor::new(&sys, 2);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..3 {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 2);
        chaos.enable_faults(plan, RecoveryPolicy::Degrade, 4);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..3 {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "degrade");
        let fr = chaos.fault_report().unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.injected.crash, 1);
        assert!(fr.degraded_shards >= 1, "shard re-executed inline");
        assert_eq!(fr.restores, 0, "degrade never restores");
        assert_eq!(fr.respawned_workers, 0, "degrade never respawns");
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn failfast_policy_propagates_the_crash() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 41);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            step: 0,
            pe: 0,
            kind: FaultKind::Crash,
        }]);
        let mut chaos = BspExecutor::new(&sys, 2);
        chaos.enable_faults(plan, RecoveryPolicy::FailFast, 4);
        let _ = chaos.step(&x);
    }

    #[test]
    fn checkpoint_restart_round_trip_under_rcm() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 43);
        let steps = 4;
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                step: 1,
                pe: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                step: 2,
                pe: 2,
                kind: FaultKind::Crash,
            },
        ]);

        let mut clean = BspExecutor::with_rcm(&sys, 3);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::with_rcm(&sys, 3);
        chaos.enable_faults(plan, RecoveryPolicy::Restart, 2);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "rcm + restart");
        let report = chaos.report();
        assert_eq!(report.f_max(), analysis.f_max(), "F under RCM chaos");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max under RCM chaos");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max under RCM chaos");
        let fr = report.fault.unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.restores, 1);
    }

    #[test]
    fn generated_plan_runs_to_completion_balanced() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 47);
        let steps = 8;
        let plan = FaultPlan::generate(99, steps, 6, &FaultRates::uniform(0.3));
        assert!(!plan.is_empty(), "rates high enough to schedule events");

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(plan, RecoveryPolicy::Restart, 2);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "generated plan");
        let fr = chaos.fault_report().unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert!(fr.injected.total() > 0, "something actually fired");
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_checkpoint_interval_is_rejected() {
        let (_, _, sys) = setup(2);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.enable_faults(FaultPlan::none(), RecoveryPolicy::Restart, 0);
    }

    // --- Telemetry layer ---

    #[test]
    fn traced_run_is_bitwise_equal_and_records_every_phase() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 53);
        let steps = 3;

        let mut plain = BspExecutor::new(&sys, 3);
        let mut y_plain = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            plain.step_into(&x, &mut y_plain);
        }
        assert!(plain.telemetry().is_none());

        let mut traced = BspExecutor::new(&sys, 3);
        // Drift floor raised past CI scheduler noise: a preempted worker
        // mid-exchange is indistinguishable from real drift, and this test
        // asserts wiring, not the monitor's sensitivity (unit-tested in
        // quake-core over synthetic times).
        traced.enable_telemetry(TelemetryConfig {
            drift: Some(quake_core::telemetry::DriftConfig {
                min_time_s: 1.0,
                ..Default::default()
            }),
            ..TelemetryConfig::default()
        });
        let mut y_traced = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            traced.step_into(&x, &mut y_traced);
        }

        assert_bitwise_equal(&y_plain, &y_traced, "traced vs untraced");
        let t = traced.telemetry().expect("telemetry armed");
        assert_eq!(t.steps, steps as u64);
        // Clean-path phases all have spans and wall time.
        for phase in [
            PhaseId::Assemble,
            PhaseId::Compute,
            PhaseId::Exchange,
            PhaseId::Fold,
        ] {
            assert!(
                t.spans.iter().any(|s| s.phase == phase),
                "no {} span recorded",
                phase.name()
            );
            assert!(t.phase_wall_ns(phase) > 0, "no {} wall", phase.name());
        }
        // 4 PEs × 3 steps of compute samples; every inbound block sampled.
        assert_eq!(t.compute_ns.count(), 4 * steps as u64);
        assert_eq!(t.block_latency_ns.count(), t.block_words.count());
        assert!(t.block_latency_ns.count() > 0, "sf10/4 communicates");
        let summary = t.block_latency_ns.summary();
        assert!(summary.p50 <= summary.p90 && summary.p99 <= summary.max);
        // A clean run never trips the drift monitor.
        let drift = t.drift.as_ref().expect("drift armed by default");
        assert_eq!(drift.steps_observed(), steps as u64);
        assert_eq!(
            drift.flagged_total(),
            0,
            "clean run flagged drift (worst: {:?})",
            drift.worst()
        );
        assert!(t.instants().is_empty(), "clean run has no fault instants");
    }

    #[test]
    fn telemetry_drift_loads_match_counter_convention() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 59);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.enable_telemetry(TelemetryConfig::default());
        exec.step(&x);
        let report = exec.report();
        // The loads armed into the drift monitor use the sent+received
        // convention, so observed per-step counters must agree with them
        // (and with the characterization).
        assert_eq!(report.c_max(), analysis.c_max());
        let t = exec.telemetry().unwrap();
        let words_recorded: u64 = t.block_words.sum() as u64;
        let words_counted: u64 = report.pe.iter().map(|c| c.words_received).sum();
        assert_eq!(words_recorded, words_counted, "histogram covers all blocks");
    }

    #[test]
    fn chaos_run_with_telemetry_records_faults_and_recovery() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 61);
        let steps = 5;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(all_kinds_plan(), RecoveryPolicy::Restart, 2);
        chaos.enable_telemetry(TelemetryConfig::default());
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "chaos + telemetry");
        let t = chaos.telemetry().expect("telemetry armed");
        assert_eq!(t.steps, steps as u64);
        // The chaos path stages and verifies every block, restores once, and
        // every injected fault leaves an instant in the trace.
        for phase in [PhaseId::Stage, PhaseId::Verify, PhaseId::Recover] {
            assert!(
                t.spans.iter().any(|s| s.phase == phase),
                "no {} span recorded",
                phase.name()
            );
        }
        let names: Vec<&str> = t.instants().iter().map(|i| i.name).collect();
        for expected in [
            "fault:straggle",
            "fault:drop",
            "fault:corrupt",
            "fault:crash",
            "recover:restore",
        ] {
            assert!(names.contains(&expected), "missing instant {expected}");
        }
        assert!(t.retry_ns.count() >= 1, "drop backoff was recorded");
        assert!(t.block_latency_ns.count() > 0);
    }

    #[test]
    fn telemetry_span_ring_respects_configured_capacity() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 67);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.enable_telemetry(TelemetryConfig {
            span_capacity: 8,
            instant_capacity: 4,
            drift: None,
        });
        let mut y = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..5 {
            exec.step_into(&x, &mut y);
        }
        let t = exec.telemetry().unwrap();
        assert_eq!(t.spans.capacity(), 8);
        assert_eq!(t.spans.len(), 8);
        assert!(t.spans.dropped() > 0, "ring wrapped");
        assert!(t.drift.is_none());
    }
}
