//! `pdbench` — the repository benchmark.
//!
//! Three workloads, each a fixed seeded op sequence driven by one
//! single-threaded closed-loop caller (protected calls are synchronous,
//! so exactly one op is outstanding):
//!
//! * [`call_stream`] — hot protected calls into code loaded once;
//! * [`ext_churn`] — the kernel-extension load/invoke/unload lifecycle;
//! * [`checkpoint_cycle`] — serve, checkpoint and restore a fleet replica.
//!
//! A run is a number of *passes*. Each pass cold-boots its own world from
//! a seed derived from the run seed and the pass index, builds every
//! input before its timed phase, then times a fixed number of ops and
//! checks each op's outcome against a host-side reference. The number of
//! passes depends only on the requested seconds ([`Workload::passes`]),
//! never on how fast the program runs, so op counts, simulated cycles and
//! memory use are the same for every build.
//!
//! Two clocks: metrics in `guest_cycles` or `B` are simulated and
//! deterministic; every other metric is host time and carries noise.

pub mod call_stream;
pub mod checkpoint_cycle;
pub mod ext_churn;
pub mod hist;
pub mod report;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use minikernel::Kernel;
use netfilter::packet::offsets;
use netfilter::{Filter, Term, Test, Width};
use palladium::Session;
use seedrng::SeedRng;

pub use hist::LatencyHist;
pub use report::{Metric, Report};
pub use trace::Tracer;

/// The seed held out for later performance claims: tune on other seeds,
/// then confirm a claimed gain on this one.
pub const HELD_OUT_SEED: u64 = 20_260_917;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot protected calls ([`call_stream`]).
    CallStream,
    /// Extension load/unload churn ([`ext_churn`]).
    ExtChurn,
    /// Serve + checkpoint + restore cycles ([`checkpoint_cycle`]).
    CheckpointCycle,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CallStream,
        Workload::ExtChurn,
        Workload::CheckpointCycle,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CallStream => "call_stream",
            Workload::ExtChurn => "ext_churn",
            Workload::CheckpointCycle => "checkpoint_cycle",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in one pass.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Workload::CallStream => call_stream::OPS,
            Workload::ExtChurn => ext_churn::OPS,
            Workload::CheckpointCycle => checkpoint_cycle::OPS,
        }
    }

    /// Passes in a run of `seconds`: the seconds divided by the pass's
    /// nominal length on the reference machine, at least two. A constant,
    /// so a faster program runs the same ops in less time.
    pub fn passes(self, seconds: u32) -> usize {
        let nominal_pass_s = match self {
            Workload::CallStream => call_stream::NOMINAL_PASS_S,
            Workload::ExtChurn => ext_churn::NOMINAL_PASS_S,
            Workload::CheckpointCycle => checkpoint_cycle::NOMINAL_PASS_S,
        };
        ((f64::from(seconds) / nominal_pass_s).round() as usize).max(2)
    }

    /// Runs one pass, recording spans into `tr`.
    pub fn pass(self, a: &PassArgs, tr: &mut Tracer) -> Pass {
        match self {
            Workload::CallStream => call_stream::pass(a, tr),
            Workload::ExtChurn => ext_churn::pass(a, tr),
            Workload::CheckpointCycle => checkpoint_cycle::pass(a, tr),
        }
    }
}

/// What one pass does.
#[derive(Debug, Clone, Copy)]
pub struct PassArgs {
    /// Seeds the pass's world and inputs.
    pub seed: u64,
    /// Cold set-ups to time; the last world built is used.
    pub setups: usize,
    /// Op id of the pass's first op (spans carry op ids).
    pub op_base: u64,
    /// World checkpoints to time after the timed phase, in workloads
    /// whose op does not checkpoint.
    pub image_probes: usize,
}

impl PassArgs {
    /// Pass `index` of a run seeded with `seed`: its seed is
    /// `SeedRng::stream(seed, index)`'s first draw.
    pub fn nth(w: Workload, seed: u64, index: usize) -> PassArgs {
        PassArgs {
            seed: SeedRng::stream(seed, index as u64).next_u64(),
            setups: 1,
            op_base: (index * w.ops_per_pass()) as u64,
            image_probes: 0,
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of each cold set-up of the pass's world.
    pub setup_s: Vec<f64>,
    /// Host nanoseconds of each op of the timed phase; the run folds
    /// them into its [`LatencyHist`] and keeps only the count.
    pub op_ns: Vec<u64>,
    /// Ops of the timed phase.
    pub ops: u64,
    /// Host nanoseconds of the whole timed phase.
    pub timed_ns: u64,
    /// Ops whose outcome differed from the reference.
    pub failed: u64,
    /// Pass-level checks that failed (twin mismatch, leak audit, image
    /// round trip), one line each.
    pub check_failures: Vec<String>,
    /// Guest counters accumulated over the ops.
    pub counters: Counters,
    /// Host nanoseconds of each world checkpoint.
    pub save_ns: Vec<u64>,
    /// Host nanoseconds of each world restore.
    pub restore_ns: Vec<u64>,
    /// Size of the world's checkpoint image.
    pub image_bytes: u64,
    /// VmHWM in KiB right after the timed phase, before image probes.
    pub hwm_kb: u64,
    /// World checkpoints probed after the timed phase.
    pub image_probes: usize,
    /// Workload-specific per-layer scalars (counts and totals).
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload-specific per-layer samples (probe timings), medianed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Pass {
    /// Ops completed per host second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.timed_ns as f64 / 1e9)
    }

    /// [`ops_per_s`](Self::ops_per_s) without the time of calls made
    /// only when tracing (the tracing overhead is the spans' cost alone).
    pub fn traced_ops_per_s(&self) -> f64 {
        let extra = self.layer.get("trace_only_ns").copied().unwrap_or(0.0);
        self.ops as f64 / ((self.timed_ns as f64 - extra) / 1e9)
    }

    /// Stores the host nanoseconds of every op of the timed phase.
    pub fn set_ops(&mut self, op_ns: Vec<u64>) {
        self.ops = op_ns.len() as u64;
        self.op_ns = op_ns;
    }

    /// Checkpoints and restores `s` `times` times, recording both host
    /// times and the image size; the first restored session must
    /// checkpoint to the same bytes.
    pub fn probe_session_image(&mut self, s: &Session, times: usize) {
        self.image_probes += times;
        for i in 0..times {
            let t = Instant::now();
            let bytes = s.checkpoint();
            self.save_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let restored = Session::restore(&bytes);
            self.restore_ns.push(t.elapsed().as_nanos() as u64);
            self.image_bytes = bytes.len() as u64;
            if i == 0 {
                match restored {
                    Ok(r) if r.checkpoint() == bytes => {}
                    Ok(_) => self
                        .check_failures
                        .push("restored session checkpoints to different bytes".into()),
                    Err(e) => self.check_failures.push(format!("session restore: {e}")),
                }
            }
        }
    }

    /// Moves the op latencies into `hist`, keeping their count.
    pub fn fold_ops(&mut self, hist: &mut LatencyHist) {
        hist.record(&self.op_ns);
        self.op_ns = Vec::new();
    }

    /// Adds `v` to the per-layer scalar `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_default() += v;
    }
}

/// Guest-side counters of one world (deltas when produced by
/// [`Counters::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Guest instructions retired.
    pub insns: u64,
    /// Predecode-cache hits.
    pub predecode_hits: u64,
    /// Predecode-cache misses.
    pub predecode_misses: u64,
    /// Instructions served from proof tokens.
    pub proof_served: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// System calls dispatched.
    pub syscalls: u64,
}

impl Counters {
    /// The current counters of `k`.
    pub fn of(k: &Kernel) -> Counters {
        let pd = k.m.predecode_stats();
        Counters {
            cycles: k.m.cycles(),
            insns: k.m.insns(),
            predecode_hits: pd.hits,
            predecode_misses: pd.misses,
            proof_served: k.m.proof_stats().served,
            tlb_misses: k.m.mmu.stats.misses,
            syscalls: k.stats.syscalls,
        }
    }

    /// What `k` counted since `before` was taken.
    pub fn since(k: &Kernel, before: Counters) -> Counters {
        let now = Counters::of(k);
        Counters {
            cycles: now.cycles - before.cycles,
            insns: now.insns - before.insns,
            predecode_hits: now.predecode_hits - before.predecode_hits,
            predecode_misses: now.predecode_misses - before.predecode_misses,
            proof_served: now.proof_served - before.proof_served,
            tlb_misses: now.tlb_misses - before.tlb_misses,
            syscalls: now.syscalls - before.syscalls,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Counters) {
        self.cycles += other.cycles;
        self.insns += other.insns;
        self.predecode_hits += other.predecode_hits;
        self.predecode_misses += other.predecode_misses;
        self.proof_served += other.proof_served;
        self.tlb_misses += other.tlb_misses;
        self.syscalls += other.syscalls;
    }
}

/// Runs `setup` `times` times (at least once), recording each host time,
/// and returns the last world built.
pub fn timed_setups<W>(times: usize, setup_s: &mut Vec<f64>, mut setup: impl FnMut() -> W) -> W {
    let mut world = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let w = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        world = Some(w);
    }
    world.expect("at least one set-up ran")
}

/// A seeded Figure-7 style conjunction of 4 to 80 terms: the paper's four
/// header terms (with the destination port sometimes raised to a range
/// test) followed by payload-byte tests, so whether a packet matches
/// depends on its headers and on its payload length.
pub fn gen_filter(r: &mut SeedRng) -> Filter {
    let n = r.gen_range(4, 81) as usize;
    let mut f = netfilter::extended_conjunction(n);
    if r.gen_bool(0.25) {
        f.terms[3] = Term {
            offset: offsets::SRC_PORT,
            width: Width::B2,
            test: Test::Gt(r.gen_range(30_000, 45_000)),
        };
    }
    f
}

/// `VmHWM` or `VmRSS` of this process in KiB, from `/proc/self/status`.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cold set-ups measured per untraced run for `setup_s`, spread evenly
/// over its passes.
pub const SETUP_SAMPLES: usize = 16;
/// World checkpoints timed per untraced run of a workload whose op does
/// not checkpoint, spread evenly over its passes: enough for a p90 with
/// ten samples beyond.
pub const IMAGE_PROBES: usize = 100;
/// Most passes of a traced run; they alternate untraced and traced, so
/// the two halves give the tracing overhead.
pub const TRACE_PASSES: usize = 4;

/// Runs `w` for `seconds` from `seed`. Untraced, the report holds the
/// end-to-end metrics. Traced, it holds every per-layer metric: the
/// counters and spans of `w`, the tracing overhead, and the spans of one
/// traced pass of each other workload (same seed), so every traced run
/// reports the same metric names. Spans are returned for writing out.
pub fn run(w: Workload, seed: u64, seconds: u32, trace: bool) -> (Report, Vec<(Workload, Tracer)>) {
    let n = w.passes(seconds);
    let mut passes = Vec::new();
    let mut tracers = Vec::new();
    let mut metrics = Vec::new();
    if !trace {
        let setups = SETUP_SAMPLES.div_ceil(n);
        let mut off = Tracer::new(false);
        let mut hist = LatencyHist::default();
        for i in 0..n {
            let a = PassArgs {
                setups,
                image_probes: (i + 1) * IMAGE_PROBES / n - i * IMAGE_PROBES / n,
                ..PassArgs::nth(w, seed, i)
            };
            let mut p = w.pass(&a, &mut off);
            p.fold_ops(&mut hist);
            passes.push(p);
        }
        metrics = report::end_to_end(&passes, &hist);
    } else {
        // ext_churn's first traced pass runs first in the process, so its
        // RSS growth per load is read before freed heap can absorb it.
        let (before, after): (Vec<Workload>, Vec<Workload>) = Workload::ALL
            .into_iter()
            .filter(|&o| o != w)
            .partition(|&o| o == Workload::ExtChurn);
        let mut trace_other = |o: Workload, metrics: &mut Vec<Metric>| {
            let mut tr = Tracer::new(true);
            let p = o.pass(&PassArgs::nth(o, seed, 0), &mut tr);
            metrics.extend(report::layer_metrics(o, std::slice::from_ref(&p), &tr));
            passes.push(p);
            tracers.push((o, tr));
        };
        let mut other_metrics = Vec::new();
        for o in before {
            trace_other(o, &mut other_metrics);
        }

        let mut on = Tracer::new(true);
        let mut off = Tracer::new(false);
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for i in 0..n.min(TRACE_PASSES) {
            let is_traced = i % 2 == 0;
            let tr = if is_traced { &mut on } else { &mut off };
            let p = w.pass(&PassArgs::nth(w, seed, i), tr);
            if is_traced {
                traced.push(p);
            } else {
                untraced.push(p);
            }
        }
        for o in after {
            trace_other(o, &mut other_metrics);
        }
        metrics.extend(report::counters(traced.iter().chain(&untraced)));
        metrics.extend(report::layer_metrics(w, &traced, &on));
        metrics.extend(report::trace_metrics(&on, report::attempted(&traced)));
        metrics.push(Metric {
            name: "trace.ops_per_s_ratio".into(),
            value: report::median(traced.iter().map(Pass::traced_ops_per_s).collect())
                / report::median(untraced.iter().map(Pass::ops_per_s).collect()),
            unit: "ratio",
        });
        metrics.extend(other_metrics);
        passes.extend(traced);
        passes.extend(untraced);
        tracers.insert(0, (w, on));
    }
    let mut check_failures: Vec<String> = passes
        .iter()
        .flat_map(|p| p.check_failures.iter().cloned())
        .collect();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        check_failures.push(format!("metric {} has no samples", m.name));
    }
    let attempted = report::attempted(&passes);
    let failed = report::failed(&passes);
    let report = Report {
        correct: failed == 0 && check_failures.is_empty(),
        attempted,
        failed,
        metrics,
        check_failures,
    };
    (report, tracers)
}
