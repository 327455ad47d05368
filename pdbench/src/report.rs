//! Turns passes into named metrics and prints the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Tracer;
use crate::{LatencyHist, Pass, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit; `guest_cycles` and `B` are simulated, the rest host time.
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`, which is sorted in place.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v`.
pub fn median(mut v: Vec<f64>) -> f64 {
    percentile(&mut v, 0.5)
}

/// Every pass's nanosecond samples selected by `f`, in milliseconds.
fn pooled_ms(passes: &[Pass], f: impl Fn(&Pass) -> &[u64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| f(p).iter().map(|&ns| ns as f64 / 1e6))
        .collect()
}

/// Ops attempted across `passes`.
pub fn attempted(passes: &[Pass]) -> u64 {
    passes.iter().map(|p| p.ops).sum()
}

/// Ops whose outcome differed from the reference, across `passes`.
pub fn failed(passes: &[Pass]) -> u64 {
    passes.iter().map(|p| p.failed).sum()
}

/// Peak RSS of the op phases: the largest VmHWM reading up to the first
/// pass that probed its world image. VmHWM never falls, so later readings
/// would include the probes' transient buffers, whose allocator layout
/// made the peak vary by 20% between seeds.
fn peak_rss_kb(passes: &[Pass]) -> u64 {
    let mut peak = 0;
    for p in passes {
        peak = peak.max(p.hwm_kb);
        if p.image_probes > 0 {
            break;
        }
    }
    peak
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(passes: &[Pass], op_hist: &LatencyHist) -> Vec<Metric> {
    let ops = attempted(passes) as f64;
    let setup: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.clone()).collect();
    let mut save_ms = pooled_ms(passes, |p| &p.save_ns);
    let mut restore_ms = pooled_ms(passes, |p| &p.restore_ns);
    let cycles: u64 = passes.iter().map(|p| p.counters.cycles).sum();
    let mips = passes
        .iter()
        .map(|p| p.counters.insns as f64 / (p.timed_ns as f64 / 1e3))
        .collect();
    // Mean over the passes that checkpointed their world.
    let imaged: Vec<f64> = passes
        .iter()
        .filter(|p| !p.save_ns.is_empty())
        .map(|p| p.image_bytes as f64)
        .collect();
    let image_bytes = imaged.iter().sum::<f64>() / imaged.len() as f64;
    vec![
        m("setup_s", median(setup), "s"),
        m(
            "ops_per_s",
            median(passes.iter().map(Pass::ops_per_s).collect()),
            "1/s",
        ),
        m("op_p50_us", op_hist.percentile(0.50) / 1e3, "us"),
        m("op_p99_us", op_hist.percentile(0.99) / 1e3, "us"),
        m("sim_cycles_per_op", cycles as f64 / ops, "guest_cycles"),
        m("guest_mips", median(mips), "MIPS"),
        m("ok_ratio", (ops - failed(passes) as f64) / ops, "ratio"),
        m("peak_rss_mb", peak_rss_kb(passes) as f64 / 1024.0, "MiB"),
        m("save_p50_ms", percentile(&mut save_ms, 0.50), "ms"),
        m("save_p90_ms", percentile(&mut save_ms, 0.90), "ms"),
        m("restore_p50_ms", percentile(&mut restore_ms, 0.50), "ms"),
        m("restore_p90_ms", percentile(&mut restore_ms, 0.90), "ms"),
        m("image_bytes", image_bytes, "B"),
    ]
}

/// Per-layer counter metrics of the requested workload (simulated-side
/// counts, identical with tracing on or off).
pub fn counters<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<Metric> {
    let (mut c, mut ops) = (crate::Counters::default(), 0.0);
    for p in passes {
        c.add(p.counters);
        ops += p.ops as f64;
    }
    let lookups = (c.predecode_hits + c.predecode_misses) as f64;
    vec![
        m("x86sim.insns_per_op", c.insns as f64 / ops, "count"),
        m(
            "x86sim.predecode_hit_ratio",
            c.predecode_hits as f64 / lookups,
            "ratio",
        ),
        m(
            "x86sim.predecode_misses_per_op",
            c.predecode_misses as f64 / ops,
            "count",
        ),
        m(
            "x86sim.proof_served_ratio",
            c.proof_served as f64 / c.insns as f64,
            "ratio",
        ),
        m(
            "x86sim.tlb_misses_per_op",
            c.tlb_misses as f64 / ops,
            "count",
        ),
        m(
            "minikernel.syscalls_per_op",
            c.syscalls as f64 / ops,
            "count",
        ),
    ]
}

/// Span p50 in microseconds of every span named in `names`.
fn span_p50_us(tr: &Tracer, names: &[(&str, &str)]) -> Vec<Metric> {
    let durations = tr.durations();
    names
        .iter()
        .map(|(span, metric)| {
            let mut v: Vec<f64> = durations
                .get(span)
                .map(|d| d.iter().map(|&ns| ns as f64 / 1e3).collect())
                .unwrap_or_default();
            let value = if v.is_empty() {
                f64::NAN
            } else {
                percentile(&mut v, 0.5)
            };
            m(metric, value, "us")
        })
        .collect()
}

fn layer_sum(passes: &[Pass], name: &str) -> f64 {
    passes.iter().filter_map(|p| p.layer.get(name)).sum()
}

fn sample_median(passes: &[Pass], name: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.samples.get(name).cloned().unwrap_or_default())
        .collect();
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// The per-layer metrics specific to `w`, from its traced passes and the
/// spans they recorded.
pub fn layer_metrics(w: Workload, passes: &[Pass], tr: &Tracer) -> Vec<Metric> {
    match w {
        Workload::CallStream => {
            let mut out = span_p50_us(
                tr,
                &[
                    ("palladium.kext_invoke", "palladium.kext_invoke_us"),
                    ("palladium.session_call", "palladium.session_call_us"),
                    ("x86sim.host_write", "x86sim.host_write_us"),
                ],
            );
            out.push(m(
                "palladium.kext_cycles_per_call",
                layer_sum(passes, "kext_cycles") / layer_sum(passes, "kext_calls"),
                "guest_cycles",
            ));
            out.push(m(
                "palladium.session_cycles_per_call",
                layer_sum(passes, "user_cycles") / layer_sum(passes, "user_calls"),
                "guest_cycles",
            ));
            out
        }
        Workload::ExtChurn => {
            let mut out = span_p50_us(
                tr,
                &[
                    ("netfilter.codegen", "netfilter.codegen_us"),
                    ("asm86.assemble", "asm86.assemble_us"),
                    ("palladium.create_segment", "palladium.create_segment_us"),
                    ("palladium.insmod", "palladium.insmod_us"),
                    ("verifier.verify", "verifier.verify_us"),
                    ("palladium.first_invoke", "palladium.first_invoke_us"),
                    ("palladium.warm_invoke", "palladium.warm_invoke_us"),
                    ("palladium.destroy_segment", "palladium.destroy_segment_us"),
                    ("chaos.oracle_check", "chaos.oracle_check_us"),
                ],
            );
            out.push(m(
                "verifier.admit_ratio",
                layer_sum(passes, "admitted") / layer_sum(passes, "insmods"),
                "ratio",
            ));
            // From the first pass only: it runs first in its process, so
            // no heap freed by an earlier world absorbs the growth.
            let first = &passes[0];
            out.push(m(
                "palladium.rss_kb_per_load",
                first.layer["rss_growth_kb"] / first.ops as f64,
                "KiB",
            ));
            out
        }
        Workload::CheckpointCycle => {
            let mut out = span_p50_us(tr, &[("fleet.serve_round", "fleet.serve_round_us")]);
            let med = |n: &str| sample_median(passes, n);
            for name in [
                "x86sim.save_image_ms",
                "minikernel.save_image_ms",
                "fleet.checkpoint_ms",
                "x86sim.restore_image_ms",
                "minikernel.restore_image_ms",
                "fleet.restore_ms",
            ] {
                out.push(m(name, med(name), "ms"));
            }
            out.push(m(
                "minikernel.save_self_ms",
                med("minikernel.save_image_ms") - med("x86sim.save_image_ms"),
                "ms",
            ));
            out.push(m(
                "fleet.checkpoint_self_ms",
                med("fleet.checkpoint_ms") - med("minikernel.save_image_ms"),
                "ms",
            ));
            out.push(m(
                "minikernel.restore_self_ms",
                med("minikernel.restore_image_ms") - med("x86sim.restore_image_ms"),
                "ms",
            ));
            out.push(m(
                "fleet.restore_self_ms",
                med("fleet.restore_ms") - med("minikernel.restore_image_ms"),
                "ms",
            ));
            out.push(m(
                "x86sim.crc32_mb_per_s",
                med("x86sim.crc32_mb_per_s"),
                "MB/s",
            ));
            for name in ["x86sim.image_bytes", "minikernel.image_bytes"] {
                let v = passes.iter().filter_map(|p| p.layer.get(name)).sum::<f64>()
                    / passes.len() as f64;
                out.push(m(name, v, "B"));
            }
            out
        }
    }
}

/// Self time of the benchmark's own op span (its work between layer
/// calls), p50 in microseconds, and spans recorded per op.
pub fn trace_metrics(tr: &Tracer, ops: u64) -> Vec<Metric> {
    let mut selfs: Vec<f64> = tr
        .self_times()
        .remove("bench.op")
        .unwrap_or_default()
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let self_us = if selfs.is_empty() {
        f64::NAN
    } else {
        percentile(&mut selfs, 0.5)
    };
    vec![
        m("bench.op_self_us", self_us, "us"),
        m(
            "trace.spans_per_op",
            tr.spans().len() as f64 / ops as f64,
            "count",
        ),
    ]
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every op matched its reference and every pass-level check held.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose outcome differed from the reference.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Pass-level check failures, one line each.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Metric values by name.
    pub fn values(&self) -> BTreeMap<&str, f64> {
        self.metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}
