//! The benchmark's own contract: a seed fixes every input, so simulated
//! metrics and per-layer counts repeat exactly; another seed changes the
//! inputs and every outcome still matches its reference.
//!
//! These tests never run [`pdbench::HELD_OUT_SEED`]: it stays unseen
//! until a claimed gain is confirmed on it.

use std::collections::BTreeMap;

use pdbench::{run, Workload};

const SEED: u64 = 7;
const OTHER_SEED: u64 = 8;

/// Metrics that must repeat exactly for a given seed.
const DETERMINISTIC: [&str; 2] = ["sim_cycles_per_op", "image_bytes"];

/// Per-layer counts (not times) that must repeat exactly for a given seed.
const COUNTS: [&str; 11] = [
    "x86sim.insns_per_op",
    "x86sim.predecode_hit_ratio",
    "x86sim.predecode_misses_per_op",
    "x86sim.proof_served_ratio",
    "x86sim.tlb_misses_per_op",
    "minikernel.syscalls_per_op",
    "palladium.kext_cycles_per_call",
    "palladium.session_cycles_per_call",
    "verifier.admit_ratio",
    "x86sim.image_bytes",
    "minikernel.image_bytes",
];

fn untraced(w: Workload, seed: u64) -> (BTreeMap<String, f64>, u64) {
    let (r, _) = run(w, seed, 1, false);
    assert!(
        r.correct,
        "{} seed {seed}: {:?}",
        w.name(),
        r.check_failures
    );
    assert_eq!(r.failed, 0);
    let values = r
        .values()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    (values, r.attempted)
}

#[test]
fn same_seed_repeats_deterministic_metrics() {
    for w in Workload::ALL {
        let (a, ops_a) = untraced(w, SEED);
        let (b, ops_b) = untraced(w, SEED);
        assert_eq!(ops_a, ops_b, "{}", w.name());
        for name in DETERMINISTIC {
            assert_eq!(a[name], b[name], "{} {name}", w.name());
        }
        assert_eq!(a["ok_ratio"], 1.0, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_inputs_and_stays_correct() {
    for w in Workload::ALL {
        let (a, _) = untraced(w, SEED);
        let (b, _) = untraced(w, OTHER_SEED);
        assert_ne!(
            a["sim_cycles_per_op"],
            b["sim_cycles_per_op"],
            "{}: a new seed must change the op sequence",
            w.name()
        );
        assert_eq!(b["ok_ratio"], 1.0, "{}", w.name());
    }
}

#[test]
fn traced_runs_repeat_per_layer_counts_and_report_every_metric() {
    let traced = |w: Workload| {
        let (r, tracers) = run(w, SEED, 1, true);
        assert!(r.correct, "{}: {:?}", w.name(), r.check_failures);
        assert_eq!(tracers.len(), Workload::ALL.len());
        for (_, tr) in &tracers {
            for s in tr.spans() {
                assert!(s.end_ns >= s.start_ns, "closed span {}", s.name);
            }
        }
        r.metrics
    };
    let names = |ms: &[pdbench::Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let first = traced(Workload::CallStream);
    for w in Workload::ALL {
        let a = traced(w);
        let b = traced(w);
        let mut sorted_a = names(&a);
        sorted_a.sort();
        let mut sorted_first = names(&first);
        sorted_first.sort();
        assert_eq!(sorted_a, sorted_first, "{}: same metric names", w.name());
        for name in COUNTS {
            let va = a
                .iter()
                .find(|m| m.name == name)
                .expect("count reported")
                .value;
            let vb = b
                .iter()
                .find(|m| m.name == name)
                .expect("count reported")
                .value;
            assert_eq!(va, vb, "{} {name}", w.name());
        }
    }
}
