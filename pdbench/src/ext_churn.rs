//! `ext_churn`: the kernel-extension lifecycle that supervisor restarts
//! and upgrades use, with new code on every op.
//!
//! Each op generates a filter's assembly (`compile_to_asm`), assembles
//! it, creates a verified segment with descriptor recycling, `insmod`s
//! the module, invokes it on 4 packets while its code is still cold, and
//! destroys the segment. One op in [`HOSTILE_EVERY`] loads a hostile
//! `chaos::gen::kernel_ext_object` instead: it must be rejected at
//! admission, or its faults contained with the state oracle clean.
//!
//! Kernel extensions, not user-level ones: user-level
//! dlopen → dlsym → call → dlclose churn runs out of memory in `dlsym`
//! after about 142 cycles, because `seg_dlclose` recycles no frames and
//! the trampoline allocator only bumps.

use std::collections::BTreeMap;
use std::time::Instant;

use asm86::{Assembler, Object};
use chaos::oracle::{check_recovery, StateOracle};
use minikernel::layout::KSERVICE_VECTOR;
use netfilter::compile::compile_to_asm;
use netfilter::Filter;
use palladium::kernel_ext::{KernelExtensions, KextError, SegmentConfig};
use palladium::Session;
use seedrng::SeedRng;
use verifier::{verify_image, VerifyPolicy};

use crate::{gen_filter, proc_status_kb, timed_setups, Counters, Pass, PassArgs, Tracer};

/// Ops per pass.
pub const OPS: usize = 2_000;
/// Nominal host seconds of one pass on the reference machine, including
/// its share of the run's image probes.
pub const NOMINAL_PASS_S: f64 = 1.0;
/// One op in this many loads a hostile module.
pub const HOSTILE_EVERY: u32 = 8;
/// Invocations per loaded module.
pub const INVOKES: usize = 4;
/// Pages per extension segment.
const SEG_PAGES: u32 = 16;
/// Per-invocation CPU-time limit: bounds what a hostile runaway loop
/// that passes admission can cost.
const CYCLE_LIMIT: u64 = 20_000;
/// Distinct packets per pass.
const PACKETS: usize = 512;
/// Kernel canary watched by the state oracle.
const CANARY: u32 = 0x5EED_C0DE;

struct World {
    s: Session,
    kx: KernelExtensions,
    oracle: StateOracle,
    cr3: u32,
    /// Segment-relative load offset of the first module in a fresh
    /// segment (the same for every segment).
    load_at: u32,
}

enum Churn {
    Filter {
        filter: Filter,
        pkts: [usize; INVOKES],
        accept: [bool; INVOKES],
    },
    Hostile {
        obj: Object,
        args: [u32; INVOKES],
    },
}

fn config() -> SegmentConfig {
    SegmentConfig::builder()
        .verify(true)
        .recycle_descriptors(true)
        .build()
}

fn setup() -> World {
    let mut s = Session::new().expect("session boots");
    s.set_cycle_limit(CYCLE_LIMIT);
    let k = s.kernel_mut();
    let mut kx = KernelExtensions::new(k).expect("kernel extensions install");
    let canary = k.alloc_kernel_pages(1).expect("canary page");
    k.m.host_write_u32(canary, CANARY);
    let oracle = StateOracle::new(k, canary, CANARY);
    // Warm-up: one full load/invoke/unload cycle, which also yields the
    // module load offset of a fresh segment.
    let obj = netfilter::compile::compile(&netfilter::paper_conjunction(4));
    let seg = kx
        .create_segment_with(k, SEG_PAGES, config())
        .expect("segment");
    kx.insmod(k, seg, "warm", &obj, &["filter"])
        .expect("warm insmod");
    let load_at = kx.segment(seg).functions["filter"] - obj.symbol("filter").expect("export");
    let (area, _) = kx.shared_area_linear(seg).expect("shared area");
    let pkt = netfilter::reference_packet(64);
    assert!(k.m.host_write(area, &pkt));
    assert_eq!(kx.invoke(k, seg, "filter", pkt.len() as u32), Ok(1));
    kx.destroy_segment(k, seg);
    let cr3 = s.kernel().task(s.app().tid).cr3;
    World {
        s,
        kx,
        oracle,
        cr3,
        load_at,
    }
}

/// One churn op; returns whether every outcome matched the reference.
fn churn(
    w: &mut World,
    op: &Churn,
    packets: &[Vec<u8>],
    policy: &VerifyPolicy,
    tr: &mut Tracer,
    p: &mut Pass,
) -> bool {
    let k = w.s.kernel_mut();
    let kx = &mut w.kx;
    let generated;
    let (obj, name, export) = match op {
        Churn::Filter { filter, .. } => {
            let src = tr.time("netfilter.codegen", || compile_to_asm(filter));
            match tr.time("asm86.assemble", || Assembler::assemble(&src)) {
                Ok(o) => generated = o,
                Err(_) => return false,
            }
            (&generated, "pktfilter", "filter")
        }
        Churn::Hostile { obj, .. } => (obj, "hostile", "entry"),
    };
    let Ok(seg) = tr.time("palladium.create_segment", || {
        kx.create_segment_with(k, SEG_PAGES, config())
    }) else {
        return false;
    };
    let loaded = tr.time("palladium.insmod", || {
        kx.insmod(k, seg, name, obj, &[export])
    });
    p.add("insmods", 1.0);
    p.add("admitted", f64::from(u8::from(loaded.is_ok())));
    if tr.enabled() {
        // The verifier alone, on the image and policy `insmod` used. This
        // is extra work of the traced run, excluded from its throughput.
        let t = Instant::now();
        let image = obj.link(w.load_at, &BTreeMap::new()).expect("module links");
        let entries = obj.entry_offsets(&[export]).expect("export exists");
        let verdict = tr.time("verifier.verify", || verify_image(&image, &entries, policy));
        p.add("trace_only_ns", t.elapsed().as_nanos() as f64);
        if verdict.is_ok() != loaded.is_ok() {
            p.check_failures
                .push("verify_image and insmod disagree on admission".into());
        }
    }
    let ok = match (op, loaded) {
        (Churn::Filter { pkts, accept, .. }, Ok(())) => {
            let (area, _) = kx
                .shared_area_linear(seg)
                .expect("filter has a shared area");
            let mut ok = true;
            for (j, (&pkt, &want)) in pkts.iter().zip(accept).enumerate() {
                let pkt = &packets[pkt];
                ok &= k.m.host_write(area, pkt);
                k.m.charge(pkt.len() as u64 / 4 + 10);
                let span = if j == 0 {
                    "palladium.first_invoke"
                } else {
                    "palladium.warm_invoke"
                };
                let got = tr.time(span, || kx.invoke(k, seg, "filter", pkt.len() as u32));
                ok &= got == Ok(u32::from(want));
            }
            ok
        }
        (Churn::Filter { .. }, Err(_)) => false,
        (Churn::Hostile { args, .. }, loaded) => {
            let admissible = match loaded {
                Ok(()) => {
                    for &arg in args {
                        // Any outcome is acceptable; containment is
                        // judged by the oracle below.
                        let _ = kx.invoke(k, seg, "entry", arg);
                    }
                    true
                }
                Err(KextError::Verify(_)) => true,
                Err(_) => false,
            };
            let (oracle, cr3) = (&w.oracle, w.cr3);
            let violations = tr.time("chaos.oracle_check", || oracle.check(k, cr3));
            admissible && violations.is_empty()
        }
    };
    tr.time("palladium.destroy_segment", || kx.destroy_segment(k, seg));
    ok
}

/// Runs one pass: `a.setups` cold set-ups (the last one is used), [`OPS`]
/// timed churn ops, a leak audit, then `a.image_probes` world checkpoints.
pub fn pass(a: &PassArgs, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut w = timed_setups(a.setups, &mut p.setup_s, setup);

    let mut r = SeedRng::new(a.seed);
    let packets = netfilter::traffic(r.next_u64(), PACKETS, 0.5);
    let ops: Vec<Churn> = (0..OPS)
        .map(|_| {
            if r.gen_range(0, HOSTILE_EVERY) == 0 {
                let obj = chaos::gen::kernel_ext_object(&mut r);
                Churn::Hostile {
                    obj,
                    args: std::array::from_fn(|_| r.next_u32()),
                }
            } else {
                let filter = gen_filter(&mut r);
                let pkts: [usize; INVOKES] =
                    std::array::from_fn(|_| r.gen_range(0, PACKETS as u32) as usize);
                let accept = pkts.map(|i| filter.eval(&packets[i]));
                Churn::Filter {
                    filter,
                    pkts,
                    accept,
                }
            }
        })
        .collect();
    let policy = VerifyPolicy::new(1, w.load_at)
        .allow_data(0, SEG_PAGES * x86sim::mem::PAGE_SIZE)
        .allow_vector(KSERVICE_VECTOR);

    let mut op_ns = Vec::with_capacity(OPS);
    let rss_before = proc_status_kb("VmRSS:").unwrap_or(0);
    let before = Counters::of(w.s.kernel());
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(a.op_base + i as u64);
        let op_span = tr.enter("bench.op");
        let t = Instant::now();
        let ok = churn(&mut w, op, &packets, &policy, tr, &mut p);
        tr.exit(op_span);
        op_ns.push(t.elapsed().as_nanos() as u64);
        p.failed += u64::from(!ok);
    }
    p.timed_ns = start.elapsed().as_nanos() as u64;
    p.hwm_kb = proc_status_kb("VmHWM:").unwrap_or(0);
    p.set_ops(op_ns);
    p.counters = Counters::since(w.s.kernel(), before);
    let rss_after = proc_status_kb("VmRSS:").unwrap_or(0);
    p.add("rss_growth_kb", rss_after.saturating_sub(rss_before) as f64);

    for v in check_recovery(w.s.kernel(), &w.kx) {
        p.check_failures.push(format!("leak audit: {v}"));
    }
    p.probe_session_image(&w.s, a.image_probes);
    p
}
