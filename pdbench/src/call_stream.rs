//! `call_stream`: hot protected calls into code that was loaded once.
//!
//! The world loads [`FILTERS`] compiled packet filters as verified kernel
//! extensions and [`USER_EXTS`] verified loop extensions through the
//! user-level [`Session`]. Each op is one protected call, drawn from a
//! seeded mix: a filter invoked through `KernelExtensions::invoke` on a
//! packet placed in its shared area, or a `Session::call` into a loop
//! extension (Prepare → `lret` → Transfer → `lcall` AppCallGate, the
//! paper's integrated segmentation+paging path). Loader, verifier,
//! assembler and image codec do no work in the timed phase, so this is
//! where the simulator's step loop and the trampolines show.

use std::time::Instant;

use netfilter::compile::compile;
use netfilter::Filter;
use palladium::kernel_ext::{ExtSegmentId, KernelExtensions, SegmentConfig};
use palladium::{DlopenOptions, Session};
use seedrng::SeedRng;

use crate::{gen_filter, proc_status_kb, timed_setups, Counters, Pass, PassArgs, Tracer};

/// Ops per pass.
pub const OPS: usize = 20_000;
/// Nominal host seconds of one pass on the reference machine, including
/// its share of the run's image probes; sets the number of passes per run.
pub const NOMINAL_PASS_S: f64 = 0.25;
/// Compiled filters loaded per world.
pub const FILTERS: usize = 8;
/// Verified user-level loop extensions loaded per world.
pub const USER_EXTS: usize = 3;
/// Distinct packets per pass.
const PACKETS: usize = 256;
/// Share of ops that are kernel-extension filter calls.
const KEXT_SHARE: f64 = 0.6;

/// The user-level loop extensions: `(source, export)`. Each loops a
/// seeded number of times over register-only arithmetic, so the verifier
/// admits it and the host can compute its result.
const LOOP_EXTS: [(&str, &str); USER_EXTS] = [
    (
        "sum:\n\
         mov ecx, [esp+4]\n\
         and ecx, 63\n\
         add ecx, 16\n\
         mov eax, 0\n\
         sum_loop:\n\
         add eax, ecx\n\
         dec ecx\n\
         cmp ecx, 0\n\
         jne sum_loop\n\
         ret\n",
        "sum",
    ),
    (
        "mix:\n\
         mov eax, [esp+4]\n\
         mov ecx, eax\n\
         and ecx, 31\n\
         add ecx, 24\n\
         mix_loop:\n\
         imul eax, 33\n\
         xor eax, ecx\n\
         dec ecx\n\
         cmp ecx, 0\n\
         jne mix_loop\n\
         ret\n",
        "mix",
    ),
    (
        "fold:\n\
         mov eax, [esp+4]\n\
         mov edx, 0\n\
         mov ecx, 48\n\
         fold_loop:\n\
         mov ebx, eax\n\
         shr ebx, 3\n\
         xor eax, ebx\n\
         shl eax, 1\n\
         add edx, eax\n\
         dec ecx\n\
         cmp ecx, 0\n\
         jne fold_loop\n\
         mov eax, edx\n\
         ret\n",
        "fold",
    ),
];

/// Host-side reference result of loop extension `ext` on `arg`.
pub fn loop_ext_reference(ext: usize, arg: u32) -> u32 {
    match ext {
        0 => {
            let n = (arg & 63) + 16;
            n * (n + 1) / 2
        }
        1 => {
            let mut eax = arg;
            let mut ecx = (arg & 31) + 24;
            while ecx != 0 {
                eax = eax.wrapping_mul(33) ^ ecx;
                ecx -= 1;
            }
            eax
        }
        _ => {
            let (mut eax, mut edx) = (arg, 0u32);
            for _ in 0..48 {
                eax ^= eax >> 3;
                eax <<= 1;
                edx = edx.wrapping_add(eax);
            }
            edx
        }
    }
}

struct LoadedFilter {
    filter: Filter,
    seg: ExtSegmentId,
    area: u32,
}

struct World {
    s: Session,
    kx: KernelExtensions,
    filters: Vec<LoadedFilter>,
    prepares: Vec<u32>,
}

enum Op {
    Kext {
        filter: usize,
        pkt: usize,
        accept: bool,
    },
    User {
        ext: usize,
        arg: u32,
        want: u32,
    },
}

/// Places `pkt` in the shared area at `area` and invokes `filter`,
/// charging the copy as the Figure-7 harness does.
fn invoke_filter(
    kx: &mut KernelExtensions,
    s: &mut Session,
    seg: ExtSegmentId,
    area: u32,
    pkt: &[u8],
    tr: &mut Tracer,
) -> Option<u32> {
    let k = s.kernel_mut();
    if !tr.time("x86sim.host_write", || k.m.host_write(area, pkt)) {
        return None;
    }
    k.m.charge(pkt.len() as u64 / 4 + 10);
    tr.time("palladium.kext_invoke", || {
        kx.invoke(k, seg, "filter", pkt.len() as u32)
    })
    .ok()
}

fn setup(r: &mut SeedRng) -> World {
    let mut s = Session::new().expect("session boots");
    let mut kx = KernelExtensions::new(s.kernel_mut()).expect("kernel extensions install");
    let config = SegmentConfig::builder().verify(true).build();
    let mut filters = Vec::with_capacity(FILTERS);
    for _ in 0..FILTERS {
        let filter = gen_filter(r);
        let obj = compile(&filter);
        let k = s.kernel_mut();
        let seg = kx
            .create_segment_with(k, 16, config.clone())
            .expect("filter segment");
        kx.insmod(k, seg, "pktfilter", &obj, &["filter"])
            .expect("generated filter passes verification");
        let (area, _) = kx
            .shared_area_linear(seg)
            .expect("filter has a shared area");
        filters.push(LoadedFilter { filter, seg, area });
    }
    let mut prepares = Vec::with_capacity(USER_EXTS);
    for (src, export) in LOOP_EXTS {
        let obj = asm86::Assembler::assemble(src).expect("loop extension assembles");
        let h = s
            .dlopen(&obj, &DlopenOptions::new().verify(&[export]))
            .expect("loop extension passes verification");
        prepares.push(s.dlsym(h, export).expect("loop extension resolves"));
    }
    // Warm-up: every call path once.
    let warm = netfilter::reference_packet(64);
    let mut off = Tracer::new(false);
    for f in &filters {
        invoke_filter(&mut kx, &mut s, f.seg, f.area, &warm, &mut off).expect("warm filter");
    }
    for (i, &p) in prepares.iter().enumerate() {
        let got = s.call(p, 1).expect("warm call");
        assert_eq!(got, loop_ext_reference(i, 1), "warm-up result");
    }
    World {
        s,
        kx,
        filters,
        prepares,
    }
}

/// Runs one pass: `a.setups` cold set-ups (the last one is used), [`OPS`]
/// timed protected calls, then `a.image_probes` world checkpoints.
pub fn pass(a: &PassArgs, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut w = timed_setups(a.setups, &mut p.setup_s, || {
        setup(&mut SeedRng::new(a.seed))
    });

    // Inputs and references, built before the timed phase.
    let mut r = SeedRng::stream(a.seed, 1);
    let packets = netfilter::traffic(r.next_u64(), PACKETS, 0.5);
    let ops: Vec<Op> = (0..OPS)
        .map(|_| {
            if r.gen_bool(KEXT_SHARE) {
                let filter = r.gen_range(0, FILTERS as u32) as usize;
                let pkt = r.gen_range(0, PACKETS as u32) as usize;
                let accept = w.filters[filter].filter.eval(&packets[pkt]);
                Op::Kext {
                    filter,
                    pkt,
                    accept,
                }
            } else {
                let ext = r.gen_range(0, USER_EXTS as u32) as usize;
                let arg = r.next_u32();
                Op::User {
                    ext,
                    arg,
                    want: loop_ext_reference(ext, arg),
                }
            }
        })
        .collect();

    let mut op_ns = Vec::with_capacity(OPS);
    let (mut kext_calls, mut kext_cycles, mut user_calls, mut user_cycles) = (0u64, 0, 0u64, 0);
    let before = Counters::of(w.s.kernel());
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(a.op_base + i as u64);
        let op_span = tr.enter("bench.op");
        let t = Instant::now();
        let cycles0 = w.s.kernel().m.cycles();
        let ok = match *op {
            Op::Kext {
                filter,
                pkt,
                accept,
            } => {
                let f = &w.filters[filter];
                let got = invoke_filter(&mut w.kx, &mut w.s, f.seg, f.area, &packets[pkt], tr);
                kext_calls += 1;
                kext_cycles += w.s.kernel().m.cycles() - cycles0;
                got == Some(u32::from(accept))
            }
            Op::User { ext, arg, want } => {
                let prepare = w.prepares[ext];
                let s = &mut w.s;
                let got = tr.time("palladium.session_call", || s.call(prepare, arg));
                user_calls += 1;
                user_cycles += w.s.kernel().m.cycles() - cycles0;
                matches!(got, Ok(v) if v == want)
            }
        };
        tr.exit(op_span);
        op_ns.push(t.elapsed().as_nanos() as u64);
        p.failed += u64::from(!ok);
    }
    p.timed_ns = start.elapsed().as_nanos() as u64;
    p.hwm_kb = proc_status_kb("VmHWM:").unwrap_or(0);
    p.set_ops(op_ns);
    p.counters = Counters::since(w.s.kernel(), before);
    p.add("kext_calls", kext_calls as f64);
    p.add("kext_cycles", kext_cycles as f64);
    p.add("user_calls", user_calls as f64);
    p.add("user_cycles", user_cycles as f64);

    p.probe_session_image(&w.s, a.image_probes);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_extensions_match_their_references() {
        let mut s = Session::new().unwrap();
        for (i, (src, export)) in LOOP_EXTS.iter().enumerate() {
            let obj = asm86::Assembler::assemble(src).unwrap();
            let h = s
                .dlopen(&obj, &DlopenOptions::new().verify(&[*export]))
                .unwrap();
            let f = s.dlsym(h, export).unwrap();
            for arg in [0, 1, 7, 63, 64, 0xdead_beef, u32::MAX] {
                assert_eq!(
                    s.call(f, arg).unwrap(),
                    loop_ext_reference(i, arg),
                    "{export}({arg})"
                );
            }
        }
    }
}
