//! `checkpoint_cycle`: a warmed `fleet::Replica` running the working
//! handler images. Each op serves one round, checkpoints the replica
//! (image write) and restores it (image read); the workload continues
//! from the restored replica. Save and restore share the image layers,
//! one writing and one reading, so a gain for one that costs the other
//! shows.

use std::time::Instant;

use fleet::{working_version_images, Replica};
use minikernel::Kernel;
use palladium::supervisor::RestartPolicy;
use x86sim::image::crc32;
use x86sim::Machine;

use crate::{proc_status_kb, timed_setups, Counters, Pass, PassArgs, Tracer};

/// Ops per pass.
pub const OPS: usize = 15;
/// Nominal host seconds of one pass on the reference machine.
pub const NOMINAL_PASS_S: f64 = 0.5;
/// Requests served per round.
pub const REQUESTS: u32 = 16;
/// Handler work-loop iterations per request.
const WORK: u32 = 320;
/// Value the handler answers with.
const VALUE: u32 = 7;
/// Per-invocation CPU-time limit.
const CYCLE_LIMIT: u64 = 20_000;
/// Rounds served while warming the replica.
const WARM_ROUNDS: u32 = 4;
/// Probe repetitions per pass for each image layer (traced runs only).
const LAYER_PROBES: usize = 8;

fn setup(seed: u64) -> Replica {
    let mut r = Replica::new(
        seed,
        0,
        working_version_images("flt", VALUE, WORK),
        RestartPolicy::default(),
        CYCLE_LIMIT,
        true,
    )
    .expect("replica boots");
    for _ in 0..WARM_ROUNDS {
        r.serve_round(REQUESTS);
    }
    r
}

/// Response bytes of one healthy round: every request answered 200 with
/// the handler's value.
fn round_bytes() -> u64 {
    let body = format!("filtered:{VALUE}\n");
    u64::from(REQUESTS) * webserver::http::ok_response("text/plain", body.as_bytes()).len() as u64
}

/// Runs one pass: `a.setups` cold set-ups (the last one is used), [`OPS`]
/// timed serve/checkpoint/restore ops, then the twin check.
pub fn pass(a: &PassArgs, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut r = timed_setups(a.setups, &mut p.setup_s, || setup(a.seed));
    let want_bytes = round_bytes();

    let mut op_ns = Vec::with_capacity(OPS);
    let start = Instant::now();
    for i in 0..OPS {
        tr.set_op(a.op_base + i as u64);
        let op_span = tr.enter("bench.op");
        let t = Instant::now();
        let resp0 = r.stats.resp_bytes;
        let before = Counters::of(&r.k);
        let round = tr.time("fleet.serve_round", || r.serve_round(REQUESTS));
        p.counters.add(Counters::since(&r.k, before));
        let mut ok = round.served == REQUESTS && r.stats.resp_bytes - resp0 == want_bytes;
        let t_save = Instant::now();
        let bytes = tr.time("fleet.checkpoint", || r.checkpoint());
        p.save_ns.push(t_save.elapsed().as_nanos() as u64);
        let t_restore = Instant::now();
        let restored = tr.time("fleet.restore", || Replica::restore(&bytes));
        p.restore_ns.push(t_restore.elapsed().as_nanos() as u64);
        match restored {
            Ok(next) => r = next,
            Err(_) => ok = false,
        }
        p.image_bytes = bytes.len() as u64;
        tr.exit(op_span);
        op_ns.push(t.elapsed().as_nanos() as u64);
        p.failed += u64::from(!ok);
    }
    p.timed_ns = start.elapsed().as_nanos() as u64;
    p.hwm_kb = proc_status_kb("VmHWM:").unwrap_or(0);
    p.set_ops(op_ns);

    if tr.enabled() {
        layer_probes(&r, tr, &mut p);
    }
    // The twin boots (one more timed cold set-up) only after the replica
    // is gone, so the check adds no memory peak beyond the ops' own.
    let got = r.checkpoint();
    drop(r);
    let mut twin = timed_setups(1, &mut p.setup_s, || setup(a.seed));
    for _ in 0..OPS {
        twin.serve_round(REQUESTS);
    }
    if twin.checkpoint() != got {
        p.check_failures.push(
            "checkpoint differs from that of a twin that served the same rounds without checkpointing"
                .into(),
        );
    }
    p
}

/// Times each image layer on the same world, each layer's call including
/// the layers below it: machine ⊂ kernel ⊂ replica, for save and restore,
/// plus CRC32 throughput over the replica image.
fn layer_probes(r: &Replica, tr: &mut Tracer, p: &mut Pass) {
    fn ms(t: Instant) -> f64 {
        t.elapsed().as_secs_f64() * 1e3
    }
    for _ in 0..LAYER_PROBES {
        let t = Instant::now();
        let m_img = tr.time("x86sim.save_image", || r.k.m.save_image());
        p.samples
            .entry("x86sim.save_image_ms")
            .or_default()
            .push(ms(t));
        let t = Instant::now();
        let k_img = tr.time("minikernel.save_image", || r.k.save_image());
        p.samples
            .entry("minikernel.save_image_ms")
            .or_default()
            .push(ms(t));
        let t = Instant::now();
        let r_img = tr.time("fleet.checkpoint", || r.checkpoint());
        p.samples
            .entry("fleet.checkpoint_ms")
            .or_default()
            .push(ms(t));

        let t = Instant::now();
        let m = tr.time("x86sim.restore_image", || Machine::restore_image(&m_img));
        p.samples
            .entry("x86sim.restore_image_ms")
            .or_default()
            .push(ms(t));
        let t = Instant::now();
        let k = tr.time("minikernel.restore_image", || Kernel::restore_image(&k_img));
        p.samples
            .entry("minikernel.restore_image_ms")
            .or_default()
            .push(ms(t));
        let t = Instant::now();
        let rr = tr.time("fleet.restore", || Replica::restore(&r_img));
        p.samples.entry("fleet.restore_ms").or_default().push(ms(t));
        if m.is_err() || k.is_err() || rr.is_err() {
            p.check_failures.push("layer probe restore failed".into());
        }

        let t = Instant::now();
        let crc = tr.time("x86sim.crc32", || crc32(std::hint::black_box(&r_img)));
        std::hint::black_box(crc);
        let s = t.elapsed().as_secs_f64();
        p.samples
            .entry("x86sim.crc32_mb_per_s")
            .or_default()
            .push(r_img.len() as f64 / 1e6 / s);

        p.layer.insert("x86sim.image_bytes", m_img.len() as f64);
        p.layer.insert("minikernel.image_bytes", k_img.len() as f64);
    }
}
