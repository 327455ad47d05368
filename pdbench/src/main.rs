//! Command-line entry point:
//!
//! ```text
//! pdbench --workload <call_stream|ext_churn|checkpoint_cycle> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans under `pdbench/out/`.
//! Exits 2 on bad arguments and 1 when any outcome or check was wrong.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use pdbench::{run, Workload};

const USAGE: &str = "usage: pdbench --workload <call_stream|ext_churn|checkpoint_cycle> \
                     --seed <n> --seconds <1-600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value.parse::<u32>().map_err(bad)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn write_spans(dir: &Path, file: &str, tr: &pdbench::Tracer) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut w = BufWriter::new(fs::File::create(dir.join(file))?);
    tr.write_tsv(&mut w)?;
    w.flush()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let (report, tracers) = run(args.workload, args.seed, args.seconds, args.trace);

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for (w, tr) in &tracers {
        let file = format!("spans-{name}-seed{}-{}.tsv", args.seed, w.name());
        if let Err(e) = write_spans(&out_dir, &file, tr) {
            eprintln!("writing {file}: {e}");
            return ExitCode::from(1);
        }
    }

    println!(
        "workload {name} seed {} seconds {} trace {}: {} ops, {} failed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
