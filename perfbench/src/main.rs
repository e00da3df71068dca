//! The pxf benchmark: one command, three workloads, every output checked.
//!
//! ```text
//! pxf-perfbench --workload <engine-nitf|engine-dup-churn|broker-nitf>
//!               --seed <n> --seconds <s> --trace <0|1> [--pxf <path>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each layer's calls and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it is the run's metadata. The exit code is 0
//! for a correct run, 1 when any output was wrong, 2 when the run could
//! not be made.
//!
//! With `--emit-inputs`, the binary instead writes the inputs of an
//! in-process workload and the oracle's match sets to standard output;
//! the engine workloads start it that way as a child process.

mod broker;
mod engine;
mod gen;
mod host;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pxf: Option<String>,
    emit_inputs: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        pxf: None,
        emit_inputs: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--pxf" => args.pxf = Some(value()?),
            "--emit-inputs" => args.emit_inputs = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    if args.emit_inputs {
        if engine::spec(&args.workload).is_none() {
            eprintln!("perfbench: {:?} has no in-process inputs", args.workload);
            return ExitCode::from(2);
        }
        return match engine::emit_inputs(&args.workload, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing the inputs: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "engine-nitf" | "engine-dup-churn" => {
            match engine::run(&args.workload, seed, seconds, trace) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", args.workload);
                    return ExitCode::from(2);
                }
            }
        }
        "broker-nitf" => {
            let Some(pxf) = args.pxf.as_deref() else {
                eprintln!("perfbench: broker-nitf needs --pxf <path to the pxf binary>");
                return ExitCode::from(2);
            };
            match broker::run(pxf, seed, seconds, trace) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: broker-nitf: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::metadata(&args.workload, seed, seconds, trace));
    if outcome.print(trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
