//! Command line of the preservation benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <accession|tenant_mix|custody|perganet> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Lines before the last describe the run
//! (thread count, input digest, workload-specific numbers); the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use itrust_perfbench::{
    end_to_end_metrics, layer_metrics, result_json, run_workload, RunOpts, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    itrust_perfbench::measure::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&workload, &opts).expect("workload name was checked");
    let threads = itrust_par::current_threads();
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    println!("threads {threads}");
    println!("input_digest {}", outcome.input_digest);
    println!(
        "detail failed_ratio {:?} ratio",
        outcome.tally.failed_ratio()
    );
    for m in &outcome.details {
        match m.samples {
            Some(n) => println!("detail {} {:?} {} n={n}", m.name, m.value, m.unit),
            None => println!("detail {} {:?} {}", m.name, m.value, m.unit),
        }
    }
    for p in &outcome.tally.problems {
        println!("problem {p}");
    }
    let metrics = if opts.trace {
        if let Some(t) = &outcome.tracer {
            let path = opts.out_dir.join(format!("{workload}.spans.jsonl"));
            match t.write_jsonl(&path) {
                Ok(()) => println!("spans {}", path.display()),
                Err(e) => println!("problem writing {}: {e}", path.display()),
            }
        }
        layer_metrics(&outcome)
    } else {
        end_to_end_metrics(&outcome)
    };
    for m in &metrics {
        println!("metric {} {:?} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome.tally, &metrics));
    ExitCode::SUCCESS
}
