//! The repository benchmark. Usage:
//!
//! ```text
//! polaris-perfbench --workload <oltp_mem|olap_scan|htap_cloud> --seed <n>
//!                   --seconds <s> --trace <0|1> [--alloc]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics, and with `--alloc` (a build with the `track-alloc`
//! feature) the allocation metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit
//! code is 1 when a correctness check failed, 2 on a usage or set-up error.

mod client;
mod common;
mod htap;
mod metrics;
mod olap;
mod oltp;
mod stats;
mod timing_store;
mod trace_drain;
mod workload;

use workload::{Report, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    alloc: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        alloc: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--alloc" => args.alloc = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    if args.alloc {
        workload::allocations(w, args.seed, args.seconds)
    } else if args.trace {
        workload::per_layer(w, args.seed, args.seconds)
    } else {
        workload::end_to_end(w, args.seed, args.seconds)
    }
}

/// The result line. Values keep every digit `{}` prints for an `f64`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "oltp_mem" => measure(&oltp::Oltp, &args),
        "olap_scan" => measure(&olap::Olap, &args),
        "htap_cloud" => measure(&htap::Htap, &args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", result_json(&report));
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
