//! Command line of the lsds benchmark:
//!
//! ```text
//! lsds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then one JSON result line. Exits non-zero
//! only on bad arguments; failed engine runs are counted in the result.

use lsds_perfbench::{run, Size, Spec, WORKLOADS};

fn parse(args: &[String]) -> Result<Spec, String> {
    let mut spec = Spec {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => spec.workload = value()?.clone(),
            "--seed" => spec.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                spec.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(spec.seconds.is_finite() && spec.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                spec.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&spec.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(spec)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = parse(&args).unwrap_or_else(|e| {
        eprintln!("lsds-perfbench: {e}");
        std::process::exit(2);
    });
    let report = run(&spec).unwrap_or_else(|e| {
        eprintln!("lsds-perfbench: {e}");
        std::process::exit(2);
    });
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result_line());
    // a hung run's thread cannot be joined; ending the process stops it
    if !report.tally.abandoned {
        lsds_perfbench::harness::stop_worker();
    }
}
