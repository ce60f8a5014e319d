//! Host-time benchmark of the SoftWalker simulator.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--heldout]
//! ```
//!
//! Runs one workload in this process, checks every output, and prints as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced run (`--trace 1`). README.md describes the workloads, the
//! metrics and the checks.

mod checks;
mod direct;
mod metrics;
mod os;
mod replay;
mod spans;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order README.md describes them.
const WORKLOADS: [&str; 4] = [
    "irregular-full",
    "regular-full",
    "paged-oversub",
    "suite-quick",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Orders the cells of each round; the same seed gives the same order.
    pub seed: u64,
    /// How long the measured rounds run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Use held-out benchmarks of the same class (see README.md).
    pub heldout: bool,
    /// Simulate only this cell of a direct workload and print its result
    /// line: the child-process mode of untraced runs.
    pub cell: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut heldout, mut cell) =
        (None, None, None, None, false, None);
    while let Some(flag) = it.next() {
        if flag == "--heldout" {
            heldout = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--cell" => cell = Some(value.parse::<usize>().map_err(|e| format!("--cell: {e}"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        heldout,
        cell,
    })
}

/// Where runs keep cache directories and span files: `hostbench/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64: the seeded order of each round's cells.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(i) = args.cell {
        if args.workload == "suite-quick" || args.trace {
            eprintln!("hostbench: --cell runs one cell of an untraced direct workload");
            return ExitCode::from(2);
        }
        return direct::child(&args, i);
    }
    let outcome = if args.workload == "suite-quick" {
        suite::run(&args)
    } else {
        direct::run(&args)
    };
    for e in &outcome.errors {
        eprintln!("hostbench: check failed: {e}");
    }
    let names = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}", metrics::result_line(&outcome, names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload paged-oversub --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "paged-oversub");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.heldout),
            (7, 10.0, true, false)
        );
        assert!(
            args("--workload suite-quick --seed 1 --seconds 5 --trace 0 --heldout")
                .unwrap()
                .heldout
        );
        let child = args("--workload regular-full --seed 1 --seconds 5 --trace 0 --cell 3");
        assert_eq!(child.unwrap().cell, Some(3));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload suite-quick --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload suite-quick --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload suite-quick --seconds 1 --trace 0").is_err());
        assert!(args("--workload suite-quick --seed 1 --seconds 1 --trace").is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        SplitMix::new(5).shuffle(&mut a);
        SplitMix::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
