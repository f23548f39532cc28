//! Benchmark of the `fleetd` daemon at its shipped defaults.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|chatty|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints one line per metric, then, as the
//! last line of standard output, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the traced run
//! (`--trace 1`). A failed output check exits with code 1 and names the
//! check; bad arguments exit with code 2. See `perfbench/README.md`.

mod harness;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use workload::Workload;

/// Where runs keep their working files and span files, relative to the
/// repository root.
const BENCH_DIR: &str = "perfbench";

const USAGE: &str =
    "usage: perfbench --workload bulk|chatty|recover --seed N --seconds S --trace 0|1";

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// What it was measured over (printed, not part of the JSON).
    pub note: String,
}

impl Metric {
    /// A metric.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Self { name, value, unit, note: note.into() }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_lines(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} = {} {} ({})", workload.name(), m.name, m.value, m.unit, m.note);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench = Path::new(BENCH_DIR);
    if !bench.is_dir() {
        eprintln!("perfbench: run from the repository root (no {BENCH_DIR}/ here)");
        return ExitCode::from(2);
    }
    let spans_path = args.trace.then(|| {
        let out = bench.join("out");
        let _ = std::fs::create_dir_all(&out);
        out.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed))
    });
    let outcome = harness::run(
        args.workload,
        args.workload.shape(),
        args.seed,
        args.seconds,
        spans_path.as_deref(),
        &bench.join("work"),
    );
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    print_lines(args.workload, &outcome.end_to_end);
    print_lines(args.workload, &outcome.printed);
    print_lines(args.workload, &outcome.per_layer);
    let reported = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    if let Some(m) = reported.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {}: {} is not finite", args.workload.name(), m.name);
        return ExitCode::from(1);
    }
    if let Some(path) = &spans_path {
        println!("{} spans written to {}", args.workload.name(), path.display());
    }
    println!("{}", result_json(outcome.attempted, outcome.failed, reported));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let args =
            parse_args(strings("--workload chatty --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args, Args { workload: Workload::Chatty, seed: 7, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload bulk --seconds 1",
            "--workload bulk --seed 1 --seconds 0",
            "--workload bulk --seed 1 --seconds 1 --trace 2",
            "--workload bulk --seed 1 --seconds 1 --frob 3",
            "--workload",
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(3, 1, &[Metric::new("x_s", 0.25, "s", "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"x_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
