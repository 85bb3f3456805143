//! The indoor query server's benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path vipbench/Cargo.toml -- \
//!     --workload kiosk_repeat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run serves one workload from an in-process `NetServer` over
//! loopback to one client thread on one connection, checks every answer
//! against an in-process reference fed the same operations, and prints
//! every metric by name and unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer ledger with
//! `--trace 1`. Results, the ledger and the spans are also written under
//! `vipbench/out/`. The exit code is non-zero when any answer is wrong.

mod check;
mod e2e;
mod host;
mod ledger;
mod pin;
mod stats;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use workload::{Workload, World};

/// Where results, ledgers and spans are written, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "vipbench/out";

/// What one run measured.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the final JSON line: name, value, unit.
    metrics: Vec<(String, f64, &'static str)>,
    /// Printed and written to the result file, not part of the JSON line.
    notes: Vec<(String, f64, &'static str)>,
    /// Raw JSON values for the result file.
    extras: Vec<(&'static str, String)>,
}

impl Report {
    fn new(correct: bool, attempted: u64, failed: u64) -> Report {
        Report {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            extras: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    fn extra(&mut self, name: &'static str, json: String) {
        self.extras.push((name, json));
    }

    /// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
    fn json(&self, with_extras: bool) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        if with_extras {
            s.push_str(", \"notes\": {");
            for (i, (name, value, unit)) in self.notes.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    s,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                );
            }
            s.push('}');
            for (name, json) in &self.extras {
                let _ = write!(s, ", \"{name}\": {json}");
            }
        }
        s.push('}');
        s
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of kiosk_repeat, campus_sweep, live_restart"
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vipbench: {e}");
            std::process::exit(2);
        }
    };
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).expect("create the output directory");
    // Measure the host as it is, then confine the run to one CPU.
    let mut host = host::measure();
    host.pinned_cpu = pin::pin_to_one_cpu();
    let world = World::new(args.workload, args.seed);
    let name = args.workload.name();
    let report = if args.trace {
        ledger::run(&world, args.seconds, out, &host)
    } else {
        e2e::run(&world, args.seconds, out, &host)
    };
    for (metric, value, unit) in report.metrics.iter().chain(&report.notes) {
        println!("{name} {metric} = {value} {unit}");
    }
    for (key, json) in &report.extras {
        println!("{name} {key} = {json}");
    }
    let file = if args.trace {
        format!("{name}.trace.json")
    } else {
        format!("{name}.json")
    };
    std::fs::write(out.join(file), report.json(true) + "\n").expect("write the result file");
    println!("{}", report.json(false));
    if !report.correct {
        eprintln!("vipbench: wrong answers on {name}; see {OUT_DIR}");
        std::process::exit(1);
    }
}
