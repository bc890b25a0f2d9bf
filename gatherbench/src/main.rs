//! `gatherbench`: the nochatter benchmark.
//!
//! ```text
//! gatherbench --workload W --seed N --seconds S --trace 0|1
//! gatherbench steady [--save FILE] [--against FILE]
//! ```
//!
//! A measuring run prints a summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: end-to-end with `--trace 0`, per layer with `--trace 1`.
//! Every workload runs on one thread (`workers = 1`).

mod measure;
mod metrics;
mod reference;
mod spans;
mod stats;
mod steady;
mod workload;

use std::process::ExitCode;

use measure::Options;
use steady::SteadyOptions;
use workload::{Scale, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("steady") {
        parse_steady(&args[1..]).and_then(|opts| steady::run(&opts))
    } else {
        parse_measure(&args).and_then(|opts| measure_and_print(&opts).map(|()| true))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gatherbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Pairs `--flag value` arguments.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("expected --flag value pairs, got {args:?}"));
    }
    args.chunks(2)
        .map(|pair| match pair[0].strip_prefix("--") {
            Some(flag) => Ok((flag, pair[1].as_str())),
            None => Err(format!("expected a --flag, got {}", pair[0])),
        })
        .collect()
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag}: cannot read {value:?}"))
}

fn seconds(value: &str) -> Result<f64, String> {
    let s: f64 = number("seconds", value)?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be positive, got {value}"))
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

fn parse_measure(args: &[String]) -> Result<Options, String> {
    let (mut w, mut seed, mut secs, mut trace) = (None, 0, 10.0, false);
    for (flag, value) in flags(args)? {
        match flag {
            "workload" => w = Some(workload(value)?),
            "seed" => seed = number(flag, value)?,
            "seconds" => secs = seconds(value)?,
            "trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    let workload = w.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds: secs,
        trace,
        scale: Scale::Full,
        work_dir: measure::work_dir(workload),
    })
}

fn parse_steady(args: &[String]) -> Result<SteadyOptions, String> {
    let mut opts = SteadyOptions {
        save: None,
        against: None,
    };
    for (flag, value) in flags(args)? {
        match flag {
            "save" => opts.save = Some(value.to_string()),
            "against" => opts.against = Some(value.to_string()),
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    Ok(opts)
}

fn measure_and_print(opts: &Options) -> Result<(), String> {
    let w = opts.workload;
    eprintln!(
        "gatherbench: {} at program seed {} (--seed {}), {} s, trace {}, 1 worker",
        w.name(),
        w.default_seed().wrapping_add(opts.seed),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let result = measure::run(opts, &mut |_| {})?;
    if let Some(table) = &result.table {
        eprint!("{table}");
    }
    if let Some(tsv) = &result.spans_tsv {
        let path = measure::output_dir().join(format!("spans-{}.tsv", w.name()));
        match std::fs::write(&path, tsv) {
            Ok(()) => eprintln!("gatherbench: spans written to {}", path.display()),
            Err(e) => eprintln!("gatherbench: cannot write {}: {e}", path.display()),
        }
    }
    for (m, v) in &result.metrics {
        eprintln!("  {:<40} {v:>16.6} {}", m.name, m.unit);
    }
    if !opts.trace {
        eprintln!("  (throughput counts {} per second)", w.work_unit());
    }
    println!(
        "{}",
        metrics::result_line(
            result.correct(),
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(())
}
