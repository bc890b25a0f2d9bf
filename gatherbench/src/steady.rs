//! Steadiness report: runs every workload [`RUNS`] times, each run a
//! process of its own on another seed (1, 2, ..) measuring for
//! [`SECONDS`] as `BENCHMARK.json`'s `run_seconds`, and prints every end-to-end metric's
//! median, quartiles and spread next to its bound. Saved values let a
//! later run compare its medians against an earlier one (a parent and a
//! change) by the same bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::metrics::{parse_result, Metric, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workload::ALL;

/// Runs per workload, as many as the benchmark's acceptance takes.
const RUNS: u64 = 10;
/// Seconds each run measures: `BENCHMARK.json`'s `run_seconds`.
pub const SECONDS: u64 = 25;

pub struct SteadyOptions {
    pub save: Option<String>,
    pub against: Option<String>,
}

/// Values per (workload, metric), in run order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn run(opts: &SteadyOptions) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut samples = Samples::new();
    let mut all_correct = true;
    for workload in ALL {
        for seed in 1..=RUNS {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &SECONDS.to_string()])
                .args(["--trace", "0"])
                .stdin(Stdio::null())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout
                .lines()
                .last()
                .and_then(|line| parse_result(line, END_TO_END))
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "{} seed {seed} gave no result:\n{}",
                        workload.name(),
                        String::from_utf8_lossy(&out.stderr)
                    )
                })?;
            all_correct &= parsed.correct;
            eprintln!(
                "{} seed {seed}: correct={} attempted={} failed={}",
                workload.name(),
                parsed.correct,
                parsed.attempted,
                parsed.failed
            );
            for (name, value) in parsed.values {
                samples
                    .entry((workload.name().to_string(), name))
                    .or_default()
                    .push(value);
            }
        }
    }
    print!("{}", spread_table(&samples));
    if let Some(path) = &opts.save {
        std::fs::write(path, to_tsv(&samples)).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mut within = true;
    if let Some(path) = &opts.against {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (table, ok) = compare(&from_tsv(&text)?, &samples);
        print!("{table}");
        within = ok;
    }
    Ok(all_correct && within)
}

fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One row per (workload, metric): median, quartiles, spread and bound.
/// A spread within a third of the bound is `steady`.
pub fn spread_table(samples: &Samples) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), values) in samples {
        let Some(m) = metric(name) else { continue };
        let bound = m.bound.unwrap_or(0.0);
        let (q1, q3) = quartiles(values);
        let s = spread(values);
        let verdict = if s <= bound / 3.0 {
            "steady"
        } else if s <= bound {
            "within bound"
        } else {
            "TOO NOISY"
        };
        let _ = writeln!(
            out,
            "{workload:<14} {name:<12} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>6}  {verdict}",
            values.len(),
            median(values),
            q1,
            q3,
            s,
            bound
        );
    }
    out
}

/// How much worse `new` is than `old`, as a share of `old`, given which
/// direction is better.
pub fn worsening(m: &Metric, old: f64, new: f64) -> f64 {
    if m.better == "higher" {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// Compares medians of `new` against `old`: each must not be worse by
/// more than its metric's bound.
pub fn compare(old: &Samples, new: &Samples) -> (String, bool) {
    let mut ok = true;
    let mut out = format!(
        "{:<14} {:<12} {:>12} {:>12} {:>9} {:>6}  verdict\n",
        "workload", "metric", "old median", "new median", "worse by", "bound"
    );
    for (key, values) in new {
        let (Some(m), Some(before)) = (metric(&key.1), old.get(key)) else {
            continue;
        };
        let (a, b) = (median(before), median(values));
        let worse = worsening(m, a, b);
        let bound = m.bound.unwrap_or(0.0);
        let pass = worse <= bound;
        ok &= pass;
        let _ = writeln!(
            out,
            "{:<14} {:<12} {a:>12.6} {b:>12.6} {worse:>9.4} {bound:>6}  {}",
            key.0,
            key.1,
            if pass { "ok" } else { "WORSE" }
        );
    }
    (out, ok)
}

fn to_tsv(samples: &Samples) -> String {
    let mut out = String::new();
    for ((workload, name), values) in samples {
        for v in values {
            let _ = writeln!(out, "{workload}\t{name}\t{v}");
        }
    }
    out
}

fn from_tsv(text: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = line.split('\t');
        let (Some(w), Some(n), Some(v), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("bad saved line: {line}"));
        };
        let v: f64 = v.parse().map_err(|_| format!("bad value in: {line}"))?;
        samples.entry((w.into(), n.into())).or_default().push(v);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        s.insert(("hunt".into(), "wall_s".into()), values.to_vec());
        s
    }

    #[test]
    fn table_judges_spread_against_bound() {
        let steady = spread_table(&samples(&[1.0, 1.01, 0.99, 1.0, 1.02]));
        assert!(steady.contains("steady"), "{steady}");
        let noisy = spread_table(&samples(&[1.0, 2.0, 0.5, 1.5, 3.0]));
        assert!(noisy.contains("TOO NOISY"), "{noisy}");
        let mut setup = Samples::new();
        setup.insert(("hunt".into(), "setup_s".into()), vec![1.0, 2.0, 0.5, 1.5]);
        assert!(spread_table(&setup).contains("TOO NOISY"));
    }

    #[test]
    fn compare_respects_direction_and_bound() {
        let wall = metric("wall_s").unwrap();
        let rate = metric("throughput").unwrap();
        assert!((worsening(wall, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(rate, 100.0, 120.0) < 0.0);
        let (_, ok) = compare(&samples(&[1.0, 1.0, 1.0]), &samples(&[1.05, 1.05, 1.05]));
        assert!(ok);
        let (table, ok) = compare(&samples(&[1.0, 1.0, 1.0]), &samples(&[2.0, 2.0, 2.0]));
        assert!(!ok && table.contains("WORSE"));
    }

    #[test]
    fn saved_samples_round_trip() {
        let s = samples(&[0.25, 0.125]);
        assert_eq!(from_tsv(&to_tsv(&s)).unwrap(), s);
        assert!(from_tsv("hunt\twall_s").is_err());
    }
}
