//! One measuring run of one workload: set-up, a checked warm-up pass,
//! then checked timed passes for the requested time. With tracing off it
//! reports the end-to-end metrics; with tracing on it alternates an
//! untraced pass, a traced pass and a layer replay, and reports the
//! per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::reference::{normalize, Reference};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{self, Input, Outcome, PassOutput, Scale, Workload, WARM_PASSES_PER_UNIT};

/// Timed set-up units per run: one after each of the first
/// [`SETUP_MIN_UNITS`] timed units, then one after a timed unit whenever
/// the set-up units have used less than [`SETUP_SHARE`] of the measuring
/// window so far.
const SETUP_MIN_UNITS: usize = 3;
const SETUP_SHARE: f64 = 0.2;
/// A set-up unit repeats the set-up until it has lasted this long:
/// expanding the hunt takes a fraction of a millisecond, too short to
/// time steadily on its own.
const SETUP_UNIT_S: f64 = 0.05;
/// Fewest timed passes (or traced cycles) a run makes, however long they
/// take.
const MIN_PASSES: usize = 3;

pub struct Options {
    pub workload: Workload,
    /// The `--seed` offset from the workload's default program seed.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for stores; removed when the run ends.
    pub work_dir: PathBuf,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    /// Traced runs: the self-time table and the raw spans.
    pub table: Option<String>,
    pub spans_tsv: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("gatherbench: failed operation: {e}");
            self.first_error.get_or_insert(e);
        }
    }
}

/// Runs the workload. `tamper` sees every pass output before it is
/// checked; the measuring binary passes a no-op, the output check's own
/// tests corrupt a report through it.
pub fn run(opts: &Options, tamper: &mut dyn FnMut(&mut PassOutput)) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    if pinned(opts) {
        eprintln!("gatherbench: every report is checked against the pinned digest");
    }
    let result = if opts.trace {
        run_traced(opts, tamper)
    } else {
        run_untraced(opts, tamper)
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    result
}

fn program_seed(opts: &Options) -> u64 {
    opts.workload.default_seed().wrapping_add(opts.seed)
}

fn setup(opts: &Options, dir: &str, tracer: &mut Tracer) -> Result<Input, String> {
    workload::setup(
        opts.workload,
        opts.scale,
        program_seed(opts),
        &opts.work_dir.join(dir),
        tracer,
    )
}

/// Times one set-up unit: set-ups, each dropping the input it made,
/// repeated until the unit has lasted [`SETUP_UNIT_S`]. Returns the
/// unit's seconds and the seconds per set-up.
fn setup_unit(opts: &Options) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let mut count = 0u32;
    loop {
        drop(setup(opts, "setup", &mut Tracer::off())?);
        count += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_UNIT_S {
            return Ok((elapsed, elapsed / f64::from(count)));
        }
    }
}

fn passes_per_unit(workload: Workload) -> usize {
    match workload {
        Workload::CampaignWarm => WARM_PASSES_PER_UNIT,
        _ => 1,
    }
}

/// Times one unit: a pass, or [`WARM_PASSES_PER_UNIT`] warm passes.
/// Returns the seconds per pass and the outputs.
fn timed_unit(opts: &Options, input: &Input) -> (f64, Vec<Result<PassOutput, String>>) {
    let passes = passes_per_unit(opts.workload);
    let mut outputs = Vec::with_capacity(passes);
    let start = Instant::now();
    for _ in 0..passes {
        outputs.push(workload::pass(input));
    }
    (start.elapsed().as_secs_f64() / passes as f64, outputs)
}

fn check_all(
    opts: &Options,
    input: &Input,
    outputs: Vec<Result<PassOutput, String>>,
    first: &str,
    tally: &mut Tally,
    tamper: &mut dyn FnMut(&mut PassOutput),
) {
    for out in outputs {
        tally.record(out.and_then(|mut out| {
            tamper(&mut out);
            workload::check(opts.workload, input, &out, first, pinned(opts))
        }));
    }
}

/// Whether the pinned report digest applies: full input at `--seed 0`.
fn pinned(opts: &Options) -> bool {
    opts.scale == Scale::Full && opts.seed == 0
}

/// The warm-up pass: checked, and its report is the reference every
/// later pass must reproduce.
fn warm_up(
    opts: &Options,
    input: &Input,
    tally: &mut Tally,
    tamper: &mut dyn FnMut(&mut PassOutput),
) -> Result<(String, u64), String> {
    let mut out = workload::pass(input)?;
    let first = out.report.clone();
    let work = out.work();
    tamper(&mut out);
    tally.record(workload::check(
        opts.workload,
        input,
        &out,
        &first,
        pinned(opts),
    ));
    Ok((first, work))
}

fn run_untraced(
    opts: &Options,
    tamper: &mut dyn FnMut(&mut PassOutput),
) -> Result<RunResult, String> {
    let input = setup(opts, "store", &mut Tracer::off())?;
    let mut tally = Tally::default();
    let (first, work) = warm_up(opts, &input, &mut tally, tamper)?;
    // Each time is normalized by the mean of the references taken just
    // before and just after it.
    let mut reference = Reference::default();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut before = reference.time();
    let mut references = vec![before];
    let (mut raw, mut times) = (Vec::new(), Vec::new());
    let (mut raw_setups, mut setups) = (Vec::new(), Vec::new());
    let mut setup_units_s = 0.0;
    while times.len() < MIN_PASSES || start.elapsed() < deadline {
        let (seconds, outputs) = timed_unit(opts, &input);
        let setup_timing = (setups.len() < SETUP_MIN_UNITS
            || setup_units_s < SETUP_SHARE * start.elapsed().as_secs_f64())
        .then(|| setup_unit(opts))
        .transpose()?;
        let after = reference.time();
        references.push(after);
        let bracket = (before + after) / 2.0;
        before = after;
        raw.push(seconds);
        times.push(normalize(seconds, bracket));
        check_all(opts, &input, outputs, &first, &mut tally, tamper);
        if let Some((unit_s, seconds)) = setup_timing {
            raw_setups.push(seconds);
            setups.push(normalize(seconds, bracket));
            setup_units_s += unit_s;
        }
    }
    eprintln!(
        "gatherbench: {} timed units of {} pass(es), raw: {}",
        raw.len(),
        passes_per_unit(opts.workload),
        spread_summary(&raw)
    );
    eprintln!(
        "gatherbench: reference, raw: {}",
        spread_summary(&references)
    );
    eprintln!(
        "gatherbench: {} set-up units, per set-up, raw: {}",
        raw_setups.len(),
        spread_summary(&raw_setups)
    );
    eprintln!("gatherbench: peak RSS {:.1} MB", peak_rss_mb());
    let wall_s = median(&times);
    let values = [wall_s, work as f64 / wall_s, median(&setups)];
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END.iter().copied().zip(values).collect(),
        table: None,
        spans_tsv: None,
    })
}

/// Order statistics of a run's times, for the stderr summary.
fn spread_summary(times: &[f64]) -> String {
    let q = |p: f64| percentile(times, p);
    format!(
        "min {:.6} p10 {:.6} p25 {:.6} median {:.6} max {:.6} s",
        q(0.0),
        q(0.1),
        q(0.25),
        q(0.5),
        q(1.0)
    )
}

/// The process's peak resident set (VmHWM) in MiB, or NaN where
/// `/proc` does not provide it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

fn run_traced(
    opts: &Options,
    tamper: &mut dyn FnMut(&mut PassOutput),
) -> Result<RunResult, String> {
    let mut tracer = Tracer::default();
    let input = setup(opts, "store", &mut tracer)?;
    // `lab.campaign.expand_s` is the median over these set-ups.
    for _ in 1..SETUP_MIN_UNITS {
        drop(setup(opts, "setup", &mut tracer)?);
    }
    let log_bytes = workload::replay_inserts(&input, &opts.work_dir.join("insert"), &mut tracer)?;
    let mut tally = Tally::default();
    let (first, _) = warm_up(opts, &input, &mut tally, tamper)?;
    let rss = peak_rss_mb();
    let mut reference = Reference::default();
    let mut references = Vec::new();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut cycles: Vec<Vec<f64>> = Vec::new();
    let mut cycle = 0u32;
    while (cycle as usize) < MIN_PASSES || start.elapsed() < deadline {
        cycle += 1;
        let before = reference.time();
        let (seconds, outputs) = timed_unit(opts, &input);
        check_all(opts, &input, outputs, &first, &mut tally, tamper);

        tracer.set_pass(cycle);
        let mut out = match workload::traced_pass(&input, &mut tracer) {
            Ok(out) => out,
            Err(e) => {
                tally.record(Err(e));
                continue;
            }
        };
        let after = reference.time();
        references.extend([before, after]);
        let bracket = (before + after) / 2.0;
        untraced.push(normalize(seconds, bracket));
        traced.push(normalize(
            spans::total(tracer.spans(), cycle, "pass"),
            bracket,
        ));
        tamper(&mut out);
        tally.record(workload::check(
            opts.workload,
            &input,
            &out,
            &first,
            pinned(opts),
        ));
        tally.record(workload::replay(&input, &out, &mut tracer));
        cycles.push(layer_values(opts.workload, tracer.spans(), cycle, &out));
    }
    if cycles.is_empty() {
        return Err(tally.first_error.unwrap_or_else(|| "no traced pass".into()));
    }
    let spans = tracer.spans();
    let overhead = median(&traced) - median(&untraced);
    let expand = median(&spans::durations(spans, 0, "lab.campaign.expand"));
    let insert = spans::total(spans, 0, "lab.store.insert");
    let metrics = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let value = match m.name {
                "trace.overhead_s" => overhead,
                "lab.campaign.expand_s" => expand,
                "lab.store.insert_s" => insert,
                "lab.store.log_bytes" => log_bytes as f64,
                "process.peak_rss_mb" => rss,
                "host.reference_ms" => median(&references) * 1e3,
                _ => median(&cycles.iter().map(|c| c[i]).collect::<Vec<_>>()),
            };
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            (*m, value + 0.0)
        })
        .collect();
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        table: Some(spans::table(spans)),
        spans_tsv: Some(spans::to_tsv(spans)),
    })
}

/// One traced cycle's value of every per-layer metric, in [`PER_LAYER`]
/// order. Metrics taken from the set-up are filled in by the caller.
fn layer_values(
    workload: Workload,
    spans: &[spans::Span],
    cycle: u32,
    out: &PassOutput,
) -> Vec<f64> {
    let total = |name: &str| spans::total(spans, cycle, name);
    let solo = spans::durations(spans, cycle, "core.harness.solo");
    let solo_s: f64 = solo.iter().sum();
    let batch_s = total("core.harness.batch");
    let cell = |q: f64| {
        if solo.is_empty() {
            0.0
        } else {
            percentile(&solo, q) * 1e3
        }
    };
    // Engine counters describe executed work: a warm pass executes none.
    let records = if workload == Workload::CampaignWarm {
        Vec::new()
    } else {
        out.records()
    };
    let sum =
        |f: fn(&nochatter_lab::RunRecord) -> u64| records.iter().map(|r| f(r)).sum::<u64>() as f64;
    let executed = sum(|r| r.rounds.saturating_sub(r.skipped_rounds));
    let polls = sum(|r| r.polled_agent_rounds);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = match &out.outcome {
        Outcome::Campaign(r) => r
            .cache
            .map_or((0.0, 0.0), |c| (c.hits as f64, c.misses as f64)),
        Outcome::Search(_) => (0.0, 0.0),
    };
    let search = match &out.outcome {
        Outcome::Search(r) => Some(r),
        Outcome::Campaign(_) => None,
    };
    let search_value = |f: fn(&nochatter_lab::SearchReport) -> f64| search.map_or(0.0, f);
    PER_LAYER
        .iter()
        .map(|m| match m.name {
            "core.setup.certify_s" => total("core.setup"),
            "core.setup.instances" => spans::durations(spans, cycle, "core.setup").len() as f64,
            "core.harness.batch_s" => batch_s,
            "core.harness.solo_s" => solo_s,
            "core.harness.cell_p50_ms" => cell(0.5),
            "core.harness.cell_p98_ms" => cell(0.98),
            "sim.engine.executed_rounds" => executed,
            "sim.engine.iterations" => sum(|r| r.engine_iterations),
            "sim.engine.polls" => polls,
            "sim.engine.skipped_rounds" => sum(|r| r.skipped_rounds),
            "sim.engine.moves" => sum(|r| r.moves),
            "sim.engine.blocked_moves" => sum(|r| r.blocked_moves),
            "sim.engine.polls_per_executed_round" => ratio(polls, executed),
            "sim.engine.ns_per_poll" => ratio(solo_s * 1e9, polls),
            "lab.record.self_s" => total("lab.record") - solo_s,
            "lab.runner.self_s" if total("lab.runner") > 0.0 => total("lab.runner") - batch_s,
            "lab.store.open_s" => total("lab.store.open"),
            "lab.store.lookup_s" => total("lab.store.lookup"),
            "lab.store.fingerprint_s" => total("lab.store.fingerprint"),
            "lab.store.hits" => hits,
            "lab.store.misses" => misses,
            "lab.report.json_s" => total("lab.report.json"),
            "lab.report.csv_s" => total("lab.report.csv"),
            "lab.report.bytes" => out.report.len() as f64,
            "lab.search.evaluations" => search_value(|r| r.total_evaluations() as f64),
            "lab.search.forked_evals" => search_value(|r| r.total_forked_evals() as f64),
            "lab.search.fork_ratio" => search_value(|r| {
                r.total_forked_evals() as f64 / r.total_evaluations().max(1) as f64
            }),
            "lab.search.ladder_rounds" => search_value(|r| r.total_ladder_rounds() as f64),
            "lab.search.rounds_saved" => search_value(|r| r.total_rounds_saved() as f64),
            "lab.search.executed_rounds_per_eval" => {
                search_value(|r| r.executed_rounds_per_evaluation().unwrap_or(0.0))
            }
            "lab.search.unforked_wall_s" => total("lab.search.unforked"),
            // A runner the pass bypassed; or filled by the caller from the
            // set-up or across cycles.
            _ => 0.0,
        })
        .collect()
}

/// Where the benchmark keeps files: under the build directory Cargo was
/// told to use, else the benchmark's own `target`.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("gatherbench")
}

/// A run's scratch directory, private to its process.
pub fn work_dir(workload: Workload) -> PathBuf {
    output_dir().join(format!("work-{}-{}", workload.name(), std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    fn options(workload: Workload, trace: bool, tag: &str) -> Options {
        Options {
            workload,
            seed: 3,
            seconds: 0.01,
            trace,
            scale: Scale::Tiny,
            work_dir: output_dir().join(format!(
                "test-{tag}-{}-{}-{}",
                workload.name(),
                u8::from(trace),
                std::process::id()
            )),
        }
    }

    fn names(result: &RunResult) -> Vec<&str> {
        result.metrics.iter().map(|(m, _)| m.name).collect()
    }

    #[test]
    fn tiny_runs_pass_every_check_and_report_every_metric() {
        for workload in ALL {
            let plain = run(&options(workload, false, "plain"), &mut |_| {}).unwrap();
            assert!(plain.correct(), "{}", workload.name());
            assert!(plain.attempted > MIN_PASSES as u64);
            let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names(&plain), e2e);
            assert!(plain.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));

            let traced = run(&options(workload, true, "traced"), &mut |_| {}).unwrap();
            assert!(traced.correct(), "{}", workload.name());
            let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names(&traced), layers);
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .unwrap()
                    .1
            };
            match workload {
                Workload::Hunt => assert!(value("lab.search.evaluations") > 0.0),
                Workload::CampaignWarm => {
                    assert!(value("lab.store.hits") > 0.0);
                    assert!(value("lab.store.log_bytes") > 0.0);
                    assert_eq!(value("sim.engine.polls"), 0.0);
                }
                _ => {
                    assert!(value("core.harness.batch_s") > 0.0);
                    assert!(value("sim.engine.polls") > 0.0);
                }
            }
            assert!(traced.table.as_deref().unwrap().contains("replay"));
            assert!(!options(workload, true, "traced").work_dir.exists());
        }
    }

    #[test]
    fn a_corrupted_report_is_a_failed_pass() {
        for workload in ALL {
            let mut seen = 0;
            let result = run(&options(workload, false, "corrupt"), &mut |out| {
                seen += 1;
                if seen == 2 {
                    out.report.replace_range(0..1, "#");
                }
            })
            .unwrap();
            assert_eq!(result.failed, 1, "{}", workload.name());
            assert!(!result.correct());
            assert!(result.attempted > 1);
        }
    }

    #[test]
    fn a_report_off_its_pinned_digest_is_a_failed_pass() {
        for workload in ALL {
            let opts = options(workload, false, "pinned");
            std::fs::create_dir_all(&opts.work_dir).unwrap();
            let input = setup(&opts, "store", &mut Tracer::off()).unwrap();
            let out = workload::pass(&input).unwrap();
            // A tiny report is not the full-size one the digest pins.
            let mut tally = Tally::default();
            tally.record(workload::check(workload, &input, &out, &out.report, false));
            tally.record(workload::check(workload, &input, &out, &out.report, true));
            assert_eq!(
                (tally.attempted, tally.failed),
                (2, 1),
                "{}",
                workload.name()
            );
            assert!(tally.first_error.unwrap().contains("pinned"));
            std::fs::remove_dir_all(&opts.work_dir).unwrap();
        }
    }

    #[test]
    fn a_panicked_record_is_a_failed_pass() {
        for workload in ALL {
            let mut seen = 0;
            let result = run(&options(workload, true, "panic"), &mut |out| {
                seen += 1;
                if seen == 1 {
                    let status = match &mut out.outcome {
                        Outcome::Campaign(r) => &mut r.records[0].status,
                        Outcome::Search(r) => &mut r.outcomes[0].record.status,
                    };
                    *status = "panic: injected".into();
                }
            })
            .unwrap();
            assert_eq!(result.failed, 1, "{}", workload.name());
        }
    }
}
