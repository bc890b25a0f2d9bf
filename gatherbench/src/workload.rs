//! The four workloads: how each one's input is generated from a seed,
//! what one pass runs, how a pass's output is checked, and the traced
//! variants that split a pass over the layers it crosses.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use nochatter_core::harness::{
    run_scenario_batch_with_scratch, run_scenario_with_scratch, GatherScenario,
};
use nochatter_core::{CommMode, KnownSetup};
use nochatter_graph::dynamic::{DynamicRing, TopologySpec};
use nochatter_graph::generators::Family;
use nochatter_lab::{
    execute_scenario_with_scratch, presets, run_campaign, run_campaign_cached, run_search_with,
    scenario_fingerprint, Campaign, CampaignReport, Matrix, Objective, RunRecord, Scenario,
    ScenarioKind, SearchReport, SearchSpec, Store,
};
use nochatter_sim::{EngineScratch, WakeSchedule};

use crate::spans::Tracer;

/// Event-trace capacity the campaign runner gives every gathering run
/// (its trace digest is part of each record), mirrored by the replays so
/// they execute exactly the runner's work.
const TRACE_CAPACITY: usize = 1 << 16;

/// Warm passes per timed unit: one warm pass lasts a few milliseconds,
/// too short to time steadily on its own.
pub const WARM_PASSES_PER_UNIT: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CampaignCold,
    Hunt,
    Crowd,
    CampaignWarm,
}

pub const ALL: [Workload; 4] = [
    Workload::CampaignCold,
    Workload::Hunt,
    Workload::Crowd,
    Workload::CampaignWarm,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign-cold",
            Workload::Hunt => "hunt",
            Workload::Crowd => "crowd",
            Workload::CampaignWarm => "campaign-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The program seed `--seed 0` stands for; `--seed s` runs at this
    /// seed plus `s`.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Hunt => presets::HUNT_SEED,
            _ => presets::DEMO_SEED,
        }
    }

    /// FNV-1a digest of the full-size report (JSON followed by CSV) at
    /// `--seed 0`.
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::CampaignCold | Workload::CampaignWarm => 0x950d_db90_9f17_5242,
            Workload::Hunt => 0xfef7_932d_f446_91a3,
            Workload::Crowd => 0x58ac_8e64_e374_4150,
        }
    }

    /// What one unit of `throughput` counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Hunt => "evaluations",
            _ => "cells",
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` runs the
/// same code paths on a few cells, for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// A workload's generated input, ready for passes.
pub enum Input {
    Campaign(Campaign),
    Search(SearchSpec),
    /// The campaign plus a store directory filled with its records, and
    /// the report of the cold run that filled it.
    Warm {
        campaign: Campaign,
        dir: PathBuf,
        cold_report: String,
    },
}

/// What a pass produced.
pub enum Outcome {
    Campaign(CampaignReport),
    Search(SearchReport),
}

pub struct PassOutput {
    pub outcome: Outcome,
    /// The deterministic report: JSON followed by CSV.
    pub report: String,
}

impl PassOutput {
    pub fn records(&self) -> Vec<&RunRecord> {
        match &self.outcome {
            Outcome::Campaign(r) => r.records.iter().collect(),
            Outcome::Search(r) => r.outcomes.iter().map(|o| &o.record).collect(),
        }
    }

    /// Units of work the pass completed (cells or evaluations).
    pub fn work(&self) -> u64 {
        match &self.outcome {
            Outcome::Campaign(r) => r.records.len() as u64,
            Outcome::Search(r) => r.total_evaluations(),
        }
    }
}

/// Seeded repetitions of every cell. One repetition's cost swings with
/// the seed (graphs, exploration sequences, search paths); four average
/// that out so runs at different seeds measure comparable work.
const REPS: u64 = 4;

fn campaign_matrix(workload: Workload, scale: Scale) -> Matrix {
    match (workload, scale) {
        (Workload::Crowd, Scale::Full) => crowd_matrix(vec![40, 48, 56, 64], 2..=33, REPS),
        (Workload::Crowd, Scale::Tiny) => crowd_matrix(vec![8], 2..=5, 1),
        (Workload::Hunt, Scale::Full) => Matrix {
            families: vec![Family::Ring],
            sizes: vec![4, 5, 6, 8],
            teams: vec![vec![2, 3], vec![3, 5, 9]],
            reps: REPS,
            ..Matrix::new()
        },
        (Workload::Hunt, Scale::Tiny) => Matrix {
            families: vec![Family::Ring],
            sizes: vec![4],
            teams: vec![vec![2, 3]],
            ..Matrix::new()
        },
        (_, Scale::Full) => Matrix {
            reps: REPS,
            ..presets::demo_matrix(false)
        },
        (_, Scale::Tiny) => Matrix {
            families: vec![Family::Ring, Family::Path],
            sizes: vec![4],
            teams: vec![vec![2, 3]],
            topologies: vec![
                TopologySpec::Static,
                TopologySpec::Ring(DynamicRing { seed: 7 }),
            ],
            modes: vec![CommMode::Silent, CommMode::Talking],
            ..Matrix::new()
        },
    }
}

/// One large team gathering silently on rings with seeded port
/// numberings: per-agent engine costs dominate. Rings, because on grids
/// and random graphs one cell's cost varies threefold with the seed.
fn crowd_matrix(sizes: Vec<u32>, labels: std::ops::RangeInclusive<u64>, reps: u64) -> Matrix {
    Matrix {
        families: vec![Family::Ring],
        sizes,
        teams: vec![labels.collect()],
        schedules: vec![
            WakeSchedule::Simultaneous,
            WakeSchedule::Staggered { gap: 3 },
        ],
        shuffled_ports: true,
        reps,
        ..Matrix::new()
    }
}

/// The hunt's search budget per instance, as in the `hunt` preset.
fn hunt_budget(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 64,
        Scale::Tiny => 6,
    }
}

/// Campaign names as the CLI's `campaign` and `hunt` commands use them:
/// at `--seed 0` the repetition-0 cells of the demo and hunt workloads
/// are exactly those commands' cells.
fn campaign_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Crowd => "crowd",
        Workload::Hunt => "hunt",
        _ => "demo",
    }
}

/// Expands the workload's campaign (or search spec) at `seed`. The hunt
/// attacks the `hunt` preset's instances — silent gathering on rings,
/// [`presets::hunt_space`] adversaries — repeated [`REPS`] times.
fn expand(workload: Workload, scale: Scale, seed: u64) -> Result<Input, String> {
    let campaign = campaign_matrix(workload, scale)
        .campaign(campaign_name(workload), seed)
        .map_err(|e| format!("campaign expansion failed: {e}"))?;
    if workload != Workload::Hunt {
        return Ok(Input::Campaign(campaign));
    }
    Ok(Input::Search(SearchSpec {
        name: campaign.name().to_string(),
        seed,
        budget: hunt_budget(scale),
        objective: Objective::Failure,
        instances: campaign
            .scenarios()
            .iter()
            .map(|s| (s.clone(), presets::hunt_space(&s.cfg)))
            .collect(),
    }))
}

/// Everything before the first timed pass: expansion, and for
/// `campaign-warm` opening an empty store under `dir` and filling it
/// through a cold cached run. Set-up spans go to `tracer`.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Input, String> {
    let input = tracer.span("lab.campaign.expand", |_| expand(workload, scale, seed))?;
    if workload != Workload::CampaignWarm {
        return Ok(input);
    }
    let Input::Campaign(campaign) = input else {
        unreachable!("campaign-warm expands to a campaign")
    };
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot clear {}: {e}", dir.display()))
        }
        _ => {}
    }
    let store = tracer
        .span("lab.store.open", |_| Store::open(dir))
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let report = tracer.span("lab.store.fill", |_| {
        run_campaign_cached(&campaign, 1, Some(&store))
    });
    let stats = store.stats();
    if stats.write_errors > 0 || store.len() != campaign.len() {
        return Err(format!(
            "store fill wrote {} of {} records ({} write errors)",
            store.len(),
            campaign.len(),
            stats.write_errors
        ));
    }
    let cold_report = report.to_json() + &report.to_csv();
    Ok(Input::Warm {
        campaign,
        dir: dir.to_path_buf(),
        cold_report,
    })
}

/// One untraced pass. For `campaign-warm` this is a single warm pass
/// (open, cached run, reports); the measuring loop repeats it
/// [`WARM_PASSES_PER_UNIT`] times per timed unit.
pub fn pass(input: &Input) -> Result<PassOutput, String> {
    traced_pass(input, &mut Tracer::off())
}

/// A pass with one span around each public call it makes.
pub fn traced_pass(input: &Input, t: &mut Tracer) -> Result<PassOutput, String> {
    t.span("pass", |t| match input {
        Input::Campaign(campaign) => {
            let report = t.span("lab.runner", |_| run_campaign(campaign, 1));
            Ok(campaign_output(t, report))
        }
        Input::Search(spec) => {
            let report = t.span("lab.search", |_| run_search_with(spec, 1, None, true));
            let json = t.span("lab.report.json", |_| report.to_json());
            let csv = t.span("lab.report.csv", |_| report.to_csv());
            Ok(PassOutput {
                report: json + &csv,
                outcome: Outcome::Search(report),
            })
        }
        Input::Warm { campaign, dir, .. } => {
            let store = t
                .span("lab.store.open", |_| Store::open(dir))
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
            let report = t.span("lab.runner", |_| {
                run_campaign_cached(campaign, 1, Some(&store))
            });
            Ok(campaign_output(t, report))
        }
    })
}

fn campaign_output(t: &mut Tracer, report: CampaignReport) -> PassOutput {
    let json = t.span("lab.report.json", |_| report.to_json());
    let csv = t.span("lab.report.csv", |_| report.to_csv());
    PassOutput {
        report: json + &csv,
        outcome: Outcome::Campaign(report),
    }
}

/// FNV-1a over the report bytes.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks one pass's output: no panicked record, the report
/// byte-identical to the first pass's (`first`), the workload's own
/// invariants, and at `--seed 0` on the full input the pinned digest.
pub fn check(
    workload: Workload,
    input: &Input,
    out: &PassOutput,
    first: &str,
    pinned: bool,
) -> Result<(), String> {
    if let Some(r) = out
        .records()
        .iter()
        .find(|r| r.status.starts_with("panic:"))
    {
        return Err(format!("record {} panicked: {}", r.key, r.status));
    }
    if out.report != first {
        return Err("report differs from the first pass's report".into());
    }
    if pinned && digest(&out.report) != workload.pinned_digest() {
        return Err(format!(
            "report digest {:#018x} differs from the pinned {:#018x}",
            digest(&out.report),
            workload.pinned_digest()
        ));
    }
    match (input, &out.outcome) {
        (Input::Campaign(campaign), Outcome::Campaign(report)) => check_campaign(campaign, report),
        (
            Input::Warm {
                campaign,
                cold_report,
                ..
            },
            Outcome::Campaign(report),
        ) => {
            check_campaign(campaign, report)?;
            let cache = report.cache.unwrap_or_default();
            if cache.hits != campaign.len() as u64 || cache.misses != 0 {
                return Err(format!(
                    "warm pass had {} hits and {} misses over {} cells",
                    cache.hits,
                    cache.misses,
                    campaign.len()
                ));
            }
            if out.report != *cold_report {
                return Err("warm report differs from the cold run that filled the store".into());
            }
            Ok(())
        }
        (Input::Search(spec), Outcome::Search(report)) => {
            let expected = spec.budget * spec.instances.len() as u64;
            if report.total_evaluations() != expected {
                return Err(format!(
                    "search made {} evaluations, expected {expected}",
                    report.total_evaluations()
                ));
            }
            Ok(())
        }
        _ => Err("pass output does not match the workload's input".into()),
    }
}

/// Every cell has a record, and every cell inside the paper's model (a
/// static graph, no crashes) gathered.
fn check_campaign(campaign: &Campaign, report: &CampaignReport) -> Result<(), String> {
    if report.records.len() != campaign.len() {
        return Err(format!(
            "{} records for {} cells",
            report.records.len(),
            campaign.len()
        ));
    }
    match report
        .records
        .iter()
        .find(|r| r.key.topo == "static" && r.key.fault == "none" && !r.ok)
    {
        Some(r) => Err(format!(
            "static cell {} did not gather: {}",
            r.key, r.status
        )),
        None => Ok(()),
    }
}

/// The layer split of a pass: calls the traced pass makes only as one
/// opaque call (the runner, the search), re-made one layer at a time, each
/// call in its own span. Every replayed record must equal the one the
/// pass produced.
pub fn replay(input: &Input, out: &PassOutput, t: &mut Tracer) -> Result<(), String> {
    let mut scratch = EngineScratch::new();
    t.span("replay", |t| match (input, &out.outcome) {
        (Input::Campaign(campaign), Outcome::Campaign(report)) => {
            let scenarios = campaign.scenarios();
            certify(t, scenarios.iter());
            for job in batch_jobs(scenarios) {
                let batch: Vec<GatherScenario<'_>> = job
                    .iter()
                    .map(|s| GatherScenario {
                        cfg: &s.cfg,
                        mode: s.mode,
                        schedule: s.schedule.clone(),
                        topo: s.topo.clone(),
                        fault: s.fault.clone(),
                        seed: s.seed,
                        trace_capacity: Some(TRACE_CAPACITY),
                    })
                    .collect();
                black_box(t.span("core.harness.batch", |_| {
                    run_scenario_batch_with_scratch(&batch, &mut scratch)
                }));
            }
            let expected: Vec<&RunRecord> = report.records.iter().collect();
            replay_cells(t, scenarios.iter(), &expected, &mut scratch)
        }
        (Input::Search(spec), Outcome::Search(report)) => {
            let unforked = t.span("lab.search.unforked", |_| {
                run_search_with(spec, 1, None, false)
            });
            if unforked.to_json() + &unforked.to_csv() != out.report {
                return Err("search without forking reported differently".into());
            }
            certify(t, spec.instances.iter().map(|(s, _)| s));
            let witnesses = report.outcomes.iter().map(|o| &o.witness);
            let expected: Vec<&RunRecord> = report.outcomes.iter().map(|o| &o.record).collect();
            replay_cells(t, witnesses, &expected, &mut scratch)
        }
        (Input::Warm { campaign, dir, .. }, Outcome::Campaign(report)) => {
            let store = Store::open(dir).map_err(|e| format!("cannot reopen store: {e}"))?;
            for (s, expected) in campaign.scenarios().iter().zip(&report.records) {
                let hit = t.span("lab.store.lookup", |_| store.lookup(s));
                if hit.as_ref() != Some(expected) {
                    return Err(format!(
                        "store lookup of {} did not return its record",
                        s.key
                    ));
                }
            }
            for s in campaign.scenarios() {
                black_box(t.span("lab.store.fingerprint", |_| scenario_fingerprint(s)));
            }
            Ok(())
        }
        _ => Err("pass output does not match the workload's input".into()),
    })
}

/// Replays the write-through of `campaign-warm`'s set-up into an empty
/// store under `dir`, one insert span per record; returns the log size.
pub fn replay_inserts(input: &Input, dir: &Path, t: &mut Tracer) -> Result<u64, String> {
    let Input::Warm {
        campaign,
        dir: filled,
        ..
    } = input
    else {
        return Ok(0);
    };
    let source = Store::open(filled).map_err(|e| format!("cannot reopen store: {e}"))?;
    let records: Vec<RunRecord> = campaign
        .scenarios()
        .iter()
        .map(|s| {
            source
                .lookup(s)
                .ok_or_else(|| format!("{} missing from store", s.key))
        })
        .collect::<Result<_, _>>()?;
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| format!("cannot open store: {e}"))?;
    for (s, record) in campaign.scenarios().iter().zip(&records) {
        t.span("lab.store.insert", |_| store.insert(s, record));
    }
    let bytes = std::fs::metadata(store.path())
        .map_err(|e| format!("cannot stat store log: {e}"))?
        .len();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(bytes)
}

/// Certifies each distinct instance's exploration setup once, as the
/// batched runner does.
fn certify<'a>(t: &mut Tracer, scenarios: impl Iterator<Item = &'a Scenario>) {
    let mut seen = std::collections::HashSet::new();
    for s in scenarios {
        if seen.insert(s.key.instance_canonical()) {
            black_box(t.span("core.setup", |_| {
                KnownSetup::for_configuration(&s.cfg, s.cfg.size() as u32, s.seed)
            }));
        }
    }
}

/// The runner's batch grouping: gathering cells by instance sub-key, in
/// first-occurrence order.
fn batch_jobs(scenarios: &[Scenario]) -> Vec<Vec<&Scenario>> {
    let mut jobs: Vec<Vec<&Scenario>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for s in scenarios
        .iter()
        .filter(|s| matches!(s.kind, ScenarioKind::Gather))
    {
        let slot = *index.entry(s.key.instance_canonical()).or_insert_with(|| {
            jobs.push(Vec::new());
            jobs.len() - 1
        });
        jobs[slot].push(s);
    }
    jobs
}

/// Runs each cell solo through the harness, then through the lab's
/// record path, checking each record against `expected`.
fn replay_cells<'a>(
    t: &mut Tracer,
    scenarios: impl Iterator<Item = &'a Scenario> + Clone,
    expected: &[&RunRecord],
    scratch: &mut EngineScratch,
) -> Result<(), String> {
    for s in scenarios.clone() {
        let _ = black_box(t.span("core.harness.solo", |_| {
            run_scenario_with_scratch(
                &s.cfg,
                s.mode,
                s.schedule.clone(),
                &s.topo,
                &s.fault,
                s.seed,
                Some(TRACE_CAPACITY),
                scratch,
            )
        }));
    }
    for (s, want) in scenarios.zip(expected) {
        let record = t.span("lab.record", |_| execute_scenario_with_scratch(s, scratch));
        if record != **want {
            return Err(format!("replayed record of {} differs", s.key));
        }
    }
    Ok(())
}
