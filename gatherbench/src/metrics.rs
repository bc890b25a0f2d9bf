//! The metrics the benchmark reports, as declared in `BENCHMARK.json`.

/// One declared metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Printed by every `--trace 0` run.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", "lower", 0.25),
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Printed by every `--trace 1` run; a layer a workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("host.reference_ms", "ms", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("trace.overhead_s", "s", "lower"),
    layer("lab.campaign.expand_s", "s", "lower"),
    layer("core.setup.certify_s", "s", "lower"),
    layer("core.setup.instances", "count", "lower"),
    layer("core.harness.batch_s", "s", "lower"),
    layer("core.harness.solo_s", "s", "lower"),
    layer("core.harness.cell_p50_ms", "ms", "lower"),
    layer("core.harness.cell_p98_ms", "ms", "lower"),
    layer("sim.engine.executed_rounds", "count", "lower"),
    layer("sim.engine.iterations", "count", "lower"),
    layer("sim.engine.polls", "count", "lower"),
    layer("sim.engine.skipped_rounds", "count", "higher"),
    layer("sim.engine.moves", "count", "lower"),
    layer("sim.engine.blocked_moves", "count", "lower"),
    layer("sim.engine.polls_per_executed_round", "ratio", "lower"),
    layer("sim.engine.ns_per_poll", "ns", "lower"),
    layer("lab.record.self_s", "s", "lower"),
    layer("lab.runner.self_s", "s", "lower"),
    layer("lab.store.open_s", "s", "lower"),
    layer("lab.store.lookup_s", "s", "lower"),
    layer("lab.store.fingerprint_s", "s", "lower"),
    layer("lab.store.hits", "count", "higher"),
    layer("lab.store.misses", "count", "lower"),
    layer("lab.store.insert_s", "s", "lower"),
    layer("lab.store.log_bytes", "bytes", "lower"),
    layer("lab.report.json_s", "s", "lower"),
    layer("lab.report.csv_s", "s", "lower"),
    layer("lab.report.bytes", "bytes", "lower"),
    layer("lab.search.evaluations", "count", "higher"),
    layer("lab.search.forked_evals", "count", "higher"),
    layer("lab.search.fork_ratio", "ratio", "higher"),
    layer("lab.search.ladder_rounds", "count", "lower"),
    layer("lab.search.rounds_saved", "count", "higher"),
    layer("lab.search.executed_rounds_per_eval", "ratio", "lower"),
    layer("lab.search.unforked_wall_s", "s", "lower"),
];

/// The metric's entry as `BENCHMARK.json` writes it, one per line.
#[cfg(test)]
pub fn declaration(m: &Metric) -> String {
    match m.bound {
        Some(bound) => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            m.name, m.unit, m.better
        ),
        None => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    }
}

/// The result line every measuring run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A result line read back: correctness, counts, and metric values.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

/// Reads a line [`result_line`] wrote, for the metrics in `declared`.
pub fn parse_result(line: &str, declared: &[Metric]) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let values = declared
        .iter()
        .map(|m| {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            let at = line.find(&key)? + key.len();
            let rest = &line[at..];
            let v: f64 = rest[..rest.find(',')?].trim().parse().ok()?;
            Some((m.name.to_string(), v))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Parsed {
        correct: field("correct")?.parse().ok()?,
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&declaration(m)),
                "BENCHMARK.json lacks {}",
                declaration(m)
            );
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let run_seconds = format!("\"run_seconds\": {},", crate::steady::SECONDS);
        assert!(
            text.contains(&run_seconds),
            "steady runs differ from {run_seconds}"
        );
    }

    #[test]
    fn interaction_map_covers_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/interaction.json");
        let text = std::fs::read_to_string(path).expect("interaction.json in the benchmark");
        for m in PER_LAYER {
            let entry = format!("\"layer_metric\": \"{}\"", m.name);
            assert_eq!(text.matches(&entry).count(), 1, "{}", m.name);
        }
        for w in crate::workload::ALL {
            assert!(
                text.contains(&format!(
                    "\"{}\": {{\"program_seed_at_seed_0\": {}, \"held_out_seed\": ",
                    w.name(),
                    w.default_seed(),
                )),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_round_trips() {
        let values: Vec<(Metric, f64)> = END_TO_END
            .iter()
            .zip([0.125, 4480.5, 0.0031])
            .map(|(m, v)| (*m, v))
            .collect();
        let line = result_line(true, 57, 1, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 57, \"failed\": 1, "));
        let parsed = parse_result(&line, END_TO_END).expect("parses");
        assert_eq!(
            parsed,
            Parsed {
                correct: true,
                attempted: 57,
                failed: 1,
                values: values
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), *v))
                    .collect(),
            }
        );
        assert!(parse_result("{\"correct\": true}", END_TO_END).is_none());
    }
}
