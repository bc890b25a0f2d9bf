//! The paper's known-upper-bound gathering, run through the harness, against
//! the naive reference interpreter of `crates/sim/tests/common/`: on tiny
//! instances, silent and talking, under staggered wake-ups, round-varying
//! topologies and crash faults, the engine's run must match the
//! interpreter's on every model-visible field and every trace event.

#[path = "../../sim/tests/common/interpreter.rs"]
mod interpreter;

use nochatter_core::{harness, CommMode, GatherKnownUpperBound, KnownSetup};
use nochatter_graph::dynamic::{DynamicRing, SeededEdgeFailure, Topology};
use nochatter_graph::{generators, Graph, InitialConfiguration, Label, NodeId};
use nochatter_sim::{
    AgentBehavior, CrashPoint, FaultSpec, Sensing, Static, TopologySpec, WakeSchedule,
};

use interpreter::{interpret, Model, Reference};

const TRACE_CAPACITY: usize = 1 << 16;

type Team = Vec<(Label, NodeId, Box<dyn AgentBehavior>)>;

fn config(graph: Graph, team: &[(u64, u32)]) -> InitialConfiguration {
    let agents = team
        .iter()
        .map(|&(label, node)| (Label::new(label).unwrap(), NodeId::new(node)))
        .collect();
    InitialConfiguration::new(graph, agents).expect("distinct labels on distinct nodes")
}

/// The reference run of one harness scenario: the same team of
/// known-bound gatherers over the same certified setup and round limit.
fn reference(
    cfg: &InitialConfiguration,
    mode: CommMode,
    schedule: &WakeSchedule,
    topo: &TopologySpec,
    fault: &FaultSpec,
    seed: u64,
) -> Reference {
    let setup = KnownSetup::for_configuration(cfg, cfg.size() as u32, seed);
    let model = Model {
        schedule: schedule.clone(),
        sensing: match mode {
            CommMode::Silent => Sensing::Weak,
            CommMode::Talking => Sensing::Traditional,
        },
        faults: fault.clone(),
        trace_capacity: TRACE_CAPACITY,
        max_rounds: setup.params().round_limit(cfg.smallest_label_bit_len()),
    };
    let team: Team = cfg
        .agents()
        .iter()
        .map(|&(label, node)| {
            let gatherer = GatherKnownUpperBound::with_mode(setup.params().clone(), label, mode);
            (label, node, Box::new(gatherer.into_behavior()) as _)
        })
        .collect();
    fn go<T: Topology>(
        cfg: &InitialConfiguration,
        topology: &T,
        team: Team,
        model: &Model,
    ) -> Reference {
        interpret(cfg.graph(), topology, team, model)
    }
    if topo.is_static() {
        go(cfg, &Static, team, &model)
    } else {
        go(cfg, topo, team, &model)
    }
}

#[test]
fn known_bound_gathering_matches_the_reference() {
    let crash = FaultSpec::CrashAt(vec![CrashPoint {
        label: Label::new(3).unwrap(),
        round: 40,
    }]);
    let cases = [
        (
            config(generators::ring(4), &[(2, 0), (3, 2)]),
            WakeSchedule::Simultaneous,
            TopologySpec::Static,
            FaultSpec::None,
        ),
        (
            config(generators::path(4), &[(1, 0), (2, 3)]),
            WakeSchedule::Staggered { gap: 7 },
            TopologySpec::Static,
            FaultSpec::None,
        ),
        (
            config(generators::star(4), &[(2, 1), (3, 2), (5, 3)]),
            WakeSchedule::FirstOnly,
            TopologySpec::Static,
            FaultSpec::None,
        ),
        (
            config(generators::ring(5), &[(2, 0), (3, 2), (4, 4)]),
            WakeSchedule::Simultaneous,
            TopologySpec::Ring(DynamicRing { seed: 9 }),
            FaultSpec::None,
        ),
        (
            config(generators::path(3), &[(2, 0), (3, 2)]),
            WakeSchedule::Simultaneous,
            TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.2, seed: 4 }),
            FaultSpec::None,
        ),
        (
            config(generators::ring(4), &[(2, 0), (3, 2)]),
            WakeSchedule::Simultaneous,
            TopologySpec::Static,
            crash,
        ),
    ];
    for (cfg, schedule, topo, fault) in &cases {
        for mode in [CommMode::Silent, CommMode::Talking] {
            let seed = 2020;
            let outcome = harness::run_scenario(
                cfg,
                mode,
                schedule.clone(),
                topo,
                fault,
                seed,
                Some(TRACE_CAPACITY),
            )
            .expect("the harness runs the scenario");
            let verdict = reference(cfg, mode, schedule, topo, fault, seed).check(&outcome);
            assert_eq!(verdict, Ok(()), "{mode:?} {schedule:?} {topo:?} {fault:?}");
        }
    }
}
