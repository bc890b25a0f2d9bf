//! The sparse round loop against the naive reference interpreter of
//! `common/interpreter.rs`: for any scenario, the event-driven loop
//! (per-agent wait horizons, dirty-node re-polling, event cursors, the
//! quiescence fast-forward) agrees with an interpreter that polls every
//! executing agent every round on every model-visible field and every
//! trace event — and never polls more.
//!
//! The property sweeps graph families, sensing modes, wake schedules,
//! static and round-varying topologies, crash faults, and a behavior mix
//! that parks agents on real `min_wait` horizons (so all three re-poll
//! triggers — horizon expiry, occupancy change, adversary events — fire in
//! anger). Unit tests below pin each trigger ordering individually.

#[path = "common/interpreter.rs"]
mod interpreter;

use std::collections::VecDeque;

use proptest::prelude::*;

use nochatter_graph::dynamic::{PeriodicEdges, SeededEdgeFailure, Topology};
use nochatter_graph::generators::Family;
use nochatter_graph::rng::Rng;
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::proc::{
    ProcBehavior, Procedure, RunFor, UntilCardExceeds, WaitCardStable, WaitRounds,
};
use nochatter_sim::{
    Action, AgentAct, AgentBehavior, CrashPoint, Declaration, Engine, FaultSpec, Obs, Poll,
    RunOutcome, Sensing, Static, TopologySpec, WakeSchedule,
};

use interpreter::{interpret, Model};

/// A seeded random walker (same shape as the determinism suite's): waits
/// or takes a random port for a seed-determined number of rounds, then
/// declares its move count. The movers are what dirty nodes and wake the
/// parked waiters below.
struct SeededWalker {
    rng: Rng,
    steps: u32,
    moves: u32,
}

impl SeededWalker {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let steps = rng.range(60) as u32;
        SeededWalker {
            rng,
            steps,
            moves: 0,
        }
    }
}

impl Procedure for SeededWalker {
    type Output = u32;
    fn poll(&mut self, obs: &Obs) -> Poll<u32> {
        if self.steps == 0 {
            return Poll::Complete(self.moves);
        }
        self.steps -= 1;
        if self.rng.bool() {
            Poll::Yield(Action::Wait)
        } else {
            self.moves += 1;
            Poll::Yield(Action::TakePort(Port::new(
                self.rng.range(u64::from(obs.degree)) as u32,
            )))
        }
    }
}

fn declare(size: u32) -> Declaration {
    Declaration {
        leader: None,
        size: Some(size),
    }
}

/// Picks a behavior for agent `i` from a seed-determined mix. Movers
/// dominate slot 0–1 so runs stay lively; the rest are wait-heavy
/// combinators with genuine `min_wait` horizons, so the sparse loop
/// actually parks them (and must wake them back up correctly).
fn mixed_behavior(seed: u64, i: usize) -> Box<dyn AgentBehavior> {
    let s = nochatter_graph::rng::derive_seed(seed, &[i as u64]);
    match s % 5 {
        0 | 1 => Box::new(ProcBehavior::mapping(SeededWalker::new(s), declare)),
        2 => Box::new(ProcBehavior::mapping(WaitRounds::new(s % 80), |()| {
            declare(0)
        })),
        3 => Box::new(ProcBehavior::mapping(
            UntilCardExceeds::new(1, WaitRounds::new(400)),
            |out| declare(out.was_interrupted() as u32),
        )),
        _ => Box::new(ProcBehavior::mapping(
            RunFor::new(s % 97, WaitCardStable::new(s % 6 + 2, 0, None)),
            |out| declare(out.is_some() as u32),
        )),
    }
}

type ScenarioDraw = (
    Graph,
    Vec<u32>,
    u64,
    WakeSchedule,
    Sensing,
    TopologySpec,
    FaultSpec,
);

fn scenario_strategy() -> impl Strategy<Value = ScenarioDraw> {
    (
        (0usize..4, 4u32..9, any::<u64>(), 0u64..3),
        (any::<bool>(), 0usize..3, 0usize..4),
    )
        .prop_map(|((family, n, seed, sched), (traditional, topo, fault))| {
            let family = [
                Family::Ring,
                Family::Grid,
                Family::RandomTree,
                Family::RandomConnected,
            ][family];
            let graph = family.instantiate(n, seed);
            let n_actual = graph.node_count() as u32;
            let starts = vec![0, n_actual / 3 + 1, 2 * n_actual / 3 + 1];
            let schedule = match sched {
                0 => WakeSchedule::Simultaneous,
                1 => WakeSchedule::FirstOnly,
                _ => WakeSchedule::Staggered { gap: seed % 7 + 1 },
            };
            let sensing = if traditional {
                Sensing::Traditional
            } else {
                Sensing::Weak
            };
            let topo = match topo {
                0 => TopologySpec::Static,
                1 => TopologySpec::Periodic(PeriodicEdges {
                    period: 3,
                    offset: seed % 3,
                }),
                _ => TopologySpec::EdgeFailure(SeededEdgeFailure { p: 0.3, seed }),
            };
            // Crash rounds stretch past typical park horizons so crashes
            // preempt parked agents, not just active ones.
            let fault = match fault {
                0 => FaultSpec::None,
                1 => FaultSpec::CrashAt(vec![CrashPoint {
                    label: Label::new(2).unwrap(),
                    round: seed % 150,
                }]),
                2 => FaultSpec::CrashAt(vec![
                    CrashPoint {
                        label: Label::new(1).unwrap(),
                        round: seed % 60,
                    },
                    CrashPoint {
                        label: Label::new(3).unwrap(),
                        round: seed % 150,
                    },
                ]),
                _ => FaultSpec::SeededCrash {
                    p: 0.02,
                    seed,
                    max_crashes: 2,
                },
            };
            (graph, starts, seed, schedule, sensing, topo, fault)
        })
}

fn distinct(starts: &[u32]) -> bool {
    starts[0] != starts[1] && starts[1] != starts[2] && starts[0] != starts[2]
}

/// A team for one run: label, start node and a fresh behavior per agent.
type Team = Vec<(Label, NodeId, Box<dyn AgentBehavior>)>;

/// Runs `team()` through the engine and, with a second fresh team, through
/// the reference interpreter; checks the engine against the reference and
/// returns the engine's outcome.
fn run_checked<T: Topology>(
    graph: &Graph,
    topology: &T,
    model: &Model,
    team: impl Fn() -> Team,
) -> Result<RunOutcome, String> {
    let mut engine = Engine::with_topology(graph, topology);
    engine.record_trace(model.trace_capacity);
    engine.set_sensing(model.sensing);
    engine.set_wake_schedule(model.schedule.clone());
    engine.set_faults(model.faults.clone());
    for (label, start, behavior) in team() {
        engine.add_agent(label, start, behavior);
    }
    let outcome = engine.run(model.max_rounds).map_err(|e| e.to_string())?;
    interpret(graph, topology, team(), model).check(&outcome)?;
    Ok(outcome)
}

/// The weak-sensing, fault-free, simultaneous-wake model with a
/// 500-round limit the unit tests below start from.
fn plain_model(trace_capacity: usize) -> Model {
    Model {
        schedule: WakeSchedule::Simultaneous,
        sensing: Sensing::Weak,
        faults: FaultSpec::None,
        trace_capacity,
        max_rounds: 500,
    }
}

proptest! {
    /// The headline contract: the sparse loop matches the reference
    /// interpreter on every model-visible field and every trace event,
    /// across topologies, sensing modes, schedules and crash faults — and
    /// never polls a behavior the interpreter wouldn't have.
    #[test]
    fn sparse_loop_matches_the_reference(
        (graph, starts, seed, schedule, sensing, topo, fault) in scenario_strategy()
    ) {
        prop_assume!(distinct(&starts));
        let model = Model {
            schedule,
            sensing,
            faults: fault,
            trace_capacity: 1 << 14,
            max_rounds: 500,
        };
        let team = || -> Team {
            starts
                .iter()
                .enumerate()
                .map(|(i, &start)| {
                    (Label::new(i as u64 + 1).unwrap(), NodeId::new(start), mixed_behavior(seed, i))
                })
                .collect()
        };
        let verdict = run_checked(&graph, &topo, &model, team).map(|_| ());
        prop_assert_eq!(verdict, Ok(()));
    }
}

// ---------------------------------------------------------------------------
// Trigger-ordering unit tests: each re-poll trigger pinned in isolation.
// ---------------------------------------------------------------------------

/// BFS the port-path from `from` to `to` (the graphs here are small and
/// connected, so a path always exists).
fn port_path(graph: &Graph, from: NodeId, to: NodeId) -> Vec<Port> {
    let mut prev: Vec<Option<(NodeId, Port)>> = vec![None; graph.node_count()];
    let mut queue = VecDeque::from([from]);
    let mut seen = vec![false; graph.node_count()];
    seen[from.index()] = true;
    while let Some(node) = queue.pop_front() {
        if node == to {
            break;
        }
        for port in 0..graph.degree(node) {
            let port = Port::new(port);
            let (next, _) = graph.neighbor(node, port).unwrap();
            if !seen[next.index()] {
                seen[next.index()] = true;
                prev[next.index()] = Some((node, port));
                queue.push_back(next);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = to;
    while cur != from {
        let (node, port) = prev[cur.index()].expect("graph is connected");
        path.push(port);
        cur = node;
    }
    path.reverse();
    path
}

/// A mover that walks a fixed path, then waits forever. Used to deliver an
/// occupancy change to a parked agent at a known round.
struct PathThenIdle {
    path: std::vec::IntoIter<Port>,
}

impl Procedure for PathThenIdle {
    type Output = ();
    fn poll(&mut self, _obs: &Obs) -> Poll<()> {
        match self.path.next() {
            Some(p) => Poll::Yield(Action::TakePort(p)),
            None => Poll::Yield(Action::Wait),
        }
    }
    fn min_wait(&self) -> u64 {
        if self.path.as_slice().is_empty() {
            u64::MAX
        } else {
            0
        }
    }
}

/// Trigger 1 — horizon expiry: a lone `WaitRounds` agent parks on its full
/// horizon, is re-polled only when the horizon runs out, and still declares
/// at exactly the round the reference interpreter does.
#[test]
fn horizon_expiry_re_polls_at_the_promised_round() {
    let graph = Family::Ring.instantiate(6, 1);
    let sparse = run_checked(&graph, &Static, &plain_model(64), || {
        vec![(
            Label::new(1).unwrap(),
            NodeId::new(0),
            Box::new(ProcBehavior::mapping(WaitRounds::new(40), |()| declare(0))),
        )]
    })
    .unwrap();
    let (_, rec) = &sparse.declarations[0];
    assert_eq!(rec.unwrap().round, 40);
    // A lone waiter is pure quiescence: fast-forward covers the wait in a
    // handful of polls, nowhere near one poll per round.
    assert!(
        sparse.polled_agent_rounds < 10,
        "expected a fast-forwarded park, got {} polls",
        sparse.polled_agent_rounds
    );
}

/// Trigger 2 — occupancy change: an agent parked on a huge horizon
/// (`UntilCardExceeds` over `WaitRounds(400)`) must be woken the moment a
/// walker reaches its node, long before the horizon expires.
#[test]
fn occupancy_change_preempts_a_parked_horizon() {
    let graph = Family::Grid.instantiate(6, 3);
    let target = NodeId::new(0);
    let start = NodeId::new(graph.node_count() as u32 - 1);
    let path = port_path(&graph, start, target);
    let arrival = path.len() as u64; // moves land at end of rounds 0..len-1
    let sparse = run_checked(&graph, &Static, &plain_model(256), || {
        vec![
            (
                Label::new(1).unwrap(),
                target,
                Box::new(ProcBehavior::mapping(
                    UntilCardExceeds::new(1, WaitRounds::new(400)),
                    |out| declare(out.was_interrupted() as u32),
                )),
            ),
            (
                Label::new(2).unwrap(),
                start,
                Box::new(ProcBehavior::mapping(
                    PathThenIdle {
                        path: path.clone().into_iter(),
                    },
                    |()| declare(0),
                )),
            ),
        ]
    })
    .unwrap();
    let (_, rec) = &sparse.declarations[0];
    let rec = rec.expect("the parked agent must be interrupted and declare");
    assert_eq!(
        rec.declaration.size,
        Some(1),
        "declaration must record the interruption"
    );
    assert_eq!(
        rec.round, arrival,
        "the parked agent must act in the round the walker arrives, \
         not when its 400-round horizon expires"
    );
}

/// Trigger 3 — adversary events: a crash lands on an agent parked behind a
/// huge horizon at exactly its scheduled round, and a wake-schedule event
/// activates a dormant agent mid-quiescence. Both must preempt parking.
#[test]
fn crash_preempts_a_parked_horizon() {
    let graph = Family::Ring.instantiate(5, 1);
    let model = Model {
        faults: FaultSpec::CrashAt(vec![CrashPoint {
            label: Label::new(1).unwrap(),
            round: 123,
        }]),
        ..plain_model(64)
    };
    let sparse = run_checked(&graph, &Static, &model, || {
        vec![
            (
                Label::new(1).unwrap(),
                NodeId::new(0),
                Box::new(ProcBehavior::mapping(WaitRounds::new(10_000), |()| {
                    declare(0)
                })),
            ),
            (
                Label::new(2).unwrap(),
                NodeId::new(2),
                Box::new(ProcBehavior::mapping(WaitRounds::new(3), |()| declare(0))),
            ),
        ]
    })
    .unwrap();
    assert_eq!(sparse.crashed_agents, vec![Label::new(1).unwrap()]);
    let crash = sparse
        .trace
        .as_ref()
        .unwrap()
        .events()
        .iter()
        .find_map(|e| match e {
            nochatter_sim::TraceEvent::Crashed { round, .. } => Some(*round),
            _ => None,
        })
        .expect("crash must be traced");
    assert_eq!(
        crash, 123,
        "the crash must land in its exact round even though the victim \
         was parked until round 10000"
    );
}

/// A staggered wake re-activates a dormant agent while everyone else is
/// parked; the woken agent's moves then dirty nodes as usual.
#[test]
fn staggered_wake_fires_during_quiescence() {
    let graph = Family::Ring.instantiate(6, 2);
    let model = Model {
        schedule: WakeSchedule::Staggered { gap: 17 },
        ..plain_model(256)
    };
    run_checked(&graph, &Static, &model, || {
        [0u32, 2, 4]
            .into_iter()
            .enumerate()
            .map(|(i, start)| {
                (
                    Label::new(i as u64 + 1).unwrap(),
                    NodeId::new(start),
                    Box::new(ProcBehavior::mapping(
                        WaitRounds::new(50 + 10 * i as u64),
                        |()| declare(0),
                    )) as Box<dyn AgentBehavior>,
                )
            })
            .collect()
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Checkpoint/resume mid-wait.
// ---------------------------------------------------------------------------

/// A cloneable seeded walker: the engine's checkpoint machinery forks
/// behaviors mid-run, so the checkpointed team must be duplicable.
#[derive(Clone)]
struct CloneWalker {
    rng: Rng,
    steps: u32,
}

impl Procedure for CloneWalker {
    type Output = u32;
    fn poll(&mut self, obs: &Obs) -> Poll<u32> {
        if self.steps == 0 {
            return Poll::Complete(0);
        }
        self.steps -= 1;
        if self.rng.bool() {
            Poll::Yield(Action::Wait)
        } else {
            Poll::Yield(Action::TakePort(Port::new(
                self.rng.range(u64::from(obs.degree)) as u32,
            )))
        }
    }
}

/// Opts a cloneable behavior into forking: the default
/// [`AgentBehavior::clone_box`] declines.
#[derive(Clone)]
struct Forkable<B>(B);

impl<B: AgentBehavior + Clone + 'static> AgentBehavior for Forkable<B> {
    fn on_round(&mut self, obs: &Obs) -> AgentAct {
        self.0.on_round(obs)
    }
    fn min_wait(&self) -> u64 {
        self.0.min_wait()
    }
    fn note_skipped(&mut self, rounds: u64) {
        self.0.note_skipped(rounds)
    }
    fn clone_box(&self) -> Option<Box<dyn AgentBehavior>> {
        Some(Box::new(self.clone()))
    }
}

/// A walker, two long waiters and a `CurCard` watcher. With `forkable`
/// off, the watcher keeps the default `clone_box` and so declines to fork.
fn checkpoint_team(forkable: bool) -> Team {
    let walker = CloneWalker {
        rng: Rng::seed_from(11),
        steps: 30,
    };
    let watcher = ProcBehavior::mapping(UntilCardExceeds::new(1, WaitRounds::new(300)), |out| {
        declare(out.was_interrupted() as u32)
    });
    let behaviors: [Box<dyn AgentBehavior>; 4] = [
        Box::new(Forkable(ProcBehavior::mapping(walker, declare))),
        Box::new(Forkable(ProcBehavior::mapping(WaitRounds::new(60), |()| {
            declare(0)
        }))),
        Box::new(Forkable(ProcBehavior::mapping(WaitRounds::new(75), |()| {
            declare(0)
        }))),
        if forkable {
            Box::new(Forkable(watcher))
        } else {
            Box::new(watcher)
        },
    ];
    behaviors
        .into_iter()
        .enumerate()
        .map(|(i, behavior)| {
            (
                Label::new(i as u64 + 1).unwrap(),
                NodeId::new(i as u32 * 2),
                behavior,
            )
        })
        .collect()
}

fn checkpoint_engine(graph: &Graph, forkable: bool) -> Engine<'_> {
    let mut engine = Engine::new(graph);
    engine.record_trace(1 << 12);
    for (label, start, behavior) in checkpoint_team(forkable) {
        engine.add_agent(label, start, behavior);
    }
    engine
}

/// A checkpoint taken while agents sit parked mid-`min_wait` resumes with
/// the park state carried verbatim: the resumed run equals a from-scratch
/// run bit for bit (poll count included), and both match the reference.
#[test]
fn mid_wait_checkpoint_resumes_like_a_fresh_run() {
    use nochatter_sim::{ActiveRun, EngineScratch};

    let graph = Family::Ring.instantiate(9, 4);
    let mut scratch = EngineScratch::new();
    let fresh = checkpoint_engine(&graph, true)
        .run_with_scratch(500, &mut scratch)
        .unwrap();
    let mut donor = ActiveRun::begin(checkpoint_engine(&graph, true), 500, &mut scratch).unwrap();
    // Step into the thick of the waits: the two `WaitRounds` agents are
    // parked by round 12.
    while donor.next_round() < 12 {
        assert!(
            donor.step(&mut scratch).is_none(),
            "the run must still be live at round 12"
        );
    }
    let cp = donor.checkpoint().expect("forkable behaviors snapshot");
    let mut resumed = ActiveRun::begin(checkpoint_engine(&graph, true), 500, &mut scratch).unwrap();
    assert!(resumed.resume_from(&cp), "shapes match, behaviors fork");
    let outcome = loop {
        if let Some(result) = resumed.step(&mut scratch) {
            break result.unwrap();
        }
    };
    assert_eq!(format!("{outcome:?}"), format!("{fresh:?}"));
    let reference = interpret(
        &graph,
        &Static,
        checkpoint_team(true),
        &plain_model(1 << 12),
    );
    assert_eq!(reference.check(&fresh), Ok(()));
}

/// One agent that keeps the default `clone_box` makes every mid-run
/// checkpoint `None`, and asking for one leaves the run untouched: it
/// still steps to the outcome of an uninterrupted run.
#[test]
fn declining_agent_blocks_checkpoints_without_disturbing_the_run() {
    use nochatter_sim::{ActiveRun, EngineScratch};

    let graph = Family::Ring.instantiate(9, 4);
    let mut scratch = EngineScratch::new();
    let fresh = checkpoint_engine(&graph, false)
        .run_with_scratch(500, &mut scratch)
        .unwrap();
    let mut run = ActiveRun::begin(checkpoint_engine(&graph, false), 500, &mut scratch).unwrap();
    let mut asked_mid_wait = false;
    let outcome = loop {
        assert!(run.checkpoint().is_none(), "the watcher declines to fork");
        asked_mid_wait |= run.next_round() >= 12;
        if let Some(result) = run.step(&mut scratch) {
            break result.unwrap();
        }
    };
    assert!(asked_mid_wait, "checkpoints were asked for mid-wait");
    assert_eq!(format!("{outcome:?}"), format!("{fresh:?}"));
    let reference = interpret(
        &graph,
        &Static,
        checkpoint_team(false),
        &plain_model(1 << 12),
    );
    assert_eq!(reference.check(&fresh), Ok(()));
}

/// The sparse loop's whole point, measured: a mostly-parked team costs far
/// fewer behavior polls than the reference's poll-everyone-every-round.
#[test]
fn parked_agents_slash_polled_rounds() {
    let graph = Family::Ring.instantiate(8, 1);
    let model = Model {
        max_rounds: 64,
        ..plain_model(1 << 10)
    };
    // One walker circles the ring; seven waiters park on long horizons.
    let team = || -> Team {
        let mut team: Team = vec![(
            Label::new(1).unwrap(),
            NodeId::new(0),
            Box::new(ProcBehavior::mapping(
                PathThenIdle {
                    path: vec![Port::new(0); 64].into_iter(),
                },
                |()| declare(0),
            )),
        )];
        for i in 1..8u32 {
            team.push((
                Label::new(u64::from(i) + 1).unwrap(),
                NodeId::new(i),
                Box::new(ProcBehavior::mapping(WaitRounds::new(100_000), |()| {
                    declare(0)
                })),
            ));
        }
        team
    };
    let sparse = run_checked(&graph, &Static, &model, team).unwrap();
    let reference = interpret(&graph, &Static, team(), &model);
    assert!(
        sparse.polled_agent_rounds * 2 <= reference.polls,
        "expected at least a 2x poll reduction, got sparse {} vs reference {}",
        sparse.polled_agent_rounds,
        reference.polls
    );
}
