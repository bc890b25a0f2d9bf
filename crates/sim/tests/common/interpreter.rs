//! A naive reference interpreter of the synchronous mobile-agent model
//! (§1.2 of Bouchard, Dieudonné & Pelc, arXiv 1908.11402), written for
//! reading, not speed: the oracle the engine's round loop is checked
//! against.
//!
//! It executes every round from 0 to the round limit. In each round:
//!
//! 1. the topology view advances to the round;
//! 2. the crash adversary strikes: a crashed agent never acts again, but
//!    its body stays on its node (a crash after a declaration is void);
//! 3. the wake adversary wakes its agents;
//! 4. every agent still asleep at a node shared with another body wakes;
//! 5. every executing agent observes its node — degree, entry port,
//!    `CurCard` (all bodies present), and under traditional sensing the
//!    sorted labels present — and picks an action;
//! 6. the actions take effect simultaneously, in agent order: a move
//!    along an edge absent this round is blocked, a declaration halts the
//!    agent;
//! 7. the run ends once no agent can act any more.
//!
//! No fast-forward, no parking, no scratch, no `min_wait`/`note_skipped`:
//! every executing agent is polled in every round. Only the public
//! `nochatter_sim` API is used, so the interpreter shares no code with
//! the engine it checks.

use nochatter_graph::dynamic::{Topology, TopologyView};
use nochatter_graph::{Graph, Label, NodeId, Port};
use nochatter_sim::{
    AgentAct, AgentBehavior, DeclarationRecord, FaultSpec, Obs, RunOutcome, RunStatus, Sensing,
    TraceEvent, WakeSchedule,
};

/// Everything about a run besides the graph, the topology and the team.
pub struct Model {
    pub schedule: WakeSchedule,
    pub sensing: Sensing,
    pub faults: FaultSpec,
    pub trace_capacity: usize,
    pub max_rounds: u64,
}

/// The model-visible facts of one interpreted run, plus its poll count.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    pub status: RunStatus,
    pub rounds: u64,
    pub declarations: Vec<(Label, Option<DeclarationRecord>)>,
    pub crashed_agents: Vec<Label>,
    pub total_moves: u64,
    pub blocked_moves: u64,
    pub max_colocation: u32,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    pub polls: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Asleep,
    Executing,
    Declared,
    Crashed,
}

/// Interprets one run of `agents` (label, start node, behavior) on
/// `graph` under `topology` and `model`.
///
/// # Panics
///
/// Panics on a setup the engine would reject (bad wake schedule or fault
/// spec) and on a move through a port the node does not have.
pub fn interpret<T: Topology, B: AgentBehavior>(
    graph: &Graph,
    topology: &T,
    agents: Vec<(Label, NodeId, B)>,
    model: &Model,
) -> Reference {
    let k = agents.len();
    let labels: Vec<Label> = agents.iter().map(|a| a.0).collect();
    let mut pos: Vec<NodeId> = agents.iter().map(|a| a.1).collect();
    let mut behaviors: Vec<B> = agents.into_iter().map(|a| a.2).collect();
    let wake = model.schedule.wake_rounds(k).expect("valid wake schedule");
    let crash = model
        .faults
        .crash_rounds(&labels)
        .expect("valid fault spec");
    let mut view = topology.view(graph);
    let mut state = vec![State::Asleep; k];
    let mut just_woken = vec![false; k];
    let mut blocked = vec![false; k];
    let mut entry: Vec<Option<Port>> = vec![None; k];
    let mut declared: Vec<Option<DeclarationRecord>> = vec![None; k];
    let mut run = Reference {
        status: RunStatus::RoundLimit,
        rounds: model.max_rounds,
        declarations: Vec::new(),
        crashed_agents: Vec::new(),
        total_moves: 0,
        blocked_moves: 0,
        max_colocation: 0,
        events: Vec::new(),
        dropped: 0,
        polls: 0,
    };
    let record = |run: &mut Reference, event: TraceEvent| {
        if run.events.len() < model.trace_capacity {
            run.events.push(event);
        } else {
            run.dropped += 1;
        }
    };
    let (mut last_declaration, mut last_crash) = (0, 0);

    for round in 0..model.max_rounds {
        view.begin_round(round);
        for i in 0..k {
            if crash[i] == round && state[i] != State::Declared {
                state[i] = State::Crashed;
                last_crash = round;
                let (agent, node) = (labels[i], pos[i]);
                record(&mut run, TraceEvent::Crashed { agent, round, node });
            }
        }
        for i in 0..k {
            if state[i] == State::Asleep && wake[i] <= round {
                state[i] = State::Executing;
                just_woken[i] = true;
                let agent = labels[i];
                record(
                    &mut run,
                    TraceEvent::Wake {
                        agent,
                        round,
                        by_visit: false,
                    },
                );
            }
        }
        let card = |node: NodeId| pos.iter().filter(|&&p| p == node).count() as u32;
        for &p in &pos {
            run.max_colocation = run.max_colocation.max(card(p));
        }
        for i in 0..k {
            if state[i] == State::Asleep && card(pos[i]) > 1 {
                state[i] = State::Executing;
                just_woken[i] = true;
                let agent = labels[i];
                record(
                    &mut run,
                    TraceEvent::Wake {
                        agent,
                        round,
                        by_visit: true,
                    },
                );
            }
        }

        let mut acts: Vec<Option<AgentAct>> = vec![None; k];
        for i in 0..k {
            if state[i] != State::Executing {
                continue;
            }
            let peer_labels = (model.sensing == Sensing::Traditional).then(|| {
                let mut here: Vec<Label> = (0..k)
                    .filter(|&j| pos[j] == pos[i])
                    .map(|j| labels[j])
                    .collect();
                here.sort();
                here
            });
            let obs = Obs {
                round,
                degree: graph.degree(pos[i]),
                cur_card: card(pos[i]),
                entry_port: entry[i],
                just_woken: just_woken[i],
                blocked: blocked[i],
                peer_labels,
            };
            acts[i] = Some(behaviors[i].on_round(&obs));
            run.polls += 1;
            just_woken[i] = false;
            blocked[i] = false;
        }

        for i in 0..k {
            let (agent, node) = (labels[i], pos[i]);
            match acts[i] {
                None | Some(AgentAct::Wait) => {}
                Some(AgentAct::TakePort(port)) => match graph.neighbor(node, port) {
                    None => panic!("agent {agent} took port {port:?} missing at {node:?}"),
                    Some(_) if !view.edge_present(node, port) => {
                        blocked[i] = true;
                        run.blocked_moves += 1;
                        record(
                            &mut run,
                            TraceEvent::Blocked {
                                agent,
                                round,
                                node,
                                port,
                            },
                        );
                    }
                    Some((to, back)) => {
                        record(
                            &mut run,
                            TraceEvent::Move {
                                agent,
                                round,
                                from: node,
                                to,
                                port,
                            },
                        );
                        pos[i] = to;
                        entry[i] = Some(back);
                        run.total_moves += 1;
                    }
                },
                Some(AgentAct::Declare(declaration)) => {
                    declared[i] = Some(DeclarationRecord {
                        round,
                        node,
                        declaration,
                    });
                    state[i] = State::Declared;
                    last_declaration = round;
                    record(
                        &mut run,
                        TraceEvent::Declare {
                            agent,
                            round,
                            node,
                            declaration,
                        },
                    );
                }
            }
        }

        if state
            .iter()
            .all(|&s| matches!(s, State::Declared | State::Crashed))
        {
            (run.status, run.rounds) = if state.contains(&State::Crashed) {
                (RunStatus::Halted, last_declaration.max(last_crash))
            } else {
                (RunStatus::AllDeclared, last_declaration)
            };
            break;
        }
    }

    run.declarations = labels.iter().copied().zip(declared).collect();
    run.crashed_agents = (0..k)
        .filter(|&i| state[i] == State::Crashed)
        .map(|i| labels[i])
        .collect();
    run
}

impl Reference {
    /// Checks an engine outcome against this reference: every
    /// model-visible field and the full trace must match, and the engine
    /// may not poll more. `engine_iterations`, `skipped_rounds` and
    /// `polled_agent_rounds` measure the engine's own work, so they are
    /// exempt from matching.
    pub fn check(&self, outcome: &RunOutcome) -> Result<(), String> {
        let trace = outcome
            .trace
            .as_ref()
            .ok_or("the engine run recorded no trace")?;
        let engine = Reference {
            status: outcome.status,
            rounds: outcome.rounds,
            declarations: outcome.declarations.clone(),
            crashed_agents: outcome.crashed_agents.clone(),
            total_moves: outcome.total_moves,
            blocked_moves: outcome.blocked_moves,
            max_colocation: outcome.max_colocation,
            events: trace.events().to_vec(),
            dropped: trace.dropped(),
            polls: self.polls,
        };
        if let Some(at) = (0..engine.events.len().max(self.events.len()))
            .find(|&e| engine.events.get(e) != self.events.get(e))
        {
            return Err(format!(
                "trace event {at}: engine {:?}, reference {:?}",
                engine.events.get(at),
                self.events.get(at)
            ));
        }
        if engine != *self {
            let (mut engine, mut reference) = (engine, self.clone());
            engine.events.clear();
            reference.events.clear();
            return Err(format!("engine {engine:?}\nreference {reference:?}"));
        }
        if outcome.polled_agent_rounds > self.polls {
            return Err(format!(
                "engine polled {} times, the reference only {}",
                outcome.polled_agent_rounds, self.polls
            ));
        }
        Ok(())
    }
}
