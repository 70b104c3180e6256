//! Step-wise simulation of APA models, with pluggable fault injection.
//!
//! A [`Simulator`] executes one concrete run of an APA: at each step it
//! picks one of the activated elementary automata (deterministically
//! from a seed) and applies the transition. Useful for demos, smoke
//! tests and for generating sample traces that must be accepted by the
//! behaviour automaton — a property tested against
//! [`crate::ReachGraph::to_nfa`].
//!
//! [`GraphWalk`] draws the same runs from an already-built
//! [`ReachGraph`]: a seeded walk over its flattened CSR edges picks the
//! edge the simulator would pick, without cloning a global state or
//! firing a rule. The runtime fleet walks the graph; `fsa simulate`
//! keeps the simulator.
//!
//! [`Fault`] models trace-level attacks on the event stream a simulator
//! produces — dropped events, spoofed events injected before their
//! causal prerequisites, and reordering windows. Faults are applied to
//! a *finished* trace ([`Simulator::inject`] or the generic
//! [`Fault::apply_stream`]), so a faulty run is the honest run plus a
//! deterministic mutation: the runtime monitoring engine
//! (`fsa-runtime`) relies on this determinism for bit-identical
//! violation reports across thread counts.

use crate::error::ApaError;
use crate::model::{Apa, GlobalState};
use crate::reach::{ReachGraph, TransitionLabel};
use automata::{Symbol, SymbolTable};
use std::fmt;

/// A deterministic fault / attack injected into a simulated event
/// stream.
///
/// The three shapes mirror the classic message-level attacker actions
/// against the vehicular scenario: suppressing a measurement
/// ([`Fault::Drop`]), forging a safety-critical output before its
/// authentic cause ([`Fault::Spoof`] — "spoof-before-sense"), and
/// scrambling delivery order within a bounded window
/// ([`Fault::Reorder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Remove every occurrence of the named action from the stream.
    Drop {
        /// Automaton name of the events to suppress.
        action: String,
    },
    /// Insert one forged occurrence of the named action at the very
    /// beginning of the stream — before anything (in particular before
    /// any `sense`) has happened.
    Spoof {
        /// Automaton name of the forged event.
        action: String,
    },
    /// Reverse every consecutive window of `window` events (a
    /// deterministic bounded reordering; `window <= 1` is the
    /// identity).
    Reorder {
        /// Window size.
        window: usize,
    },
}

impl Fault {
    /// Parses the CLI syntax `drop:<action>`, `spoof:<action>`,
    /// `reorder:<window>`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds or malformed
    /// values. An empty action name (`drop:`, `spoof:`) is rejected
    /// explicitly: such a fault would match no event and silently turn
    /// the injection into a no-op, which is the opposite of what an
    /// attack-simulation flag should do.
    pub fn parse(s: &str) -> Result<Fault, String> {
        let (kind, value) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <kind>:<value>, got `{s}`"))?;
        match kind {
            "drop" | "spoof" if value.is_empty() => Err(format!(
                "{kind} expects a non-empty action name (an empty action would match no event)"
            )),
            "drop" => Ok(Fault::Drop {
                action: value.to_owned(),
            }),
            "spoof" => Ok(Fault::Spoof {
                action: value.to_owned(),
            }),
            "reorder" => match value.parse::<usize>() {
                Ok(w) if w >= 1 => Ok(Fault::Reorder { window: w }),
                _ => Err(format!("reorder expects a positive window, got `{value}`")),
            },
            _ => Err(format!(
                "unknown fault `{kind}` (expected drop:<action>, spoof:<action> or reorder:<window>)"
            )),
        }
    }

    /// Applies this fault to a generic event stream.
    ///
    /// The stream representation is abstract: `matches` decides whether
    /// an event carries the fault's target action and `spoofed` is the
    /// event to forge for [`Fault::Spoof`]. This lets the same
    /// definition mutate `Vec<TransitionLabel>` streams (here) and the
    /// dense `u32` symbol streams of the runtime monitoring engine
    /// without translation.
    pub fn apply_stream<T: Copy>(
        &self,
        events: &mut Vec<T>,
        matches: impl Fn(T) -> bool,
        spoofed: impl FnOnce() -> T,
    ) {
        // `spoofed` is only evaluated for `Fault::Spoof`, preserving
        // the lazy contract for callers with fallible closures.
        let forged = matches!(self, Fault::Spoof { .. }).then(spoofed);
        self.apply_stream_with(events, matches, forged);
    }

    /// Like [`Fault::apply_stream`], with the forged event passed as a
    /// plain `Option`: a [`Fault::Spoof`] with `None` degrades to a
    /// no-op instead of forcing callers to promise (via a panicking
    /// closure) that a forged event can always be built.
    pub fn apply_stream_with<T: Copy>(
        &self,
        events: &mut Vec<T>,
        matches: impl Fn(T) -> bool,
        spoofed: Option<T>,
    ) {
        match self {
            Fault::Drop { .. } => events.retain(|&e| !matches(e)),
            Fault::Spoof { .. } => {
                if let Some(forged) = spoofed {
                    events.insert(0, forged);
                }
            }
            Fault::Reorder { window } => {
                if *window > 1 {
                    for chunk in events.chunks_mut(*window) {
                        chunk.reverse();
                    }
                }
            }
        }
    }

    /// The action name this fault targets (`None` for reordering).
    pub fn action(&self) -> Option<&str> {
        match self {
            Fault::Drop { action } | Fault::Spoof { action } => Some(action),
            Fault::Reorder { .. } => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Drop { action } => write!(f, "drop:{action}"),
            Fault::Spoof { action } => write!(f, "spoof:{action}"),
            Fault::Reorder { window } => write!(f, "reorder:{window}"),
        }
    }
}

/// A deterministic, seedable simulator over one APA.
#[derive(Debug)]
pub struct Simulator<'a> {
    apa: &'a Apa,
    state: GlobalState,
    trace: Vec<TransitionLabel>,
    /// Interner resolving this simulator's trace labels; automaton
    /// names are interned once at construction.
    symbols: SymbolTable,
    aut_syms: Vec<Symbol>,
    rng_state: u64,
}

impl<'a> Simulator<'a> {
    /// Starts a simulation in the APA's initial state.
    pub fn new(apa: &'a Apa, seed: u64) -> Self {
        let mut symbols = SymbolTable::new();
        let aut_syms = apa.automaton_names().map(|n| symbols.intern(n)).collect();
        Simulator {
            apa,
            state: apa.initial_state().clone(),
            trace: Vec::new(),
            symbols,
            aut_syms,
            rng_state: seed | 1,
        }
    }

    /// The current global state.
    pub fn state(&self) -> &GlobalState {
        &self.state
    }

    /// The labels of the transitions executed so far.
    pub fn trace(&self) -> &[TransitionLabel] {
        &self.trace
    }

    /// The interner resolving this simulator's trace labels.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Resolves a label symbol to its name.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this simulator's table.
    pub fn name(&self, s: Symbol) -> &str {
        self.symbols.name(s)
    }

    /// The automaton names of the trace so far — convenience for
    /// rendering and for feeding [`automata::Nfa::accepts`].
    pub fn trace_names(&self) -> Vec<&str> {
        self.trace
            .iter()
            .map(|l| self.symbols.name(l.automaton))
            .collect()
    }

    /// Executes one step; returns the label fired, or `None` if the
    /// simulation reached a dead state.
    ///
    /// # Errors
    ///
    /// Propagates [`ApaError::MalformedSuccessor`] from rule execution.
    pub fn step(&mut self) -> Result<Option<TransitionLabel>, ApaError> {
        let successors = self.apa.successors(&self.state)?;
        if successors.is_empty() {
            return Ok(None);
        }
        let choice = (splitmix_next(&mut self.rng_state) as usize) % successors.len();
        // `choice < successors.len()` by the modulo above, but fail
        // soft (treat as a dead state) rather than panic if the
        // invariant ever breaks.
        let Some((aut, interp, next)) = successors.into_iter().nth(choice) else {
            return Ok(None);
        };
        let label = TransitionLabel {
            automaton: self.aut_syms[aut.index()],
            interpretation: self.symbols.intern(&interp),
        };
        self.state = next;
        self.trace.push(label);
        Ok(Some(label))
    }

    /// Runs until a dead state or `max_steps`, returning the number of
    /// steps executed.
    ///
    /// # Errors
    ///
    /// Propagates rule-execution errors.
    pub fn run(&mut self, max_steps: usize) -> Result<usize, ApaError> {
        let mut steps = 0;
        while steps < max_steps {
            if self.step()?.is_none() {
                break;
            }
            steps += 1;
        }
        Ok(steps)
    }

    /// Applies a [`Fault`] to the trace collected so far.
    ///
    /// [`Fault::Spoof`] interns the forged action into this simulator's
    /// symbol table (with interpretation `spoofed`), so the mutated
    /// trace still resolves through [`Simulator::symbols`] /
    /// [`Simulator::trace_names`].
    pub fn inject(&mut self, fault: &Fault) {
        let target = fault.action().map(|a| self.symbols.intern(a));
        // Build the forged label up front: it exists exactly when the
        // fault is a spoof carrying an action, so the stream mutation
        // below needs no partial `expect`s.
        let forged = match (fault, target) {
            (Fault::Spoof { .. }, Some(automaton)) => Some(TransitionLabel {
                automaton,
                interpretation: self.symbols.intern("spoofed"),
            }),
            _ => None,
        };
        let mut trace = std::mem::take(&mut self.trace);
        fault.apply_stream_with(
            &mut trace,
            |l: TransitionLabel| Some(l.automaton) == target,
            forged,
        );
        self.trace = trace;
    }
}

/// A split-mix style PRNG step (deterministic, dependency-free): the
/// one draw both [`Simulator`] and [`GraphWalk`] use, so the two cannot
/// pick different edges from the same seed.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A [`ReachGraph`] flattened for seeded random walks: CSR offsets, one
/// target state per edge and one caller-chosen event per edge.
///
/// [`GraphWalk::walk`] replays [`Simulator`] runs without firing a
/// rule: the graph lists each state's outgoing edges in
/// [`Apa::successors`] order (automata in declaration order, firings in
/// rule order), so the same seed draws the same edge at every step.
/// This holds for rules that are pure functions of their local state —
/// the assumption the arena reachability kernel already makes.
#[derive(Debug, Clone)]
pub struct GraphWalk<T> {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    events: Vec<T>,
}

impl<T: Copy> GraphWalk<T> {
    /// Flattens `graph`, mapping every edge label to its event with
    /// `event` (called once per edge, in edge order).
    pub fn new(graph: &ReachGraph, event: impl FnMut(TransitionLabel) -> T) -> Self {
        let (offsets, targets) = graph.csr_successors();
        GraphWalk {
            offsets: offsets.to_vec(),
            targets,
            events: graph.edges().map(|(_, l, _)| l).map(event).collect(),
        }
    }

    /// Number of states of the flattened graph.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Walks from the initial state until a dead state or `max_steps`,
    /// appending one event per step to `out` and returning the number
    /// of steps — the trace of `Simulator::new(apa, seed).run(max_steps)`.
    pub fn walk(&self, seed: u64, max_steps: usize, out: &mut Vec<T>) -> usize {
        let mut rng = seed | 1;
        let mut state = 0usize;
        let mut steps = 0;
        while steps < max_steps {
            let (lo, hi) = (
                self.offsets[state] as usize,
                self.offsets[state + 1] as usize,
            );
            if lo == hi {
                break;
            }
            let edge = lo + (splitmix_next(&mut rng) as usize) % (hi - lo);
            out.push(self.events[edge]);
            state = self.targets[edge] as usize;
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ApaBuilder;
    use crate::reach::ReachOptions;
    use crate::rule;
    use crate::value::Value;

    fn pipeline() -> Apa {
        let mut b = ApaBuilder::new();
        let c0 = b.component("c0", [Value::atom("x"), Value::atom("y")]);
        let c1 = b.component("c1", []);
        let c2 = b.component("c2", []);
        b.automaton("first", [c0, c1], rule::move_any(0, 1));
        b.automaton("second", [c1, c2], rule::move_any(0, 1));
        b.build().unwrap()
    }

    #[test]
    fn run_terminates_in_dead_state() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 4, "two items, two hops each");
        assert!(sim.step().unwrap().is_none(), "dead state reached");
        assert_eq!(sim.trace().len(), 4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let apa = pipeline();
        let mut a = Simulator::new(&apa, 7);
        let mut b = Simulator::new(&apa, 7);
        a.run(100).unwrap();
        b.run(100).unwrap();
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn seeds_explore_different_interleavings() {
        let apa = pipeline();
        let traces: std::collections::BTreeSet<Vec<String>> = (0..32)
            .map(|seed| {
                let mut sim = Simulator::new(&apa, seed);
                sim.run(100).unwrap();
                sim.trace_names().into_iter().map(str::to_owned).collect()
            })
            .collect();
        assert!(traces.len() > 1, "nondeterminism explored across seeds");
    }

    #[test]
    fn traces_accepted_by_behaviour() {
        let apa = pipeline();
        let nfa = apa.reachability(&ReachOptions::default()).unwrap().to_nfa();
        for seed in 0..16 {
            let mut sim = Simulator::new(&apa, seed);
            sim.run(100).unwrap();
            let word = sim.trace_names();
            assert!(nfa.accepts(word.iter().copied()), "trace {word:?}");
        }
    }

    #[test]
    fn fault_parse_roundtrip_and_errors() {
        for (s, f) in [
            (
                "drop:V1_sense",
                Fault::Drop {
                    action: "V1_sense".into(),
                },
            ),
            (
                "spoof:V3_show",
                Fault::Spoof {
                    action: "V3_show".into(),
                },
            ),
            ("reorder:4", Fault::Reorder { window: 4 }),
        ] {
            let parsed = Fault::parse(s).unwrap();
            assert_eq!(parsed, f);
            assert_eq!(parsed.to_string(), s);
        }
        assert!(Fault::parse("nonsense").is_err());
        assert!(Fault::parse("reorder:zero").is_err());
        assert!(Fault::parse("explode:now").is_err());
    }

    /// Regression: `drop:` / `spoof:` used to fall through to the
    /// generic "unknown fault `drop`" arm — a misleading diagnosis for
    /// a *known* kind with a missing action. The empty action name now
    /// gets its own typed message (it would otherwise build a fault
    /// that silently matches nothing).
    #[test]
    fn fault_parse_rejects_empty_action_names_with_a_typed_error() {
        for s in ["drop:", "spoof:"] {
            let err = Fault::parse(s).unwrap_err();
            assert!(
                err.contains("expects a non-empty action name"),
                "{s}: {err}"
            );
            assert!(
                !err.contains("unknown fault"),
                "{s}: the kind is known, the value is missing: {err}"
            );
        }
    }

    #[test]
    fn drop_removes_all_occurrences() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        assert!(sim.trace_names().contains(&"first"));
        sim.inject(&Fault::Drop {
            action: "first".into(),
        });
        assert!(!sim.trace_names().contains(&"first"));
        assert_eq!(sim.trace_names(), vec!["second", "second"]);
    }

    #[test]
    fn spoof_prepends_forged_event() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        sim.inject(&Fault::Spoof {
            action: "second".into(),
        });
        let names = sim.trace_names();
        assert_eq!(names[0], "second");
        assert_eq!(names.len(), 5);
        let first = sim.trace()[0];
        assert_eq!(sim.name(first.interpretation), "spoofed");
    }

    #[test]
    fn reorder_reverses_windows_and_window_one_is_identity() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 42);
        sim.run(100).unwrap();
        let honest = sim.trace().to_vec();
        sim.inject(&Fault::Reorder { window: 1 });
        assert_eq!(sim.trace(), honest.as_slice(), "window 1 is the identity");
        sim.inject(&Fault::Reorder { window: 2 });
        let expected: Vec<_> = honest
            .chunks(2)
            .flat_map(|c| c.iter().rev().copied())
            .collect();
        assert_eq!(sim.trace(), expected.as_slice());
    }

    #[test]
    fn spoof_of_foreign_action_interns_it() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 3);
        sim.run(100).unwrap();
        sim.inject(&Fault::Spoof {
            action: "ATK_inject".into(),
        });
        assert_eq!(sim.trace_names()[0], "ATK_inject");
    }

    #[test]
    fn graph_walk_replays_simulator_runs() {
        // A cyclic model (tokens shuttle between a and b forever), so
        // the step budget, not a dead state, ends most walks.
        let mut b = ApaBuilder::new();
        let a = b.component("a", [Value::atom("x"), Value::atom("y")]);
        let c = b.component("b", []);
        b.automaton("there", [a, c], rule::move_any(0, 1));
        b.automaton("back", [c, a], rule::move_any(0, 1));
        let cyclic = b.build().unwrap();
        for apa in [pipeline(), cyclic] {
            let graph = apa.reachability(&ReachOptions::default()).unwrap();
            let walk = GraphWalk::new(&graph, |l| l);
            assert_eq!(walk.state_count(), graph.state_count());
            for seed in 0..16u64 {
                for budget in [0usize, 1, 3, 50] {
                    let mut sim = Simulator::new(&apa, seed);
                    let steps = sim.run(budget).unwrap();
                    let mut trace = Vec::new();
                    assert_eq!(walk.walk(seed, budget, &mut trace), steps);
                    let walked: Vec<_> = trace
                        .iter()
                        .map(|l| (graph.name(l.automaton), graph.name(l.interpretation)))
                        .collect();
                    let simulated: Vec<_> = sim
                        .trace()
                        .iter()
                        .map(|l| (sim.name(l.automaton), sim.name(l.interpretation)))
                        .collect();
                    assert_eq!(walked, simulated, "seed {seed} budget {budget}");
                }
            }
        }
    }

    #[test]
    fn max_steps_respected() {
        let apa = pipeline();
        let mut sim = Simulator::new(&apa, 1);
        assert_eq!(sim.run(2).unwrap(), 2);
        assert_eq!(sim.trace().len(), 2);
    }

    /// Regression for the former partial `expect`s in `inject`: every
    /// fault kind applies cleanly to an *empty* trace (fresh
    /// simulator), and a spoof with `apply_stream_with(..., None)`
    /// degrades to a no-op instead of panicking.
    #[test]
    fn inject_never_panics_on_fresh_traces() {
        let apa = pipeline();
        for fault in [
            Fault::Drop {
                action: "first".into(),
            },
            Fault::Spoof {
                action: "first".into(),
            },
            Fault::Reorder { window: 3 },
        ] {
            let mut sim = Simulator::new(&apa, 9);
            sim.inject(&fault);
            match fault {
                Fault::Spoof { .. } => assert_eq!(sim.trace().len(), 1, "{fault}"),
                _ => assert!(sim.trace().is_empty(), "{fault}"),
            }
        }
        // Spoof without a forged event is a no-op, not a panic.
        let mut events = vec![1u32, 2, 3];
        Fault::Spoof { action: "x".into() }.apply_stream_with(&mut events, |_| false, None);
        assert_eq!(events, vec![1, 2, 3]);
    }
}
