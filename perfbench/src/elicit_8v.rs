//! `elicit-8v`: the paper's §5 pipeline alone, on eight vehicles.
//!
//! One op builds the reachability graph of `n_pair_apa(4)` (20 736
//! states, a working set far beyond L2) and runs the tool-assisted
//! elicitation with the serving configuration
//! (`assisted::elicit_observed` under `ElicitOptions::service(1)`).
//! No enumeration, union or simulation runs. The model is fixed; the
//! seed is ignored.

use crate::expected::{self, Expected};
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Spec, Workload};
use apa::{Apa, ReachGraph, ReachOptions};
use fsa_core::assisted::{elicit_observed, AssistedReport, ElicitOptions};
use fsa_obs::{Obs, Snapshot};
use std::fmt::Write as _;
use std::path::Path;
use vanet::semantics::ApaSemantics;

const PAIRS: usize = 4;

pub const SPEC: Spec = Spec {
    setups: 50,
    warmup: 2,
};

pub struct Elicit8v {
    apa: Apa,
    last_obs: Option<Snapshot>,
}

pub struct Output {
    states: usize,
    edges: usize,
    report: AssistedReport,
}

pub fn setup(_ctx: &Ctx) -> Result<Elicit8v, String> {
    let apa =
        vanet::apa_model::n_pair_apa(PAIRS, ApaSemantics::PAPER).map_err(|e| e.to_string())?;
    Ok(Elicit8v {
        apa,
        last_obs: None,
    })
}

fn elicit(graph: &ReachGraph, obs: &Obs) -> AssistedReport {
    elicit_observed(
        graph,
        &ElicitOptions::service(1),
        obs,
        vanet::apa_model::stakeholder_of,
    )
}

/// The report in the layout of `fsa elicit --scenario`.
fn render(report: &AssistedReport) -> String {
    let list = |items: &[String]| {
        if items.is_empty() {
            "(none)".to_owned()
        } else {
            items.join(" ")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario eight: {} state(s), {} edge(s)",
        report.state_count, report.edge_count
    );
    let _ = writeln!(out, "minima: {}", list(&report.minima));
    let _ = writeln!(out, "maxima: {}", list(&report.maxima));
    let dependent = report.verdicts.iter().filter(|v| v.dependent).count();
    let _ = writeln!(
        out,
        "dependent pairs: {dependent} of {} analysed",
        report.verdicts.len()
    );
    let _ = writeln!(out, "requirements ({}):", report.requirements.len());
    for req in report.requirements.iter() {
        let _ = writeln!(out, "  {req}");
    }
    out
}

impl Workload for Elicit8v {
    type Output = Output;

    fn run(&mut self, _op: u64, tr: &mut Tracer) -> Result<Output, String> {
        let obs = if tr.is_on() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let graph = tr
            .layer("apa.reach", || {
                self.apa.reachability(&ReachOptions::default())
            })
            .map_err(|e| format!("reachability failed: {e}"))?;
        let report = tr.layer("core.assisted.elicit", || elicit(&graph, &obs));
        if tr.is_on() {
            record_assisted(tr, &graph, &report);
            self.last_obs = Some(obs.snapshot());
        }
        Ok(Output {
            states: graph.state_count(),
            edges: graph.edge_count(),
            report,
        })
    }

    fn check(&mut self, ctx: &Ctx, _op: u64, out: Output, _tr: &mut Tracer) -> Result<(), String> {
        check_output(&ctx.expected, &out)
    }

    fn layers(&mut self, tr: &Tracer, m: &mut Metrics) {
        assisted_layers(tr, m);
    }

    fn obs_export(&self) -> Option<(String, String)> {
        self.last_obs
            .as_ref()
            .map(|s| (s.to_stats_json(), s.to_trace_json()))
    }

    fn teardown(self) {}
}

/// Counts of the reachability and elicitation layers of one op.
pub fn record_assisted(tr: &mut Tracer, graph: &ReachGraph, report: &AssistedReport) {
    let s = &report.stats;
    tr.count("apa.reach.states", graph.state_count() as f64);
    tr.count("apa.reach.edges", graph.edge_count() as f64);
    tr.count(
        "core.assisted.behaviour_nfa_ms",
        s.behaviour_nfa.as_secs_f64() * 1e3,
    );
    tr.count(
        "core.assisted.prune_pass_ms",
        s.prune_pass.as_secs_f64() * 1e3,
    );
    tr.count(
        "core.assisted.pair_eval_ms",
        s.pair_eval.as_secs_f64() * 1e3,
    );
    tr.count("core.assisted.pairs_total", s.pairs_total as f64);
    tr.count(
        "core.assisted.prune_ratio",
        s.pairs_pruned as f64 / (s.pairs_total.max(1)) as f64,
    );
}

/// Per-layer metrics of the `apa.reach` and `core.assisted.elicit`
/// spans and the counts [`record_assisted`] took.
pub fn assisted_layers(tr: &Tracer, m: &mut Metrics) {
    m.set("apa.reach_ms", tr.median_ms("apa.reach"));
    m.set("apa.reach_allocs", tr.median_allocs("apa.reach"));
    m.set(
        "core.assisted.elicit_ms",
        tr.median_ms("core.assisted.elicit"),
    );
    m.set(
        "core.assisted.allocs",
        tr.median_allocs("core.assisted.elicit"),
    );
    for name in [
        "apa.reach.states",
        "apa.reach.edges",
        "core.assisted.behaviour_nfa_ms",
        "core.assisted.prune_pass_ms",
        "core.assisted.pair_eval_ms",
        "core.assisted.pairs_total",
        "core.assisted.prune_ratio",
    ] {
        m.set(name, tr.median_count(name));
    }
}

fn check_output(expected: &Expected, out: &Output) -> Result<(), String> {
    expected.check("states", &out.states.to_string())?;
    expected.check("edges", &out.edges.to_string())?;
    expected.check("requirements", &out.report.requirements.len().to_string())?;
    expected.check("report", &digest(&render(&out.report)))
}

/// Writes `elicit-8v.txt` after checking the arena reachability kernel
/// against `Apa::reachability_reference` (states, edges, and the
/// elicitation run on either graph).
pub fn bless(_root: &Path, dir: &Path) -> Result<(), String> {
    let apa =
        vanet::apa_model::n_pair_apa(PAIRS, ApaSemantics::PAPER).map_err(|e| e.to_string())?;
    let graph = apa
        .reachability(&ReachOptions::default())
        .map_err(|e| e.to_string())?;
    let reference = apa
        .reachability_reference(&ReachOptions::default())
        .map_err(|e| e.to_string())?;
    if (graph.state_count(), graph.edge_count())
        != (reference.state_count(), reference.edge_count())
    {
        return Err("arena and reference reachability disagree".to_owned());
    }
    let report = elicit(&graph, &Obs::disabled());
    let text = render(&report);
    if render(&elicit(&reference, &Obs::disabled())) != text {
        return Err("elicitation over the reference graph differs".to_owned());
    }
    expected::write(
        dir,
        "elicit-8v",
        "elicit-8v: n_pair_apa(4) reachability + elicit_observed(ElicitOptions::service(1)).\n\
         Cross-checked against Apa::reachability_reference.",
        &[
            ("states".to_owned(), graph.state_count().to_string()),
            ("edges".to_owned(), graph.edge_count().to_string()),
            (
                "requirements".to_owned(),
                report.requirements.len().to_string(),
            ),
            ("report".to_owned(), digest(&text)),
        ],
    )
}
