//! `explore-v4`: the paper's §4 method on the 4-vehicle universe.
//!
//! One op enumerates the structurally different instances of one RSU
//! and up to four vehicles (`enumerate_instances_with_stats` over the
//! component models and connection rules of
//! `vanet::exploration::scenario_universe`, which is what
//! `explore_scenario` does) and unions their elicited requirements
//! (`fsa_core::explore::union_requirements_loop_free`): 3 015 classes,
//! 44 requirements. The scenario is fixed; the seed is ignored.

use crate::expected::{self, Expected};
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Spec, Workload};
use fsa_core::component_model::ComponentModel;
use fsa_core::explore::{
    enumerate_instances_with_stats, union_requirements_loop_free, ConnectionRule, ExecOptions,
    Exploration, ExploreOptions,
};
use fsa_core::RequirementSet;
use fsa_obs::{Obs, Snapshot};
use std::fmt::Write as _;
use std::path::Path;

const MAX_VEHICLES: usize = 4;

pub const SPEC: Spec = Spec {
    setups: 50,
    warmup: 1,
};

pub struct ExploreV4 {
    /// The universe's component models with their multiplicities.
    models: Vec<(ComponentModel, usize)>,
    rules: Vec<ConnectionRule>,
    last_obs: Option<Snapshot>,
}

pub struct Output {
    exploration: Exploration,
    union: RequirementSet,
    loop_skipped: usize,
}

/// Builds and validates the universe's component models and connection
/// rules, which every op enumerates.
pub fn setup(_ctx: &Ctx) -> Result<ExploreV4, String> {
    let (models, rules) = vanet::exploration::scenario_universe(MAX_VEHICLES);
    for (model, _) in &models {
        model.validate().map_err(|e| e.to_string())?;
    }
    Ok(ExploreV4 {
        models,
        rules,
        last_obs: None,
    })
}

/// `fsa explore --max-vehicles 4`'s standard output for this result.
fn render(exploration: &Exploration, union: &RequirementSet, skipped: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "universe with 1 RSU and up to {MAX_VEHICLES} vehicle(s): {} structurally different \
         connected instance(s){}",
        exploration.instances.len(),
        if exploration.stats.truncated {
            " (truncated at budget)"
        } else {
            ""
        }
    );
    for inst in &exploration.instances {
        let _ = writeln!(
            out,
            "  {:32} {} action(s), {} flow(s)",
            inst.name(),
            inst.action_count(),
            inst.graph().edge_count()
        );
    }
    let _ = writeln!(
        out,
        "union over the universe: {} requirement(s) ({skipped} cyclic composition(s) skipped)",
        union.len()
    );
    for req in union.iter() {
        let _ = writeln!(out, "  {req}");
    }
    out
}

impl Workload for ExploreV4 {
    type Output = Output;

    fn run(&mut self, _op: u64, tr: &mut Tracer) -> Result<Output, String> {
        let obs = if tr.is_on() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let options = ExploreOptions {
            obs: obs.clone(),
            ..ExploreOptions::default()
        };
        let exploration = tr
            .layer("core.explore.enumerate", || {
                enumerate_instances_with_stats(&self.models, &self.rules, &options)
            })
            .map_err(|e| format!("exploration failed: {e}"))?;
        let (union, loop_skipped) = tr
            .layer("core.explore.union", || {
                union_requirements_loop_free(&exploration.instances)
            })
            .map_err(|e| format!("union failed: {e}"))?;
        if tr.is_on() {
            let s = &exploration.stats;
            tr.count("core.explore.scan_ms", s.scan_time.as_secs_f64() * 1e3);
            tr.count("core.explore.build_ms", s.build_time.as_secs_f64() * 1e3);
            tr.count("core.explore.candidates", s.candidates as f64);
            tr.count("core.explore.classes", s.classes as f64);
            tr.count("core.explore.iso_fallbacks", s.exact_iso_fallbacks as f64);
            self.last_obs = Some(obs.snapshot());
        }
        Ok(Output {
            exploration,
            union,
            loop_skipped,
        })
    }

    fn check(&mut self, ctx: &Ctx, _op: u64, out: Output, tr: &mut Tracer) -> Result<(), String> {
        check_output(&ctx.expected, &out)?;
        if tr.is_on() {
            // §4 elicitation of every class on its own, outside the op:
            // the union's fold costs `union_ms` minus this.
            tr.layer("core.manual.elicit", || {
                for inst in &out.exploration.instances {
                    let _ = std::hint::black_box(fsa_core::manual::elicit(inst));
                }
            });
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, m: &mut Metrics) {
        m.set(
            "core.explore.enumerate_ms",
            tr.median_ms("core.explore.enumerate"),
        );
        m.set(
            "core.explore.scan_ms",
            tr.median_count("core.explore.scan_ms"),
        );
        m.set(
            "core.explore.build_ms",
            tr.median_count("core.explore.build_ms"),
        );
        m.set(
            "core.explore.enumerate_allocs",
            tr.median_allocs("core.explore.enumerate"),
        );
        m.set("core.explore.union_ms", tr.median_ms("core.explore.union"));
        m.set(
            "core.explore.union_allocs",
            tr.median_allocs("core.explore.union"),
        );
        m.set(
            "core.explore.union_alloc_mb",
            tr.median_bytes("core.explore.union") / (1024.0 * 1024.0),
        );
        m.set("core.manual.elicit_ms", tr.median_ms("core.manual.elicit"));
        let candidates = tr.median_count("core.explore.candidates");
        let classes = tr.median_count("core.explore.classes");
        m.set("core.explore.candidates", candidates);
        m.set("core.explore.classes", classes);
        m.set("core.explore.class_yield", classes / candidates);
        m.set(
            "core.explore.iso_fallbacks",
            tr.median_count("core.explore.iso_fallbacks"),
        );
    }

    fn obs_export(&self) -> Option<(String, String)> {
        self.last_obs
            .as_ref()
            .map(|s| (s.to_stats_json(), s.to_trace_json()))
    }

    fn teardown(self) {}
}

fn check_output(expected: &Expected, out: &Output) -> Result<(), String> {
    expected.check("classes", &out.exploration.instances.len().to_string())?;
    expected.check("requirements", &out.union.len().to_string())?;
    expected.check(
        "report",
        &digest(&render(&out.exploration, &out.union, out.loop_skipped)),
    )
}

/// Writes `explore-v4.txt` after checking the result against the
/// supervised engine and the one-shot `fsa explore` rendering.
pub fn bless(_root: &Path, dir: &Path) -> Result<(), String> {
    let exploration =
        vanet::exploration::explore_scenario(MAX_VEHICLES, &ExploreOptions::default())
            .map_err(|e| e.to_string())?;
    let (union, skipped) =
        union_requirements_loop_free(&exploration.instances).map_err(|e| e.to_string())?;
    let text = render(&exploration, &union, skipped);

    let supervised = vanet::exploration::explore_scenario_supervised(
        MAX_VEHICLES,
        &ExploreOptions::default(),
        &ExecOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let (sup_union, sup_skipped) =
        union_requirements_loop_free(&supervised.instances).map_err(|e| e.to_string())?;
    if render(&supervised, &sup_union, sup_skipped) != text {
        return Err("explore_scenario and explore_scenario_supervised disagree".to_owned());
    }
    let args: Vec<String> = ["explore", "--max-vehicles", "4"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let one_shot = fsa_serve::cli::dispatch(&args);
    if one_shot.exit != 0 || one_shot.stdout != text {
        return Err(
            "the benchmark's rendering differs from `fsa explore --max-vehicles 4`".to_owned(),
        );
    }
    expected::write(
        dir,
        "explore-v4",
        "explore-v4: explore_scenario(4) + union_requirements_loop_free.\n\
         Cross-checked against explore_scenario_supervised and `fsa explore --max-vehicles 4`.",
        &[
            (
                "classes".to_owned(),
                exploration.instances.len().to_string(),
            ),
            ("requirements".to_owned(), union.len().to_string()),
            ("report".to_owned(), digest(&text)),
        ],
    )
}
