//! `monitor-six`: the one-shot `fsa monitor --scenario six` pipeline.
//!
//! One op builds the six-vehicle reachability graph (1 728 states,
//! cache-resident), elicits its requirements
//! (`assisted::elicit_from_graph`), compiles the monitor bank
//! (`MonitorBank::for_apa`) and checks a fleet of 8 streams × 1 024
//! events (`run_fleet`, `FleetConfig`'s default shape). The fleet seed
//! of op `i` is the `i mod 8`-th seed derived from the workload seed,
//! so the inputs cycle through a fixed set. The fleet is honest, so the
//! rendered verdicts (every monitor holds on all 8 streams, 8 192
//! events checked) are the same for every fleet seed.
//!
//! The honest verdicts cannot tell one simulated stream from another,
//! so the untimed check also runs each derived fleet seed once under
//! the fault `reorder:64`, whose counterexample prefixes are windows of
//! the simulated streams. Those renderings must match the blessed ones
//! (workload seeds `0..4`), differ from one derived seed to the next,
//! and repeat exactly when a seed comes round again.

use crate::expected::{self, Expected};
use crate::stats::{digest, splitmix};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Spec, Workload};
use apa::{Apa, Fault, ReachOptions};
use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
use fsa_obs::{Obs, Snapshot};
use fsa_runtime::{run_fleet, FleetConfig, MonitorBank};
use std::path::Path;
use vanet::semantics::ApaSemantics;

const STREAMS: usize = 8;
const EVENTS_PER_STREAM: usize = 1024;
/// Derived fleet seeds per workload seed.
const DERIVED: u64 = 8;
/// Workload seeds whose fleet seeds `--bless` cross-checks.
const BLESSED: u64 = 4;
/// The fault of the seed-dependent check, in `fsa monitor --inject`
/// syntax: reversing windows of 64 events breaks precedence
/// requirements at points that depend on the simulated stream.
const FAULT: &str = "reorder:64";

pub const SPEC: Spec = Spec {
    setups: 50,
    warmup: 4,
};

/// The fleet seed of op `op` under workload seed `seed`.
fn fleet_seed(seed: u64, op: u64) -> u64 {
    splitmix(seed.wrapping_mul(DERIVED).wrapping_add(op % DERIVED))
}

pub struct MonitorSix {
    apa: Apa,
    seed: u64,
    last_obs: Option<Snapshot>,
    /// Digest of the faulted rendering per derived fleet seed, once
    /// checked, and whether it has been repeated since.
    faulted: Vec<Option<(String, bool)>>,
}

pub struct Output {
    text: String,
    events: u64,
    violated: usize,
}

pub fn setup(ctx: &Ctx) -> Result<MonitorSix, String> {
    let apa = vanet::apa_model::n_pair_apa(3, ApaSemantics::PAPER).map_err(|e| e.to_string())?;
    Ok(MonitorSix {
        apa,
        seed: ctx.seed,
        last_obs: None,
        faulted: vec![None; DERIVED as usize],
    })
}

fn fault() -> Fault {
    Fault::parse(FAULT).expect("FAULT is valid `--inject` syntax")
}

/// One pipeline run; its rendering matches `fsa monitor --scenario six
/// --streams 8 --events 8192 --seed <fleet_seed>` (plus `--inject
/// <fault>` when `fault` is set).
fn pipeline(
    apa: &Apa,
    fleet_seed: u64,
    fault: Option<Fault>,
    obs: &Obs,
    tr: &mut Tracer,
) -> Result<Output, String> {
    let graph = tr
        .layer("apa.reach", || apa.reachability(&ReachOptions::default()))
        .map_err(|e| format!("reachability failed: {e}"))?;
    let elicited = tr.layer("core.assisted.elicit", || {
        elicit_from_graph(
            &graph,
            DependenceMethod::Precedence,
            vanet::apa_model::stakeholder_of,
        )
    });
    let bank = tr
        .layer("runtime.bank.compile", || {
            MonitorBank::for_apa(&elicited.requirements, apa)
        })
        .map_err(|e| format!("bank compilation failed: {e}"))?;
    let cfg = FleetConfig {
        streams: STREAMS,
        events_per_stream: EVENTS_PER_STREAM,
        seed: fleet_seed,
        threads: 1,
        fault,
        obs: obs.clone(),
        ..FleetConfig::default()
    };
    let report = tr
        .layer("runtime.fleet.run", || run_fleet(apa, &bank, &cfg))
        .map_err(|e| format!("monitoring failed: {e}"))?;
    if tr.is_on() {
        crate::elicit_8v::record_assisted(tr, &graph, &elicited);
        let s = &report.stats;
        tr.count("runtime.fleet.simulate_ms", s.simulate.as_secs_f64() * 1e3);
        tr.count("runtime.fleet.check_ms", s.check.as_secs_f64() * 1e3);
        tr.count("runtime.fleet.events", report.events as f64);
        tr.count("runtime.fleet.violations", report.violated() as f64);
    }
    let text = format!(
        "scenario six: {} requirement(s) compiled into a fused bank ({} event symbols)\n{}",
        bank.len(),
        bank.alphabet_len(),
        report.render()
    );
    Ok(Output {
        text,
        events: report.events,
        violated: report.violated(),
    })
}

impl Workload for MonitorSix {
    type Output = Output;

    fn run(&mut self, op: u64, tr: &mut Tracer) -> Result<Output, String> {
        let obs = if tr.is_on() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let out = pipeline(&self.apa, fleet_seed(self.seed, op), None, &obs, tr)?;
        if tr.is_on() {
            self.last_obs = Some(obs.snapshot());
        }
        Ok(out)
    }

    fn check(&mut self, ctx: &Ctx, op: u64, out: Output, _tr: &mut Tracer) -> Result<(), String> {
        check_output(&ctx.expected, &out)?;
        let k = (op % DERIVED) as usize;
        if self.faulted[k]
            .as_ref()
            .is_some_and(|(_, repeated)| *repeated)
        {
            return Ok(());
        }
        let d = faulted_digest(&self.apa, fleet_seed(self.seed, op))?;
        match &mut self.faulted[k] {
            Some((first, repeated)) => {
                if *first != d {
                    return Err(format!(
                        "fleet seed {} rendered {d} under {FAULT}, earlier {first}",
                        fleet_seed(self.seed, op)
                    ));
                }
                *repeated = true;
            }
            slot => {
                if let Some(want) = ctx.expected.get(&faulted_key(self.seed, k as u64)) {
                    if want != d {
                        return Err(format!(
                            "fleet seed {} under {FAULT}: expected {want}, got {d}",
                            fleet_seed(self.seed, op)
                        ));
                    }
                }
                *slot = Some((d, false));
            }
        }
        let mut seen: Vec<&str> = self
            .faulted
            .iter()
            .flatten()
            .map(|(d, _)| d.as_str())
            .collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != n {
            return Err(format!(
                "two derived fleet seeds of workload seed {} render the same streams under {FAULT}",
                self.seed
            ));
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, m: &mut Metrics) {
        crate::elicit_8v::assisted_layers(tr, m);
        m.set(
            "runtime.bank.compile_ms",
            tr.median_ms("runtime.bank.compile"),
        );
        m.set("runtime.fleet.run_ms", tr.median_ms("runtime.fleet.run"));
        m.set(
            "runtime.fleet.allocs",
            tr.median_allocs("runtime.fleet.run"),
        );
        for name in [
            "runtime.fleet.simulate_ms",
            "runtime.fleet.check_ms",
            "runtime.fleet.events",
            "runtime.fleet.violations",
        ] {
            m.set(name, tr.median_count(name));
        }
    }

    fn obs_export(&self) -> Option<(String, String)> {
        self.last_obs
            .as_ref()
            .map(|s| (s.to_stats_json(), s.to_trace_json()))
    }

    fn teardown(self) {}
}

/// Every fleet seed must check exactly `STREAMS × EVENTS_PER_STREAM`
/// events with no violation (the fleet is honest) and render the
/// blessed verdicts.
fn check_output(expected: &Expected, out: &Output) -> Result<(), String> {
    let want_events = (STREAMS * EVENTS_PER_STREAM) as u64;
    if out.events != want_events {
        return Err(format!(
            "checked {} events, expected {want_events}",
            out.events
        ));
    }
    if out.violated != 0 {
        return Err(format!(
            "an honest fleet violated {} monitor(s)",
            out.violated
        ));
    }
    expected.check("report", &digest(&out.text))
}

/// The expected-file key of derived fleet seed `k` of workload seed
/// `seed`.
fn faulted_key(seed: u64, k: u64) -> String {
    format!("faulted.{seed}.{k}")
}

/// Runs the pipeline for `fleet_seed` under [`FAULT`] (untimed) and
/// returns the digest of its rendering. Reordering keeps every event,
/// so exactly `STREAMS × EVENTS_PER_STREAM` must be checked.
fn faulted_digest(apa: &Apa, fleet_seed: u64) -> Result<String, String> {
    let out = pipeline(
        apa,
        fleet_seed,
        Some(fault()),
        &Obs::disabled(),
        &mut Tracer::new(false),
    )?;
    let want_events = (STREAMS * EVENTS_PER_STREAM) as u64;
    if out.events != want_events {
        return Err(format!(
            "fleet seed {fleet_seed} under {FAULT}: checked {} events, expected {want_events}",
            out.events
        ));
    }
    Ok(digest(&out.text))
}

/// `fsa monitor` arguments for `fleet_seed`, with `--inject` when
/// `faulted`.
fn one_shot_args(fleet_seed: u64, faulted: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "monitor".to_owned(),
        "--scenario".to_owned(),
        "six".to_owned(),
        "--streams".to_owned(),
        STREAMS.to_string(),
        "--events".to_owned(),
        (STREAMS * EVENTS_PER_STREAM).to_string(),
        "--seed".to_owned(),
        fleet_seed.to_string(),
    ]
    .into();
    if faulted {
        args.push("--inject".to_owned());
        args.push(FAULT.to_owned());
    }
    args
}

/// Writes `monitor-six.txt`: the digest of the honest verdicts, which
/// every fleet seed derived from workload seeds `0..BLESSED` must
/// reproduce, and the digest of each of those fleet seeds under
/// [`FAULT`]; each rendering is cross-checked against the one-shot
/// `fsa monitor` rendering.
pub fn bless(_root: &Path, dir: &Path) -> Result<(), String> {
    let apa = vanet::apa_model::n_pair_apa(3, ApaSemantics::PAPER).map_err(|e| e.to_string())?;
    let mut report: Option<String> = None;
    let mut pairs = Vec::new();
    let mut off = Tracer::new(false);
    for seed in 0..BLESSED {
        for k in 0..DERIVED {
            let s = fleet_seed(seed, k);
            for faulted in [false, true] {
                let fault = faulted.then(fault);
                let out = pipeline(&apa, s, fault, &Obs::disabled(), &mut off)?;
                // `fsa monitor` exits 1 when a monitor is violated.
                let one_shot = fsa_serve::cli::dispatch(&one_shot_args(s, faulted));
                if one_shot.exit != u8::from(out.violated > 0) || one_shot.stdout != out.text {
                    return Err(format!(
                        "fleet seed {s}: the benchmark's rendering differs from `fsa monitor`{}",
                        if faulted { " under the fault" } else { "" }
                    ));
                }
                let d = digest(&out.text);
                if faulted {
                    if pairs.iter().any(|(_, v)| *v == d) {
                        return Err(format!("fleet seed {s} repeats another seed's streams"));
                    }
                    pairs.push((faulted_key(seed, k), d));
                } else if report.get_or_insert_with(|| d.clone()) != &d {
                    return Err(format!("fleet seed {s} renders different verdicts"));
                }
            }
        }
    }
    pairs.insert(0, ("report".to_owned(), report.expect("at least one seed")));
    expected::write(
        dir,
        "monitor-six",
        "monitor-six: reachability + elicit_from_graph + MonitorBank::for_apa + run_fleet\n\
         (8 streams x 1024 events). The honest fleet's verdicts (`report`) are seed-independent;\n\
         `faulted.W.K` is the rendering of derived fleet seed K of workload seed W under\n\
         --inject reorder:64, whose counterexamples depend on the simulated streams.\n\
         Each cross-checked against `fsa monitor --scenario six --streams 8 --events 8192\n\
         --seed S [--inject reorder:64]`.",
        &pairs,
    )
}
