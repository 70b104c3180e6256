//! End-to-end and per-layer benchmark of the fsa workspace.
//!
//! ```text
//! perfbench --workload <explore-v4|elicit-8v|monitor-six|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--root DIR] [--expected-dir DIR] [--out-dir DIR]
//! perfbench --bless [--workload <name>] [--root DIR] [--expected-dir DIR]
//! ```
//!
//! Every workload is a closed loop with one caller and one thread: the
//! next op starts when the previous one has returned. A run sets the
//! workload up, runs untimed warm-up ops, then times ops for
//! `--seconds`; further set-ups spread through the timed loop give the
//! samples whose median is `setup_s`. Every op's output is
//! checked against the workload's expected file, outside the timed
//! region. With `--trace 1` the run alternates untraced and traced ops;
//! traced ops get bench-side spans around each layer call, allocation
//! counts and an enabled `fsa_obs::Obs`, and the per-layer metrics come
//! from them. The last line of standard output is the result object.
//! `NOTES.md` describes each workload.

mod alloc;
mod diag;
mod elicit_8v;
mod expected;
mod explore_v4;
mod monitor_six;
mod serve_mix;
mod stats;
mod trace;

use expected::Expected;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["explore-v4", "elicit-8v", "monitor-six", "serve-mix"];

/// End-to-end metrics: `(name, unit, better, bound)`. `BENCHMARK.json`
/// must list exactly these (checked by the self-tests). The ops are
/// measured by their throughput (the mean over every op) and their
/// 90th percentile, not their median: a shared host can run the
/// program's code at two speeds in phases of seconds, and the median
/// sits between the two and jumps with their mix. The median and the
/// 5th percentile are printed with the diagnostics (`NOTES.md`,
/// Metrics).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_cpu_s", "1/s", "higher", 0.25),
    ("op_cpu_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
];

/// The bound of end-to-end metric `name`.
fn bound_of(name: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.3)
        .unwrap_or_else(|| panic!("metric {name} is not an end-to-end metric"))
}

/// Per-layer metrics of the traced run: `(name, unit, better)`. A
/// workload that never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    ("core.explore.enumerate_ms", "ms", "lower"),
    ("core.explore.scan_ms", "ms", "lower"),
    ("core.explore.build_ms", "ms", "lower"),
    ("core.explore.enumerate_allocs", "count", "lower"),
    ("core.explore.union_ms", "ms", "lower"),
    ("core.explore.union_allocs", "count", "lower"),
    ("core.explore.union_alloc_mb", "MB", "lower"),
    ("core.manual.elicit_ms", "ms", "lower"),
    ("core.explore.candidates", "count", "lower"),
    ("core.explore.classes", "count", "higher"),
    ("core.explore.class_yield", "ratio", "higher"),
    ("core.explore.iso_fallbacks", "count", "lower"),
    ("apa.reach_ms", "ms", "lower"),
    ("apa.reach_allocs", "count", "lower"),
    ("apa.reach.states", "count", "higher"),
    ("apa.reach.edges", "count", "higher"),
    ("core.assisted.elicit_ms", "ms", "lower"),
    ("core.assisted.behaviour_nfa_ms", "ms", "lower"),
    ("core.assisted.prune_pass_ms", "ms", "lower"),
    ("core.assisted.pair_eval_ms", "ms", "lower"),
    ("core.assisted.pairs_total", "count", "higher"),
    ("core.assisted.prune_ratio", "ratio", "higher"),
    ("core.assisted.allocs", "count", "lower"),
    ("runtime.bank.compile_ms", "ms", "lower"),
    ("runtime.fleet.run_ms", "ms", "lower"),
    ("runtime.fleet.simulate_ms", "ms", "lower"),
    ("runtime.fleet.check_ms", "ms", "lower"),
    ("runtime.fleet.events", "count", "higher"),
    ("runtime.fleet.violations", "count", "lower"),
    ("runtime.fleet.allocs", "count", "lower"),
    ("serve.elicit_ms_p50", "ms", "lower"),
    ("serve.edit_ms_p50", "ms", "lower"),
    ("serve.monitor_ms_p50", "ms", "lower"),
    ("serve.spec_ms_p50", "ms", "lower"),
    ("serve.server_us_p50", "us", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.wire.bytes_per_op", "B", "lower"),
    ("serve.accept_wait_ms", "ms", "lower"),
    ("core.incremental.memo_hit_ratio", "ratio", "higher"),
    ("core.incremental.invalidated", "count", "lower"),
    ("speclang.parse_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("bench.unattributed_pct", "%", "lower"),
];

/// What a workload tells the run loop.
pub struct Spec {
    /// Set-up samples per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed, checked ops before timing starts.
    pub warmup: usize,
}

/// Inputs shared by every set-up of one run.
pub struct Ctx {
    pub seed: u64,
    pub trace: bool,
    /// Repository root (where `specs/` lives).
    pub root: PathBuf,
    pub expected: Expected,
}

/// One closed-loop workload.
pub trait Workload {
    type Output;

    /// Runs op `op` through the program; the run loop times this call.
    /// `tr` is on for traced ops, and then each layer call is a span.
    fn run(&mut self, op: u64, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks one op's output (untimed). `tr` is the tracer the op ran
    /// with; untimed probes of a traced op record their spans here.
    fn check(
        &mut self,
        ctx: &Ctx,
        op: u64,
        out: Self::Output,
        tr: &mut Tracer,
    ) -> Result<(), String>;

    /// Fills per-layer metrics from the traced ops.
    fn layers(&mut self, tr: &Tracer, m: &mut Metrics);

    /// The program's own `fsa-obs` export of the traced ops, if any:
    /// `(stats JSON, chrome trace JSON)`.
    fn obs_export(&self) -> Option<(String, String)> {
        None
    }

    /// Releases what set-up acquired (threads, sockets).
    fn teardown(self);
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value, unit.to_owned())),
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    root: PathBuf,
    expected_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
        root: PathBuf::from("."),
        expected_dir: None,
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("one of explore-v4, elicit-8v, monitor-six, serve-mix"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--root" => args.root = PathBuf::from(value),
            "--expected-dir" => args.expected_dir = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.bless && args.workload.is_none() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected_dir = args
        .expected_dir
        .clone()
        .unwrap_or_else(|| args.root.join("perfbench/expected"));
    if args.bless {
        return match bless(&args, &expected_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: bless failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let workload = args.workload.clone().expect("checked by parse_args");
    let expected = match Expected::load(&expected_dir, &workload) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        root: args.root.clone(),
        expected,
    };
    let result = match workload.as_str() {
        "explore-v4" => drive(&args, &ctx, explore_v4::SPEC, explore_v4::setup),
        "elicit-8v" => drive(&args, &ctx, elicit_8v::SPEC, elicit_8v::setup),
        "monitor-six" => drive(&args, &ctx, monitor_six::SPEC, monitor_six::setup),
        _ => drive(&args, &ctx, serve_mix::SPEC, serve_mix::setup),
    };
    match result {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

fn bless(args: &Args, dir: &Path) -> Result<(), String> {
    for w in WORKLOADS {
        if args.workload.as_deref().is_some_and(|only| only != w) {
            continue;
        }
        eprintln!("perfbench: blessing {w}");
        match w {
            "explore-v4" => explore_v4::bless(&args.root, dir)?,
            "elicit-8v" => elicit_8v::bless(&args.root, dir)?,
            "monitor-six" => monitor_six::bless(&args.root, dir)?,
            _ => serve_mix::bless(&args.root, dir)?,
        }
    }
    Ok(())
}

/// Runs one workload and prints its result; `Ok(false)` when an op
/// failed its check or the run was not stationary.
fn drive<W: Workload>(
    args: &Args,
    ctx: &Ctx,
    spec: Spec,
    setup: fn(&Ctx) -> Result<W, String>,
) -> Result<bool, String> {
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let host_start = diag::HostSample::take();

    // Set-up. The kept instance is the first sample; untraced runs take
    // further samples (each torn down again) at even intervals through
    // the timed loop, so `setup_s` sees the same host conditions as the
    // ops. No op or warm-up runs inside a sample.
    let timed_setup = || -> Result<(W, Sample), String> {
        let clock = Sample::start();
        let w = setup(ctx)?;
        Ok((w, clock.stop()))
    };
    let (mut w, first_setup) = timed_setup()?;
    let mut setups = vec![first_setup];

    let mut off = Tracer::new(false);
    let mut on = Tracer::new(ctx.trace);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let note_failure = |op: u64, e: &str, failed: &mut u64| {
        if *failed < 5 {
            eprintln!("perfbench: {workload}: op {op} failed: {e}");
        }
        *failed += 1;
    };

    // Warm-up: checked, never timed.
    let mut op = 0u64;
    for _ in 0..spec.warmup {
        attempted += 1;
        match w.run(op, &mut off) {
            Ok(out) => {
                if let Err(e) = w.check(ctx, op, out, &mut off) {
                    note_failure(op, &e, &mut failed);
                }
            }
            Err(e) => note_failure(op, &e, &mut failed),
        }
        op += 1;
    }

    // The timed closed loop, at least two ops long. In trace mode even
    // ops run untraced and odd ops traced, so both see the same host
    // conditions.
    let mut ops: Vec<Sample> = Vec::new();
    let mut on_cpu = Vec::new();
    let mut usage = Vec::new();
    let mut branchy_ms = vec![host_start.branchy_ms];
    let mut rss_mb = Vec::new();
    let budget = args.seconds;
    let setup_every = budget / spec.setups as f64;
    let loop_start = Instant::now();
    let mut k = 0u64;
    while loop_start.elapsed().as_secs_f64() < budget || k < 2 {
        let traced = ctx.trace && k % 2 == 1;
        attempted += 1;
        let tr = if traced { &mut on } else { &mut off };
        let result = if traced {
            tr.set_op(op);
            alloc::set_counting(true);
            let root = tr.begin("op");
            let r = w.run(op, tr);
            tr.end(root);
            alloc::set_counting(false);
            r
        } else {
            let usage0 = diag::Usage::now();
            let clock = Sample::start();
            let r = w.run(op, tr);
            ops.push(clock.stop());
            usage.push(diag::Usage::now().since(usage0));
            on_cpu.push(diag::current_cpu());
            rss_mb.push(diag::rss_mb());
            r
        };
        match result {
            Ok(out) => {
                if let Err(e) = w.check(ctx, op, out, tr) {
                    note_failure(op, &e, &mut failed);
                }
            }
            Err(e) => note_failure(op, &e, &mut failed),
        }
        op += 1;
        k += 1;
        if !ctx.trace
            && setups.len() < spec.setups
            && loop_start.elapsed().as_secs_f64() >= setup_every * setups.len() as f64
        {
            let (extra, sample) = timed_setup()?;
            setups.push(sample);
            W::teardown(extra);
            branchy_ms.push(diag::branchy_probe());
        }
    }
    let peak_rss = diag::peak_rss_mb();
    let host_end = diag::HostSample::take();
    branchy_ms.push(host_end.branchy_ms);
    let cpu_ms: Vec<f64> = ops.iter().map(|s| s.cpu_ms).collect();
    let wall_ms: Vec<f64> = ops.iter().map(|s| s.wall_ms).collect();

    // Stationarity: a leak or a growing cache must fail the run rather
    // than pass as noise. Two arms fail an untraced run:
    // * time and memory: the last third's median op CPU time grew by
    //   more than the op-time bound over the first third's, and resident
    //   memory grew by more than the peak_rss_mb bound;
    // * time alone: the last third's p50 is more than twice the slowest
    //   tenth of the first third. The host's speed alone moved honest
    //   runs by up to 39 % on that measure, and its fast and slow phases
    //   differ by up to 75 %, so a tighter arm would fail honest runs.
    // `drift` (the time-alone ratio) and `drift_flag` (it exceeds the
    // single bound) are printed with the diagnostics either way. Traced
    // runs are exempt: an enabled `Obs` keeps every span it records,
    // so their memory grows by design.
    let third = cpu_ms.len() / 3;
    let thirds = |v: &[f64]| -> (f64, f64) {
        if third >= 3 {
            (median(&v[..third]), median(&v[v.len() - third..]))
        } else {
            (f64::NAN, f64::NAN)
        }
    };
    let (first, last) = thirds(&cpu_ms);
    let (rss_first, rss_last) = thirds(&rss_mb);
    let tenth = (cpu_ms.len() / 10).max(1);
    let tenths: Vec<f64> = cpu_ms.chunks(tenth).map(median).collect();
    let slowest_early_tenth = if third >= 3 {
        cpu_ms[..third]
            .chunks(tenth)
            .map(median)
            .fold(f64::NAN, f64::max)
    } else {
        f64::NAN
    };
    let bound = bound_of("op_cpu_ms_p90");
    let grew = last / first - 1.0 > bound && rss_last / rss_first - 1.0 > bound_of("peak_rss_mb");
    let drift = last / slowest_early_tenth;
    let drifted = drift > 2.0;
    let stationary = ctx.trace || !(grew || drifted);
    if !stationary {
        eprintln!(
            "perfbench: {workload}: not stationary: from the first to the last third, \
             the op CPU p50 went {first:.4} -> {last:.4} ms ({:.3}x the slowest early tenth, \
             {slowest_early_tenth:.4} ms) and resident memory {rss_first:.2} -> {rss_last:.2} MB",
            drift
        );
    }

    let mut m = Metrics::default();
    if ctx.trace {
        for (name, _, _) in PER_LAYER {
            m.set(name, 0.0);
        }
        w.layers(&on, &mut m);
        m.set(
            "obs.trace_overhead_pct",
            (median(&on.root_ms("op")) / median(&wall_ms) - 1.0) * 100.0,
        );
        m.set("bench.unattributed_pct", on.unattributed_pct("op"));
    } else {
        let setup_cpu_s: Vec<f64> = setups.iter().map(|s| s.cpu_ms / 1e3).collect();
        m.set("setup_s", median(&setup_cpu_s));
        m.set(
            "ops_per_cpu_s",
            cpu_ms.len() as f64 / (cpu_ms.iter().sum::<f64>() / 1e3),
        );
        m.set("op_cpu_ms_p90", quantile(&cpu_ms, 0.9));
        m.set("peak_rss_mb", peak_rss);
    }

    write_ops(args, ctx, workload, &ops, &on_cpu, &usage)?;
    if ctx.trace {
        write_trace(args, ctx, workload, &on, &w)?;
    }
    W::teardown(w);

    let correct = failed == 0 && stationary && !ops.is_empty();
    let setup_wall_s: Vec<f64> = setups.iter().map(|s| s.wall_ms / 1e3).collect();
    println!(
        "perfbench diagnostics: {{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\
         \"nproc\":{},\"threads\":1,\"git_rev\":\"{}\",\"loadavg_start\":\"{}\",\
         \"loadavg_end\":\"{}\",\"steal_ticks\":{},\"host_probe_ms_start\":{},\
         \"host_probe_ms_end\":{},\"branchy_probe_ms_p50\":{},\
         \"branchy_probe_ms\":{branchy_ms:?},\"warmup_ops\":{},\"timed_ops\":{},\"untraced_ops\":{},\
         \"setup_wall_s\":{setup_wall_s:?},\"op_cpu_ms_p05\":{},\"op_cpu_ms_p50\":{},\
         \"wall_ms_p50\":{},\"wall_ms_p90\":{},\
         \"first_third_cpu_ms_p50\":{},\"last_third_cpu_ms_p50\":{},\
         \"first_third_rss_mb\":{},\"last_third_rss_mb\":{},\
         \"tenths_cpu_ms_p50\":{tenths:?},\"drift\":{},\"drift_flag\":{},\
         \"peak_rss_mb\":{peak_rss}}}",
        ctx.seed,
        u8::from(ctx.trace),
        diag::nproc(),
        diag::git_rev(),
        host_start.loadavg,
        host_end.loadavg,
        host_end.steal_ticks.saturating_sub(host_start.steal_ticks),
        host_start.probe_ms,
        host_end.probe_ms,
        json_num(median(&branchy_ms)),
        spec.warmup,
        k,
        ops.len(),
        json_num(quantile(&cpu_ms, 0.05)),
        json_num(median(&cpu_ms)),
        json_num(median(&wall_ms)),
        json_num(quantile(&wall_ms, 0.9)),
        json_num(first),
        json_num(last),
        json_num(rss_first),
        json_num(rss_last),
        json_num(drift),
        drift > 1.0 + bound,
    );
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// Wall-clock and CPU time of one measured interval. CPU time is what
/// the process's threads ran, which leaves out time the hypervisor stole
/// from the vCPUs; wall time includes it.
struct Sample {
    wall_ms: f64,
    cpu_ms: f64,
}

/// A started [`Sample`].
struct Clock {
    t0: Instant,
    cpu0: u64,
}

impl Sample {
    fn start() -> Clock {
        let cpu0 = diag::process_cpu_ns();
        Clock {
            t0: Instant::now(),
            cpu0,
        }
    }
}

impl Clock {
    fn stop(self) -> Sample {
        let wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = diag::process_cpu_ns().saturating_sub(self.cpu0) as f64 / 1e6;
        Sample { wall_ms, cpu_ms }
    }
}

/// `value` as a JSON number, or `null` when it is not finite (a run too
/// short to have thirds).
fn json_num(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".to_owned()
    }
}

fn out_dir(args: &Args, ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| ctx.root.join("perfbench/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes each untraced op's wall and CPU milliseconds (in run order)
/// with the CPU it ended on, its user and system milliseconds, minor
/// page faults and involuntary context switches: they explain a run
/// whose figures disagree with the others.
fn write_ops(
    args: &Args,
    ctx: &Ctx,
    workload: &str,
    ops: &[Sample],
    on_cpu: &[u32],
    usage: &[diag::Usage],
) -> Result<(), String> {
    let path = out_dir(args, ctx)?.join(format!(
        "{workload}-seed{}-trace{}.ops.txt",
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let mut text = String::with_capacity(ops.len() * 24);
    for ((s, cpu), u) in ops.iter().zip(on_cpu).zip(usage) {
        let _ = writeln!(
            text,
            "{} {} {cpu} {} {} {} {}",
            s.wall_ms, s.cpu_ms, u.user_ms, u.sys_ms, u.minflt, u.nivcsw
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the traced run's spans and the program's `fsa-obs` export.
fn write_trace<W: Workload>(
    args: &Args,
    ctx: &Ctx,
    workload: &str,
    tr: &Tracer,
    w: &W,
) -> Result<(), String> {
    let dir = out_dir(args, ctx)?;
    let stem = format!("{workload}-seed{}", ctx.seed);
    let write = |name: String, body: &str| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let mut spans = tr.to_jsonl();
    for (name, ms) in tr.self_ms_by_name() {
        let _ = writeln!(spans, "{{\"self_ms_total\":\"{name}\",\"value\":{ms}}}");
    }
    write(format!("{stem}.spans.jsonl"), &spans)?;
    if let Some((stats, chrome)) = w.obs_export() {
        write(format!("{stem}.obs-stats.json"), &stats)?;
        write(format!("{stem}.obs-trace.json"), &chrome)?;
    }
    Ok(())
}
