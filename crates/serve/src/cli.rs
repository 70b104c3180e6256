//! The `fsa` command-line surface, as buffered runners.
//!
//! Every subcommand is a pure function from an argument vector to a
//! [`Rendered`] outcome (exact stdout/stderr bytes + exit code). The
//! one-shot binary calls [`main`] which prints the buffers verbatim;
//! the resident server calls the same runners against session-held
//! models, so serving responses are byte-identical to one-shot output
//! *by construction* — there is only one rendering path.
//!
//! The [`Flags`] cursor implements the shared CLI contract:
//! `--flag value` and `--flag=value`, a following `--token` never
//! consumed as a value, duplicate flag occurrences rejected with exit
//! code 2, usage printed to stderr on every parse error.

use crate::engines::scenario_apa;
use crate::engines::ScenarioModel;
use fsa_core::dataflow::dataflow_apa;
use fsa_core::manual::{elicit, explain};
use fsa_core::param::parameterise;
use fsa_core::refine::refine;
use fsa_core::report::render_manual;
use fsa_core::service::{LoadedModel, Rendered, ServiceCtx};
use fsa_graph::dot::{to_dot, DotOptions};
use std::fmt::Write as _;

pub(crate) const GLOBAL_USAGE: &str = "usage:
  fsa elicit <spec-file> [--param] [--refine] [--prioritise] [--dot] [--markdown] [--verify-dataflow] [--stats] [--threads=N]
  fsa elicit --scenario two|chain|attacked|six [--edit-script F] [--threads N]
  fsa check <spec-file>
  fsa explore [--max-vehicles N] [--threads N] [--stats] [--budget N] [--truncate] [--all]
              [--cert-cache F]
              [--deadline-ms N] [--retries N] [--checkpoint F [--checkpoint-every N]] [--resume F]
  fsa explore --distributed [--workers N] [--shards N] [--lease-ms N] [--state-dir D] [--max-vehicles N] ...
  fsa coordinate --listen HOST:PORT [--max-vehicles N] [--shards N] [--lease-ms N] [--state F]
  fsa work --connect ADDR [--state-dir D] [--threads N]
  fsa simulate [--scenario two|chain|attacked] [--seed N] [--max-steps N] [--inject <fault>]
  fsa monitor [--scenario chain|six] [--streams N] [--events N] [--threads N] [--inject <fault>] [--seed N] [--stats]
              [--deadline-ms N] [--retries N]
  fsa serve [--addr HOST:PORT] [--queue N] [--max-frame BYTES]
  fsa serve --connect ADDR [--spec F] [--scenario S] [--request \"CMD ARGS\"]... [--deadline-ms N] [--drain]
  fsa <subcommand> --help

Every subcommand additionally accepts observability exports:
  --stats-json F  write span/counter/histogram statistics (fsa-obs/v1 JSON) to F
  --trace-json F  write a chrome://tracing view of the run to F";

pub(crate) const EXPLORE_USAGE: &str = "usage:
  fsa explore [--max-vehicles N] [--threads N] [--stats] [--budget N] [--truncate] [--all]
              [--cert-cache F]
              [--deadline-ms N] [--retries N] [--checkpoint F [--checkpoint-every N]] [--resume F]
  fsa explore --distributed [--workers N] [--shards N] [--lease-ms N] [--state-dir D]
              [--max-vehicles N] [--threads N] [--budget N] [--all] [--stats]

Enumerate the structurally different SoS instances of the vehicular
scenario (§4.2) and union their elicited requirements (§4.4).
  --max-vehicles N  universe bound (default 2)
  --threads N       worker threads (deterministic output, default 1)
  --budget N        candidate budget (error when exceeded)
  --truncate        return the deduped partial universe at budget
  --all             keep disconnected compositions
  --stats           print engine counters and per-stage timings
  --cert-cache F    cross-run certificate cache: trust F's record of
                    single-class certificate buckets (skipping exact
                    isomorphism on duplicates) and save the completed
                    run's census back; the instance output is
                    bit-identical to a cacheless run (not combinable
                    with --checkpoint/--resume/--distributed)
Supervised execution (the output is the same with or without these
flags when nothing is cut):
  --deadline-ms N        stop at the next batch boundary after N ms and
                         report the completed prefix (exit code 3); the
                         union of that prefix then runs under a fresh
                         deadline of N ms
  --retries N            retries per panicked worker chunk (default 2)
  --checkpoint F         write crash-safe (atomic) checkpoints to F
  --checkpoint-every N   candidates built between checkpoints (default 256)
  --resume F             continue a previous run from checkpoint F
Distributed execution (coordinator + local worker processes; the class
output is byte-identical to the single-process engine):
  --distributed          shard the universe across worker processes
  --workers N            local worker processes to spawn (default 2)
  --shards N             shard count (default: 4 x workers)
  --lease-ms N           shard lease before a dead worker's shard is
                         re-issued (default 2000)
  --state-dir D          directory for the coordinator state file and
                         per-worker shard checkpoints (default: a
                         temporary directory, removed on success)
Observability (never changes the printed report):
  --stats-json F         write span/counter/histogram statistics (fsa-obs/v1) to F
  --trace-json F         write a chrome://tracing view of the run to F";

pub(crate) const SIMULATE_USAGE: &str = "usage:
  fsa simulate [--scenario two|chain|attacked] [--seed N] [--max-steps N] [--inject <fault>]

Run one seeded simulation of a scenario APA and print the trace.
  --scenario S     two (default): the paper's two-vehicle model;
                   chain: the V1→V2→V3 forwarding chain;
                   attacked: the chain plus the cam-forging attacker
  --seed N         simulation seed (default 1)
  --max-steps N    stop after N steps (default 100)
  --inject F       fault applied to the finished trace:
                   drop:<action> | spoof:<action> | reorder:<window>
  --stats-json F   write span/counter statistics (fsa-obs/v1 JSON) to F
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const MONITOR_USAGE: &str = "usage:
  fsa monitor [--scenario chain|six] [--streams N] [--events N] [--threads N] [--inject <fault>] [--seed N] [--stats]
              [--deadline-ms N] [--retries N]

Compile the scenario's elicited requirements into a fused monitor bank
and check a sharded simulator fleet against it (exit 1 on violations).
  --scenario S     chain (default): V1→V2→V3 forwarding chain;
                   six: the three-pair (six-vehicle) model
  --streams N      independent event streams (default 8)
  --events N       total event budget across the fleet (default 8192)
  --threads N      worker threads; reports are bit-identical for any
                   value (default 1)
  --inject F       fault injected into every stream:
                   drop:<action> | spoof:<action> | reorder:<window>
  --seed N         base fleet seed (default 3930)
  --stats          print events/sec, per-stage timings, shard balance
  --deadline-ms N  stop at the next stream boundary after N ms; a clean
                   partial report exits 3, violations still exit 1
  --retries N      retries per panicked stream (default 2)
  --stats-json F   write span/counter/histogram statistics (fsa-obs/v1) to F
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const ELICIT_USAGE: &str = "usage:
  fsa elicit <spec-file> [--param] [--refine] [--prioritise] [--dot] [--markdown] [--verify-dataflow] [--stats] [--threads=N]

Run the §4 manual elicitation pipeline on every instance of the spec.
  --param            add first-order (parameterised) requirement forms
  --refine           add hop decompositions and dependency chains
  --prioritise       rank requirements
  --dot              print the functional flow graph as Graphviz DOT
  --markdown         render the report as a markdown table
  --verify-dataflow  cross-check against the §5 tool-assisted pipeline
  --stats            print §5 engine statistics (with --verify-dataflow)
  --threads=N        worker threads for the dependence grid
  --stats-json F     write span/counter statistics (fsa-obs/v1 JSON) to F
  --trace-json F     write a chrome://tracing view of the run to F";

pub(crate) const ELICIT_SCENARIO_USAGE: &str = "usage:
  fsa elicit --scenario two|chain|attacked|six [--edit-script F] [--threads N]

Run the §5 tool-assisted elicitation pipeline on a named scenario APA.
The `two` and `six` scenarios are *editable*: their component models
support typed deltas, and the incremental engine re-elicits after each
edit reusing every untouched fragment's memoised analysis.
  --scenario S     two | chain | attacked | six
  --edit-script F  apply an edit script (one delta or `elicit` per
                   line; # comments); every `elicit` step appends one
                   report, and a missing final `elicit` is implied.
                   Requires an editable scenario (two or six).
                   Delta vocabulary:
                     add-component NAME [VALUE...]
                     remove-component NAME
                     set-initial NAME [VALUE...]
                     add-flow NAME KIND FROM TO
                     remove-flow NAME
                     rewire-flow NAME FROM TO
                     retag-stakeholder AUTOMATON AGENT
  --threads N      worker threads for the dependence grids (the report
                   is bit-identical for any value; default 1)
  --stats-json F   write span/counter statistics (fsa-obs/v1 JSON) to F
                   (includes the elicit.memo.* incremental counters)
  --trace-json F   write a chrome://tracing view of the run to F";

pub(crate) const CHECK_USAGE: &str = "usage:
  fsa check <spec-file>

Parse and validate a specification (exit code 1 on errors).";

pub(crate) const SERVE_USAGE: &str = "usage:
  fsa serve [--addr HOST:PORT] [--queue N] [--max-frame BYTES] [--cache-cap N] [--frame-deadline-ms N] [--idle-ms N] [--max-conns N] [--stats-json F] [--trace-json F]
  fsa serve --connect ADDR [--spec F] [--scenario S] [--request \"CMD ARGS\"]... [--edit \"DELTA\"]... [--deadline-ms N] [--chaos-seed N] [--drain]

Run (or talk to) the resident analysis service speaking fsa-wire/v1
(4-byte big-endian length-prefixed JSON frames over TCP).

Server mode — holds parsed models resident so repeated session queries
skip specification parsing and APA reachability:
  --addr HOST:PORT  listen address (default 127.0.0.1:0; the chosen
                    port is printed as `listening on HOST:PORT`)
  --queue N         bounded per-session request queue (default 8);
                    a full queue answers `overloaded` (backpressure)
  --max-frame N     per-frame payload limit in bytes (default 1048576)
  --cache-cap N     bounded per-session response cache (default 64
                    entries, FIFO eviction; edits clear it)
  --frame-deadline-ms N  per-frame read/write budget (default 10000);
                    a peer that starts a frame and stalls past it is
                    answered `slow-peer` and disconnected
  --idle-ms N       idle-session limit (default 300000); reaped
                    sessions answer later requests `session-expired`
  --max-conns N     accept-side connection cap (default 256); excess
                    connections get a typed `overloaded` and close
  --stats-json F    write serve.* span/counter statistics on shutdown
  --trace-json F    write a chrome://tracing view on shutdown
The server drains gracefully on SIGTERM or a client `drain` frame:
in-flight requests finish, new ones get a typed `draining` error.

Client mode:
  --connect ADDR    connect to a listening server
  --spec F          open the session over spec file F (read locally,
                    shipped in the `open` frame)
  --scenario S      open the session over scenario S (two|chain|
                    attacked|six)
  --request \"C A\"   queue command C with arguments A (repeatable);
                    responses print to stdout/stderr verbatim
  --edit \"DELTA\"    apply one model delta to the session's editable
                    scenario (repeatable; interleaves with --request
                    in flag order), e.g. --edit \"set-initial gps1 50\"
  --deadline-ms N   per-request deadline, measured from receipt
  --chaos-seed N    (chaos builds only) inject seeded benign network
                    faults on this client's socket; the session must
                    heal to the same bytes as a clean run
  --drain           ask the server to drain after the last response";

/// Exit code 3: the deadline expired and the run degraded to a clean
/// partial result (violations/errors keep exit code 1).
pub const EXIT_PARTIAL: u8 = 3;

/// Returns `true` if `rest` asks for help; the caller renders its usage
/// text to stdout and exits 0.
fn wants_help(rest: &[String]) -> bool {
    rest.iter().any(|a| a == "--help" || a == "-h")
}

/// Usage text on stdout, exit 0 (the `--help` path).
fn help(usage: &str) -> Rendered {
    Rendered {
        stdout: format!("{usage}\n"),
        ..Rendered::default()
    }
}

/// Global usage on stderr, exit 2.
fn usage() -> Rendered {
    Rendered {
        stderr: format!("{GLOBAL_USAGE}\n"),
        exit: 2,
        ..Rendered::default()
    }
}

/// A tiny flag cursor shared by the subcommand parsers: accepts both
/// `--flag=value` and `--flag value`, and rejects duplicate occurrences
/// of the same flag (`--threads 2 --threads 4` is a usage error, not a
/// silent last-one-wins).
pub struct Flags<'a> {
    iter: std::slice::Iter<'a, String>,
    usage: &'static str,
    seen: std::collections::BTreeSet<String>,
    repeatable: &'static [&'static str],
}

/// One parsed argument from a [`Flags`] cursor.
pub enum Flag {
    /// A parsed `--name` with an optional inline `=value`.
    Named(String, Option<String>),
    /// A positional argument (only `check`/`elicit` accept these, as
    /// spec files).
    Positional(String),
}

impl<'a> Flags<'a> {
    /// A cursor over `rest` that renders parse errors against `usage`.
    #[must_use]
    pub fn new(rest: &'a [String], usage: &'static str) -> Self {
        Flags::new_repeatable(rest, usage, &[])
    }

    /// A cursor that exempts the named flags from duplicate rejection
    /// (`fsa serve --connect` accepts `--request` many times).
    pub fn new_repeatable(
        rest: &'a [String],
        usage: &'static str,
        repeatable: &'static [&'static str],
    ) -> Self {
        Flags {
            iter: rest.iter(),
            usage,
            seen: std::collections::BTreeSet::new(),
            repeatable,
        }
    }

    /// The next argument; `Err` is the rendered duplicate-flag usage
    /// error.
    pub fn next_flag(&mut self) -> Option<Result<Flag, Rendered>> {
        let a = self.iter.next()?;
        Some(match a.strip_prefix("--") {
            Some(flag) => {
                let (name, inline) = match flag.split_once('=') {
                    Some((n, v)) => (n.to_owned(), Some(v.to_owned())),
                    None => (flag.to_owned(), None),
                };
                if !self.seen.insert(name.clone()) && !self.repeatable.contains(&name.as_str()) {
                    return Some(Err(Rendered::usage_error(
                        &format!("duplicate flag --{name}"),
                        self.usage,
                    )));
                }
                Ok(Flag::Named(name, inline))
            }
            None => Ok(Flag::Positional(a.clone())),
        })
    }

    /// The value of a `--flag value` / `--flag=value` pair.
    ///
    /// A *separate* following token that itself starts with `--` is
    /// **not** consumed: `--checkpoint --resume F` means the user
    /// forgot the value, not that the value is `--resume` (an explicit
    /// inline `--flag=--weird` still passes through verbatim).
    /// Missing values render `--NAME expects a value` + usage, exit 2.
    pub fn value(&mut self, name: &str, inline: Option<String>) -> Result<String, Rendered> {
        if let Some(v) = inline {
            return Ok(v);
        }
        match self.iter.clone().next() {
            Some(next) if !next.starts_with("--") => {
                self.iter.next();
                Ok(next.clone())
            }
            _ => Err(self.fail(&format!("--{name} expects a value"))),
        }
    }

    /// Parses a positive integer value for `name`.
    pub fn positive(&mut self, name: &str, inline: Option<String>) -> Result<usize, Rendered> {
        match self.value(name, inline)?.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(self.fail(&format!("--{name} expects a positive integer"))),
        }
    }

    /// Parses a `u64` value for `name` (seeds may be zero).
    pub fn seed(&mut self, name: &str, inline: Option<String>) -> Result<u64, Rendered> {
        match self.value(name, inline)?.parse::<u64>() {
            Ok(n) => Ok(n),
            Err(_) => Err(self.fail(&format!("--{name} expects an unsigned integer"))),
        }
    }

    /// Parses a `u32` value for `name`. Out-of-range input (e.g.
    /// `--retries 4294967296`) is rejected with a usage error rather
    /// than silently clamped to `u32::MAX`.
    pub fn small(&mut self, name: &str, inline: Option<String>) -> Result<u32, Rendered> {
        match self.value(name, inline)?.parse::<u32>() {
            Ok(n) => Ok(n),
            Err(_) => Err(self.fail(&format!("--{name} expects an integer in 0..=4294967295"))),
        }
    }

    /// Parses a fault spec for `--inject`.
    pub fn fault(&mut self, inline: Option<String>) -> Result<apa::Fault, Rendered> {
        let raw = self.value("inject", inline)?;
        apa::Fault::parse(&raw).map_err(|e| self.fail(&format!("--inject: {e}")))
    }

    /// The rendered `unknown flag` usage error for `--what`.
    #[must_use]
    pub fn unknown(&self, what: &str) -> Rendered {
        self.fail(&format!("unknown flag --{what}"))
    }

    /// The rendered `unexpected argument` usage error for `what`.
    #[must_use]
    pub fn positional(&self, what: &str) -> Rendered {
        self.fail(&format!("unexpected argument `{what}`"))
    }

    fn fail(&self, message: &str) -> Rendered {
        Rendered::usage_error(message, self.usage)
    }
}

/// Builds a [`fsa_exec::Supervisor`] from the shared `--deadline-ms` /
/// `--retries` flags. A request-level deadline from the [`ServiceCtx`]
/// is used when no flag deadline was given (the token was created at
/// request receipt, so queue wait counts against the budget).
fn build_supervisor(
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    ctx: &ServiceCtx,
) -> fsa_exec::Supervisor {
    let mut sup = fsa_exec::Supervisor::new();
    if let Some(ms) = deadline_ms {
        sup = sup.with_cancel(fsa_exec::CancelToken::with_deadline(
            std::time::Duration::from_millis(ms),
        ));
    } else if let Some(token) = &ctx.cancel {
        sup = sup.with_cancel(token.clone());
    }
    if let Some(r) = retries {
        sup.retry.max_retries = r;
    }
    sup
}

/// The shared `--stats-json F` / `--trace-json F` export spec.
///
/// When neither flag is given and the host supplies no recording
/// handle, the run uses the disabled [`fsa_obs::Obs`] handle — a single
/// branch per probe, no allocation, no locking — and the printed output
/// is byte-identical to builds that predate the observability layer.
#[derive(Default)]
pub struct ObsOutputs {
    /// `--stats-json F`: write fsa-obs/v1 statistics to F.
    pub stats_json: Option<String>,
    /// `--trace-json F`: write a chrome://tracing view to F.
    pub trace_json: Option<String>,
}

impl ObsOutputs {
    /// `true` when at least one export path was requested.
    #[must_use]
    pub fn requested(&self) -> bool {
        self.stats_json.is_some() || self.trace_json.is_some()
    }

    /// The recording handle for this run: the host's (server registry)
    /// when it is enabled, else an enabled handle iff an export was
    /// requested.
    #[must_use]
    pub fn obs(&self, ctx: &ServiceCtx) -> fsa_obs::Obs {
        if ctx.obs.is_enabled() {
            ctx.obs.clone()
        } else if self.requested() {
            fsa_obs::Obs::enabled()
        } else {
            fsa_obs::Obs::disabled()
        }
    }

    /// Collects the requested exports from a snapshot of `obs` as
    /// rendered artefacts (the host materialises them; see [`emit`]).
    pub fn collect(&self, obs: &fsa_obs::Obs, r: &mut Rendered) {
        if !self.requested() {
            return;
        }
        let snapshot = obs.snapshot();
        if let Some(path) = &self.stats_json {
            r.artefacts.push((path.clone(), snapshot.to_stats_json()));
        }
        if let Some(path) = &self.trace_json {
            r.artefacts.push((path.clone(), snapshot.to_trace_json()));
        }
    }
}

/// Entry point for the one-shot binary: dispatches, prints the rendered
/// buffers verbatim, materialises artefacts, returns the exit code.
/// `fsa serve` is routed to the (live, long-running) server instead.
pub fn main(args: &[String]) -> u8 {
    if args.first().map(String::as_str) == Some("serve") {
        return crate::server::serve_command(&args[1..]);
    }
    emit(&dispatch(args))
}

/// Routes one argument vector to its runner (one-shot context).
pub fn dispatch(args: &[String]) -> Rendered {
    let ctx = ServiceCtx::one_shot();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    if matches!(command, "--help" | "-h" | "help") {
        return help(GLOBAL_USAGE);
    }
    match command {
        "explore" => run_explore(rest, &ctx),
        "simulate" => run_simulate(rest, None, &ctx),
        "monitor" => run_monitor(rest, None, &ctx),
        // `elicit --scenario` analyses a named scenario APA (optionally
        // through an edit script); `elicit <spec-file>` stays the §4
        // manual pipeline.
        "elicit"
            if rest
                .iter()
                .any(|a| a == "--scenario" || a.starts_with("--scenario=")) =>
        {
            run_elicit_scenario(rest, None, &ctx)
        }
        "check" | "elicit" => run_spec(command, rest, None, &ctx),
        "serve" if wants_help(rest) => help(SERVE_USAGE),
        // The one-shot binary intercepts these before dispatch (they are
        // live, long-running commands); reaching here means the context
        // has no distributed runtime (e.g. a resident server session).
        "coordinate" | "work" => Rendered::failure(&format!(
            "`{command}` is only available from the one-shot `fsa` binary"
        )),
        other => Rendered::usage_error(&format!("unknown command `{other}`"), GLOBAL_USAGE),
    }
}

/// Prints a [`Rendered`] outcome exactly as the pre-serve CLI did:
/// stdout, stderr, artefact writes (first failure reports
/// `cannot write PATH` and exits 1), then the recorded exit code.
pub fn emit(r: &Rendered) -> u8 {
    use std::io::Write as _;
    print!("{}", r.stdout);
    let _ = std::io::stdout().flush();
    eprint!("{}", r.stderr);
    let _ = std::io::stderr().flush();
    for (path, contents) in &r.artefacts {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    r.exit
}

/// `fsa check` / `fsa elicit` over a spec file (one-shot: parses
/// `rest`'s positional file; session: answers from the preloaded
/// [`LoadedModel`], skipping `speclang` entirely).
pub fn run_spec(
    command: &str,
    rest: &[String],
    model: Option<&LoadedModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    let usage_text = if command == "check" {
        CHECK_USAGE
    } else {
        ELICIT_USAGE
    };
    if wants_help(rest) {
        return help(usage_text);
    }
    let mut files = Vec::new();
    let mut set = std::collections::BTreeSet::new();
    let mut threads = 1usize;
    let mut outputs = ObsOutputs::default();
    const KNOWN: [&str; 7] = [
        "param",
        "refine",
        "dot",
        "verify-dataflow",
        "markdown",
        "prioritise",
        "stats",
    ];
    let mut flags = Flags::new(rest, usage_text);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return r,
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => {
                files.push(p);
                continue;
            }
        };
        match name.as_str() {
            "threads" => {
                let raw = match flags.value("threads", inline) {
                    Ok(v) => v,
                    Err(r) => return r,
                };
                match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = n,
                    _ => {
                        return Rendered::usage_error(
                            &format!("--threads expects a positive integer, got `{raw}`"),
                            usage_text,
                        )
                    }
                }
            }
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(p) => outputs.stats_json = Some(p),
                Err(r) => return r,
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(p) => outputs.trace_json = Some(p),
                Err(r) => return r,
            },
            other => {
                // Boolean spec flags take no value; `--param=x` keeps
                // the historical `unknown flag --param=x` shape.
                if let Some(v) = inline {
                    return flags.unknown(&format!("{other}={v}"));
                }
                if !KNOWN.contains(&other) {
                    return flags.unknown(other);
                }
                set.insert(other.to_owned());
            }
        }
    }
    let parsed: Vec<fsa_core::SosInstance>;
    let (label, instances): (String, &[fsa_core::SosInstance]) = match model {
        Some(m) => {
            if let Some(extra) = files.first() {
                return Rendered::usage_error(
                    &format!("unexpected spec file `{extra}` (the session model is fixed at open)"),
                    usage_text,
                );
            }
            (m.name().to_owned(), m.instances())
        }
        None => {
            let [file] = files.as_slice() else {
                return Rendered::usage_error("expected exactly one spec file", usage_text);
            };
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("cannot read {file}: {e}")),
            };
            match speclang::parse(&source) {
                Ok(i) => parsed = i,
                Err(e) => return Rendered::failure(&format!("{file}:{e}")),
            }
            (file.clone(), parsed.as_slice())
        }
    };
    let obs = outputs.obs(ctx);
    let mut r = Rendered::success();
    match command {
        "check" => {
            let _ = writeln!(
                r.stdout,
                "{label}: OK ({} instance(s), {} action(s) total)",
                instances.len(),
                instances.iter().map(|i| i.action_count()).sum::<usize>()
            );
        }
        "elicit" => {
            for instance in instances {
                let report = match elicit(instance) {
                    Ok(rep) => rep,
                    Err(e) => {
                        let _ = writeln!(r.stderr, "{}: {e}", instance.name());
                        r.exit = 1;
                        return r;
                    }
                };
                if set.contains("markdown") {
                    let _ = write!(r.stdout, "{}", fsa_core::report::render_markdown(&report));
                } else {
                    let _ = write!(r.stdout, "{}", render_manual(&report));
                }
                if set.contains("prioritise") {
                    match fsa_core::prioritise::prioritise(instance, &report) {
                        Ok(ranked) => {
                            let _ = writeln!(r.stdout, "prioritised requirements:");
                            for item in ranked {
                                let _ = writeln!(r.stdout, "  {item}");
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(r.stderr, "prioritisation failed: {e}");
                        }
                    }
                }
                if set.contains("param") {
                    let _ = writeln!(r.stdout, "parameterised requirements:");
                    for form in parameterise(&report.requirement_set(), 2) {
                        let _ = writeln!(r.stdout, "  {form}");
                    }
                }
                if set.contains("refine") {
                    let _ = writeln!(r.stdout, "hop refinements:");
                    for req in report.requirements() {
                        match refine(instance, &req) {
                            Ok(refined) if refined.is_decomposed() => {
                                let _ = writeln!(r.stdout, "  {req}");
                                for hop in &refined.hops {
                                    let _ = writeln!(r.stdout, "    -> {hop}");
                                }
                            }
                            Ok(_) => {
                                let _ = writeln!(r.stdout, "  {req}  (atomic)");
                            }
                            Err(e) => {
                                let _ = writeln!(r.stdout, "  {req}  (refinement failed: {e})");
                            }
                        }
                    }
                    // Dependency-chain explanations.
                    let _ = writeln!(r.stdout, "dependency chains:");
                    for req in report.requirements() {
                        if let Some(chain) = explain(instance, &req) {
                            let rendered: Vec<String> =
                                chain.iter().map(ToString::to_string).collect();
                            let _ = writeln!(r.stdout, "  {}", rendered.join(" -> "));
                        }
                    }
                }
                if set.contains("dot") {
                    let _ = write!(
                        r.stdout,
                        "{}",
                        to_dot(instance.graph(), &DotOptions::default(), |_, a| a
                            .to_string())
                    );
                }
                if set.contains("verify-dataflow") {
                    match cross_check(instance, &report, threads, &obs) {
                        Ok(stats) => {
                            let _ = writeln!(
                                r.stdout,
                                "tool-assisted cross-check: requirement sets match"
                            );
                            if set.contains("stats") {
                                let _ =
                                    write!(r.stdout, "{}", fsa_core::report::render_stats(&stats));
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(r.stderr, "tool-assisted cross-check FAILED: {e}");
                            r.exit = 1;
                            return r;
                        }
                    }
                } else if set.contains("stats") {
                    let _ = writeln!(
                        r.stderr,
                        "note: --stats requires --verify-dataflow (the §5 pipeline)"
                    );
                }
                r.stdout.push('\n');
            }
        }
        _ => unreachable!("dispatched above"),
    }
    outputs.collect(&obs, &mut r);
    r
}

/// Derives the dataflow APA, runs the §5 pipeline and compares.
/// Returns the engine's per-stage statistics on success.
fn cross_check(
    instance: &fsa_core::SosInstance,
    report: &fsa_core::manual::ElicitationReport,
    threads: usize,
    obs: &fsa_obs::Obs,
) -> Result<fsa_core::assisted::PipelineStats, String> {
    let apa = dataflow_apa(instance).map_err(|e| e.to_string())?;
    let graph = apa
        .reachability(&apa::ReachOptions::default())
        .map_err(|e| e.to_string())?;
    let assisted = fsa_core::assisted::elicit_observed(
        &graph,
        &fsa_core::assisted::ElicitOptions::service(threads),
        obs,
        |name| {
            let action = fsa_core::Action::parse(name);
            instance
                .find(&action)
                .map(|n| instance.stakeholder(n).clone())
                .unwrap_or_else(|| fsa_core::Agent::new("env"))
        },
    );
    if assisted.requirements == report.requirement_set() {
        Ok(assisted.stats)
    } else {
        Err(format!(
            "manual elicited {} requirement(s), tool-assisted {}",
            report.requirement_set().len(),
            assisted.requirements.len()
        ))
    }
}

/// `fsa elicit --scenario` — the §5 tool-assisted pipeline over a named
/// scenario APA, optionally driven through an `--edit-script` of typed
/// model deltas (editable scenarios only). With a session model the
/// scenario is fixed at open and edits arrive as `edit` frames instead;
/// the rendered blocks are byte-identical either way, so a session
/// transcript diffs cleanly against the equivalent one-shot runs.
pub fn run_elicit_scenario(
    rest: &[String],
    model: Option<&mut ScenarioModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    use crate::engines::render_elicited;
    use fsa_core::delta::{parse_script, ScriptStep};

    if wants_help(rest) {
        return help(ELICIT_SCENARIO_USAGE);
    }
    let mut scenario: Option<String> = None;
    let mut edit_script: Option<String> = None;
    let mut threads = 1usize;
    let mut outputs = ObsOutputs::default();
    let mut flags = Flags::new(rest, ELICIT_SCENARIO_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return r,
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return flags.positional(&p),
        };
        match name.as_str() {
            "scenario" => match flags.value("scenario", inline) {
                Ok(s) => {
                    if model.is_some() {
                        return Rendered::usage_error(
                            "--scenario is fixed at session open",
                            ELICIT_SCENARIO_USAGE,
                        );
                    }
                    scenario = Some(s);
                }
                Err(r) => return r,
            },
            "edit-script" => match flags.value("edit-script", inline) {
                Ok(p) => {
                    if model.is_some() {
                        return Rendered::usage_error(
                            "--edit-script is a one-shot flag (sessions apply edits through \
                             `edit` frames)",
                            ELICIT_SCENARIO_USAGE,
                        );
                    }
                    edit_script = Some(p);
                }
                Err(r) => return r,
            },
            "threads" => match flags.positive("threads", inline) {
                Ok(n) => threads = n,
                Err(r) => return r,
            },
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(p) => outputs.stats_json = Some(p),
                Err(r) => return r,
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(p) => outputs.trace_json = Some(p),
                Err(r) => return r,
            },
            other => return flags.unknown(other),
        }
    }

    let mut built;
    let model_ref: &mut ScenarioModel = match model {
        Some(m) => m,
        None => {
            let Some(name) = scenario else {
                return Rendered::usage_error(
                    "--scenario expects a value (two|chain|attacked|six)",
                    ELICIT_SCENARIO_USAGE,
                );
            };
            match ScenarioModel::load(&name) {
                Ok(m) => built = m,
                Err(e) => {
                    return Rendered {
                        stderr: format!("{e} (expected two, chain, attacked or six)\n"),
                        exit: 2,
                        ..Rendered::default()
                    }
                }
            }
            &mut built
        }
    };

    let obs = outputs.obs(ctx);
    let mut r = Rendered::success();
    match edit_script {
        None => match model_ref.elicit_report(threads, &obs) {
            Ok(report) => r
                .stdout
                .push_str(&render_elicited(model_ref.name(), &report)),
            Err(e) => return Rendered::failure(&e),
        },
        Some(path) => {
            if !model_ref.is_editable() {
                return Rendered::usage_error(
                    &format!(
                        "--edit-script requires an editable scenario (two or six), not `{}`",
                        model_ref.name()
                    ),
                    ELICIT_SCENARIO_USAGE,
                );
            }
            let source = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("cannot read {path}: {e}")),
            };
            let steps = match parse_script(&source) {
                Ok(s) => s,
                Err(e) => return Rendered::failure(&format!("{path}: {e}")),
            };
            for step in steps {
                match step {
                    ScriptStep::Delta(d) => {
                        if let Err(e) = model_ref.apply_deltas(std::slice::from_ref(&d), &obs) {
                            return Rendered::failure(&format!("edit failed: {e}"));
                        }
                    }
                    ScriptStep::Elicit => match model_ref.elicit_report(threads, &obs) {
                        Ok(report) => {
                            r.stdout
                                .push_str(&render_elicited(model_ref.name(), &report));
                        }
                        Err(e) => return Rendered::failure(&e),
                    },
                }
            }
        }
    }
    outputs.collect(&obs, &mut r);
    r
}

/// One `fsa explore --distributed` invocation, handed to the engine
/// registered with [`register_distributed_engine`].
pub struct DistributedRequest {
    /// Universe bound (`--max-vehicles`).
    pub max_vehicles: usize,
    /// Local worker processes to spawn (`--workers`).
    pub workers: usize,
    /// Shard count (`--shards`; `None` selects the engine default).
    pub shards: Option<usize>,
    /// Shard lease duration in milliseconds (`--lease-ms`).
    pub lease_ms: u64,
    /// Directory for coordinator state and worker shard checkpoints
    /// (`--state-dir`; `None` selects a temporary directory).
    pub state_dir: Option<String>,
    /// Worker threads per worker process (`--threads`).
    pub threads: usize,
    /// Candidate budget (`--budget`; `None` selects the engine
    /// default).
    pub budget: Option<usize>,
    /// Drop disconnected compositions (absence of `--all`).
    pub require_connected: bool,
    /// The recording handle: the engine adds its `dist.*` counters and
    /// mirrors the merged explore counters here.
    pub obs: fsa_obs::Obs,
}

/// The engine behind `fsa explore --distributed`: spawns a local
/// coordinator plus worker processes and returns the merged
/// exploration, or a display-ready error.
pub type DistributedEngine =
    fn(&DistributedRequest) -> Result<fsa_core::explore::Exploration, String>;

static DISTRIBUTED: std::sync::OnceLock<DistributedEngine> = std::sync::OnceLock::new();

/// Registers the distributed-exploration engine. The `fsa` binary
/// registers `fsa_dist`'s local driver at startup; contexts without one
/// (e.g. resident server sessions) leave it unset and `--distributed`
/// fails with a typed message. The first registration wins; later calls
/// are ignored.
pub fn register_distributed_engine(engine: DistributedEngine) {
    let _ = DISTRIBUTED.set(engine);
}

/// Renders an exploration as `fsa explore` prints it: universe header,
/// instance lines, coverage notes of a partial run, the requirement
/// union (elicited under `supervisor` on `threads` workers, recording
/// its span on `obs`), and optionally the stats block. A cut run — a
/// tripped deadline, quarantined chunks or a partial union — exits 3.
/// When the cancel token already cut the enumeration, the union of the
/// completed prefix is elicited under the same retry policy and a
/// restarted token ([`fsa_exec::CancelToken::restarted`]): the expired
/// one would elicit nothing, and the restarted one bounds the union by
/// the same deadline again.
/// The single-process, `--distributed` and `fsa coordinate` paths all
/// print through this one function, so their outputs are byte-identical
/// by construction.
#[must_use]
pub fn report_exploration(
    exploration: &fsa_core::explore::Exploration,
    max_vehicles: usize,
    all: bool,
    stats: bool,
    threads: usize,
    supervisor: &fsa_exec::Supervisor,
    obs: &fsa_obs::Obs,
) -> Rendered {
    use fsa_core::explore::union_requirements_loop_free_supervised;
    let mut r = Rendered::success();
    write_universe_header(&mut r, exploration, max_vehicles, all);
    let s = &exploration.stats;
    let mut partial = false;
    if s.cancelled || (s.vectors_completed < s.vectors_total && !s.truncated) {
        let _ = writeln!(
            r.stdout,
            "partial universe: vector coverage {}/{} (deadline or quarantined chunks)",
            s.vectors_completed, s.vectors_total
        );
        partial = true;
    }
    if s.failures > 0 {
        let _ = writeln!(
            r.stdout,
            "quarantined worker chunks: {} (after {} retried panic(s))",
            s.failures, s.retries
        );
        partial = true;
    }
    let fresh = s.cancelled.then(|| {
        let cancel = supervisor.cancel.restarted();
        supervisor.clone().with_cancel(cancel)
    });
    let union_supervisor = fresh.as_ref().unwrap_or(supervisor);
    match union_requirements_loop_free_supervised(
        &exploration.instances,
        threads,
        union_supervisor,
        obs,
    ) {
        Ok(union) => {
            let _ = writeln!(
                r.stdout,
                "union over the universe: {} requirement(s) ({} cyclic composition(s) \
                 skipped)",
                union.requirements.len(),
                union.loop_skipped
            );
            for req in union.requirements.iter() {
                let _ = writeln!(r.stdout, "  {req}");
            }
            if !union.is_complete() {
                let _ = writeln!(
                    r.stdout,
                    "partial union: elicited {}/{} instance(s){}",
                    union.elicited,
                    union.total,
                    if union.cancelled { " (cancelled)" } else { "" }
                );
                partial = true;
            }
        }
        Err(e) => return Rendered::failure(&format!("union elicitation failed: {e}")),
    }
    if stats {
        let _ = write!(r.stdout, "{s}");
    }
    if partial {
        r.exit = EXIT_PARTIAL;
    }
    r
}

/// The shared `universe with ...` header plus one line per instance.
fn write_universe_header(
    r: &mut Rendered,
    exploration: &fsa_core::explore::Exploration,
    max_vehicles: usize,
    all: bool,
) {
    let _ = writeln!(
        r.stdout,
        "universe with 1 RSU and up to {max_vehicles} vehicle(s): {} structurally \
         different {}instance(s){}",
        exploration.instances.len(),
        if all { "" } else { "connected " },
        if exploration.stats.truncated {
            " (truncated at budget)"
        } else {
            ""
        }
    );
    for inst in &exploration.instances {
        let _ = writeln!(
            r.stdout,
            "  {:32} {} action(s), {} flow(s)",
            inst.name(),
            inst.action_count(),
            inst.graph().edge_count()
        );
    }
}

/// `fsa explore` — enumerate the vehicular instance space (§4.2) and
/// union the elicited requirements (§4.4) with the streaming
/// certificate engine.
pub fn run_explore(rest: &[String], ctx: &ServiceCtx) -> Rendered {
    use fsa_core::explore::{BudgetPolicy, CheckpointSpec, ExecOptions, ExploreOptions};

    if wants_help(rest) {
        return help(EXPLORE_USAGE);
    }
    let mut max_vehicles = 2usize;
    let mut threads = 1usize;
    let mut budget: Option<usize> = None;
    let mut truncate = false;
    let mut all = false;
    let mut stats = false;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every = 256usize;
    let mut resume: Option<String> = None;
    let mut cert_cache: Option<String> = None;
    let mut distributed = false;
    let mut workers: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut lease_ms: Option<u64> = None;
    let mut state_dir: Option<String> = None;
    let mut outputs = ObsOutputs::default();

    let mut flags = Flags::new(rest, EXPLORE_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return r,
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return flags.positional(&p),
        };
        match name.as_str() {
            "max-vehicles" => match flags.positive("max-vehicles", inline) {
                Ok(n) => max_vehicles = n,
                Err(r) => return r,
            },
            "threads" => match flags.positive("threads", inline) {
                Ok(n) => threads = n,
                Err(r) => return r,
            },
            "budget" => match flags.positive("budget", inline) {
                Ok(n) => budget = Some(n),
                Err(r) => return r,
            },
            "truncate" => truncate = true,
            "all" => all = true,
            "stats" => stats = true,
            "deadline-ms" => match flags.seed("deadline-ms", inline) {
                Ok(n) => deadline_ms = Some(n),
                Err(r) => return r,
            },
            "retries" => match flags.small("retries", inline) {
                Ok(n) => retries = Some(n),
                Err(r) => return r,
            },
            "checkpoint" => match flags.value("checkpoint", inline) {
                Ok(p) => checkpoint = Some(p),
                Err(r) => return r,
            },
            "checkpoint-every" => match flags.positive("checkpoint-every", inline) {
                Ok(n) => checkpoint_every = n,
                Err(r) => return r,
            },
            "resume" => match flags.value("resume", inline) {
                Ok(p) => resume = Some(p),
                Err(r) => return r,
            },
            "cert-cache" => match flags.value("cert-cache", inline) {
                Ok(p) => cert_cache = Some(p),
                Err(r) => return r,
            },
            "distributed" => distributed = true,
            "workers" => match flags.positive("workers", inline) {
                Ok(n) => workers = Some(n),
                Err(r) => return r,
            },
            "shards" => match flags.positive("shards", inline) {
                Ok(n) => shards = Some(n),
                Err(r) => return r,
            },
            "lease-ms" => match flags.positive("lease-ms", inline) {
                Ok(n) => lease_ms = Some(n as u64),
                Err(r) => return r,
            },
            "state-dir" => match flags.value("state-dir", inline) {
                Ok(p) => state_dir = Some(p),
                Err(r) => return r,
            },
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(p) => outputs.stats_json = Some(p),
                Err(r) => return r,
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(p) => outputs.trace_json = Some(p),
                Err(r) => return r,
            },
            other => return flags.unknown(other),
        }
    }

    if !distributed
        && (workers.is_some() || shards.is_some() || lease_ms.is_some() || state_dir.is_some())
    {
        return Rendered::usage_error(
            "--workers/--shards/--lease-ms/--state-dir require --distributed",
            EXPLORE_USAGE,
        );
    }
    let obs = outputs.obs(ctx);
    if distributed {
        if truncate
            || deadline_ms.is_some()
            || retries.is_some()
            || checkpoint.is_some()
            || resume.is_some()
            || cert_cache.is_some()
        {
            return Rendered::usage_error(
                "--distributed cannot be combined with --truncate, --deadline-ms, --retries, \
                 --checkpoint, --resume, or --cert-cache (workers checkpoint their own shards)",
                EXPLORE_USAGE,
            );
        }
        let Some(engine) = DISTRIBUTED.get() else {
            return Rendered::failure(
                "distributed exploration is only available from the one-shot `fsa` binary",
            );
        };
        let request = DistributedRequest {
            max_vehicles,
            workers: workers.unwrap_or(2),
            shards,
            lease_ms: lease_ms.unwrap_or(2000),
            state_dir,
            threads,
            budget,
            require_connected: !all,
            obs: obs.clone(),
        };
        let exploration = match engine(&request) {
            Ok(e) => e,
            Err(e) => return Rendered::failure(&format!("distributed exploration failed: {e}")),
        };
        let supervisor = fsa_exec::Supervisor::new().with_obs(obs.clone());
        let mut r = report_exploration(
            &exploration,
            max_vehicles,
            all,
            stats,
            threads,
            &supervisor,
            &obs,
        );
        outputs.collect(&obs, &mut r);
        return r;
    }
    let options = ExploreOptions {
        require_connected: !all,
        max_candidates: budget.unwrap_or(ExploreOptions::default().max_candidates),
        on_budget: if truncate {
            BudgetPolicy::Truncate
        } else {
            BudgetPolicy::Error
        },
        threads,
        obs: obs.clone(),
        cert_cache: cert_cache.map(Into::into),
        ..ExploreOptions::default()
    };
    let supervisor = build_supervisor(deadline_ms, retries, ctx).with_obs(obs.clone());
    let exec = ExecOptions {
        supervisor: supervisor.clone(),
        checkpoint: checkpoint.map(|p| CheckpointSpec {
            path: p.into(),
            every: checkpoint_every,
        }),
        resume: resume.map(Into::into),
        ..ExecOptions::default()
    };
    let exploration =
        match vanet::exploration::explore_scenario_supervised(max_vehicles, &options, &exec) {
            Ok(e) => e,
            Err(e) => return Rendered::failure(&format!("exploration failed: {e}")),
        };
    let mut r = report_exploration(
        &exploration,
        max_vehicles,
        all,
        stats,
        threads,
        &supervisor,
        &obs,
    );
    outputs.collect(&obs, &mut r);
    r
}

/// Warns (stderr, exit unchanged) when an injected `drop:`/`spoof:`
/// fault names an automaton absent from the scenario APA — the fault
/// predicate matches events by automaton name, so such a fault silently
/// matches nothing.
fn warn_unmatched_fault(r: &mut Rendered, fault: Option<&apa::Fault>, apa: &apa::Apa, scen: &str) {
    let Some(fault) = fault else { return };
    let Some(action) = fault.action() else { return };
    if !apa.automaton_names().any(|n| n == action) {
        let _ = writeln!(
            r.stderr,
            "warning: --inject {fault}: no automaton named `{action}` in scenario `{scen}`; \
             the fault cannot match any event"
        );
    }
}

/// `fsa simulate` — one seeded simulator run with a trace printout.
/// With a session model, the scenario APA is resolved once at open and
/// `--scenario` is rejected.
pub fn run_simulate(rest: &[String], model: Option<&ScenarioModel>, ctx: &ServiceCtx) -> Rendered {
    if wants_help(rest) {
        return help(SIMULATE_USAGE);
    }
    let mut scenario = "two".to_owned();
    let mut seed = 1u64;
    let mut max_steps = 100usize;
    let mut fault: Option<apa::Fault> = None;
    let mut outputs = ObsOutputs::default();

    let mut flags = Flags::new(rest, SIMULATE_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return r,
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return flags.positional(&p),
        };
        match name.as_str() {
            "scenario" => match flags.value("scenario", inline) {
                Ok(s) => {
                    if model.is_some() {
                        return Rendered::usage_error(
                            "--scenario is fixed at session open",
                            SIMULATE_USAGE,
                        );
                    }
                    scenario = s;
                }
                Err(r) => return r,
            },
            "seed" => match flags.seed("seed", inline) {
                Ok(n) => seed = n,
                Err(r) => return r,
            },
            "max-steps" => match flags.positive("max-steps", inline) {
                Ok(n) => max_steps = n,
                Err(r) => return r,
            },
            "inject" => match flags.fault(inline) {
                Ok(f) => fault = Some(f),
                Err(r) => return r,
            },
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(p) => outputs.stats_json = Some(p),
                Err(r) => return r,
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(p) => outputs.trace_json = Some(p),
                Err(r) => return r,
            },
            other => return flags.unknown(other),
        }
    }

    let built;
    let apa_ref: &apa::Apa = match model {
        Some(m) => {
            scenario = m.name().to_owned();
            m.apa()
        }
        None => match scenario_apa(&scenario) {
            Ok(a) => {
                built = a;
                &built
            }
            Err(e) => {
                return Rendered {
                    stderr: format!("{e} (expected two, chain or attacked)\n"),
                    exit: 2,
                    ..Rendered::default()
                }
            }
        },
    };
    let mut r = Rendered::success();
    warn_unmatched_fault(&mut r, fault.as_ref(), apa_ref, &scenario);
    let obs = outputs.obs(ctx);
    let span = obs.span("simulate");
    let mut sim = apa::sim::Simulator::new(apa_ref, seed);
    let steps = match sim.run(max_steps) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(r.stderr, "simulation failed: {e}");
            r.exit = 1;
            return r;
        }
    };
    drop(span);
    obs.counter_add("simulate.steps", steps as u64);
    if let Some(fault) = &fault {
        sim.inject(fault);
        let _ = writeln!(
            r.stdout,
            "scenario {scenario}, seed {seed}: {steps} step(s), fault {fault}"
        );
    } else {
        let _ = writeln!(
            r.stdout,
            "scenario {scenario}, seed {seed}: {steps} step(s)"
        );
    }
    let _ = writeln!(r.stdout, "trace: {}", sim.trace_names().join(" → "));
    obs.counter_add("simulate.trace_events", sim.trace_names().len() as u64);
    outputs.collect(&obs, &mut r);
    r
}

/// `fsa monitor` — elicit, compile the monitor bank, check a fleet.
/// With a session model, the scenario APA *and its elicited requirement
/// set* persist across requests: the second monitor query skips
/// reachability and elicitation entirely.
pub fn run_monitor(
    rest: &[String],
    model: Option<&mut ScenarioModel>,
    ctx: &ServiceCtx,
) -> Rendered {
    if wants_help(rest) {
        return help(MONITOR_USAGE);
    }
    let mut scenario = "chain".to_owned();
    let mut streams = 8usize;
    let mut events = 8192usize;
    let mut threads = 1usize;
    let mut seed = 0xF5Au64;
    let mut fault: Option<apa::Fault> = None;
    let mut stats = false;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut outputs = ObsOutputs::default();

    let mut flags = Flags::new(rest, MONITOR_USAGE);
    while let Some(flag) = flags.next_flag() {
        let flag = match flag {
            Ok(f) => f,
            Err(r) => return r,
        };
        let (name, inline) = match flag {
            Flag::Named(n, v) => (n, v),
            Flag::Positional(p) => return flags.positional(&p),
        };
        match name.as_str() {
            "scenario" => match flags.value("scenario", inline) {
                Ok(s) => {
                    if model.is_some() {
                        return Rendered::usage_error(
                            "--scenario is fixed at session open",
                            MONITOR_USAGE,
                        );
                    }
                    scenario = s;
                }
                Err(r) => return r,
            },
            "streams" => match flags.positive("streams", inline) {
                Ok(n) => streams = n,
                Err(r) => return r,
            },
            "events" => match flags.positive("events", inline) {
                Ok(n) => events = n,
                Err(r) => return r,
            },
            "threads" => match flags.positive("threads", inline) {
                Ok(n) => threads = n,
                Err(r) => return r,
            },
            "seed" => match flags.seed("seed", inline) {
                Ok(n) => seed = n,
                Err(r) => return r,
            },
            "inject" => match flags.fault(inline) {
                Ok(f) => fault = Some(f),
                Err(r) => return r,
            },
            "stats" => stats = true,
            "deadline-ms" => match flags.seed("deadline-ms", inline) {
                Ok(n) => deadline_ms = Some(n),
                Err(r) => return r,
            },
            "retries" => match flags.small("retries", inline) {
                Ok(n) => retries = Some(n),
                Err(r) => return r,
            },
            "stats-json" => match flags.value("stats-json", inline) {
                Ok(p) => outputs.stats_json = Some(p),
                Err(r) => return r,
            },
            "trace-json" => match flags.value("trace-json", inline) {
                Ok(p) => outputs.trace_json = Some(p),
                Err(r) => return r,
            },
            other => return flags.unknown(other),
        }
    }
    if let Some(m) = &model {
        scenario = m.name().to_owned();
    }
    if !matches!(scenario.as_str(), "chain" | "six") {
        return Rendered {
            stderr: format!("unknown scenario `{scenario}` (expected chain or six)\n"),
            exit: 2,
            ..Rendered::default()
        };
    }

    // Elicit the scenario's requirements from its honest behaviour
    // (§5 tool-assisted pipeline), then compile and stream. A session
    // model memoises the elicited set; one-shot derives it here.
    let built;
    let (apa_ref, requirements): (&apa::Apa, &fsa_core::RequirementSet) = match model {
        Some(m) => match m.split_elicited() {
            Ok(pair) => pair,
            Err(e) => return Rendered::failure(&e),
        },
        None => {
            let apa_model = match scenario_apa(&scenario) {
                Ok(a) => a,
                Err(e) => return Rendered::failure(&e),
            };
            let graph = match apa_model.reachability(&apa::ReachOptions::default()) {
                Ok(g) => g,
                Err(e) => return Rendered::failure(&format!("reachability failed: {e}")),
            };
            let elicited = fsa_core::assisted::elicit_from_graph(
                &graph,
                fsa_core::assisted::DependenceMethod::Precedence,
                vanet::apa_model::stakeholder_of,
            );
            built = (apa_model, elicited.requirements);
            (&built.0, &built.1)
        }
    };
    let mut r = Rendered::success();
    warn_unmatched_fault(&mut r, fault.as_ref(), apa_ref, &scenario);
    let obs = outputs.obs(ctx);
    let cfg = fsa_runtime::FleetConfig {
        streams,
        events_per_stream: events.div_ceil(streams),
        seed,
        threads,
        fault,
        obs: obs.clone(),
        ..fsa_runtime::FleetConfig::default()
    };
    let supervisor = build_supervisor(deadline_ms, retries, ctx).with_obs(obs.clone());
    match fsa_runtime::monitor_apa_supervised(apa_ref, requirements, &cfg, &supervisor) {
        Ok((bank, report)) => {
            let _ = writeln!(
                r.stdout,
                "scenario {scenario}: {} requirement(s) compiled into a fused bank \
                 ({} event symbols)",
                bank.len(),
                bank.alphabet_len()
            );
            let _ = write!(r.stdout, "{}", report.render());
            if stats {
                let _ = write!(r.stdout, "{}", report.stats);
            }
            outputs.collect(&obs, &mut r);
            if !report.is_clean() {
                // A found violation always dominates a missed deadline.
                r.exit = 1;
            } else if !report.is_complete() {
                r.exit = EXIT_PARTIAL;
            }
            r
        }
        Err(e) => {
            let _ = writeln!(r.stderr, "monitoring failed: {e}");
            r.exit = 1;
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn duplicate_flags_are_rejected_with_usage() {
        let r = dispatch(&argv(&["explore", "--threads", "2", "--threads", "4"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("duplicate flag --threads"));
        assert!(r.stderr.contains("fsa explore"));
    }

    #[test]
    fn duplicate_detection_treats_inline_and_spaced_forms_as_one_flag() {
        let r = dispatch(&argv(&["simulate", "--seed=1", "--seed", "2"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("duplicate flag --seed"));
    }

    #[test]
    fn repeatable_allowlist_suppresses_duplicate_rejection() {
        let rest = argv(&["--request", "a", "--request", "b"]);
        let mut flags = Flags::new_repeatable(&rest, GLOBAL_USAGE, &["request"]);
        let mut values = Vec::new();
        while let Some(flag) = flags.next_flag() {
            match flag.expect("no duplicate error") {
                Flag::Named(name, inline) => {
                    assert_eq!(name, "request");
                    values.push(flags.value("request", inline).expect("value"));
                }
                Flag::Positional(p) => panic!("unexpected positional {p}"),
            }
        }
        assert_eq!(values, ["a", "b"]);
    }

    #[test]
    fn cert_cache_warm_explore_output_is_bit_identical() {
        let mut path = std::env::temp_dir();
        path.push(format!("fsa-cli-certcache-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = path.to_string_lossy().into_owned();
        let baseline = dispatch(&argv(&["explore", "--max-vehicles", "2"]));
        assert_eq!(baseline.exit, 0, "{}", baseline.stderr);
        let cold = dispatch(&argv(&[
            "explore",
            "--max-vehicles",
            "2",
            "--cert-cache",
            &cache,
        ]));
        let warm = dispatch(&argv(&[
            "explore",
            "--max-vehicles",
            "2",
            "--cert-cache",
            &cache,
        ]));
        assert_eq!(cold.exit, 0, "{}", cold.stderr);
        assert_eq!(cold.stdout, baseline.stdout, "cache never changes output");
        assert_eq!(warm.stdout, cold.stdout, "warm run is bit-identical");
        // The warm run's stats expose the cache at work.
        let stats = dispatch(&argv(&[
            "explore",
            "--max-vehicles",
            "2",
            "--cert-cache",
            &cache,
            "--stats",
        ]));
        assert_eq!(stats.exit, 0, "{}", stats.stderr);
        assert!(
            stats.stdout.contains("exact iso fallbacks   0"),
            "{}",
            stats.stdout
        );
        assert!(
            stats.stdout.contains("cert cache skips"),
            "{}",
            stats.stdout
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cert_cache_rejects_distributed() {
        let r = dispatch(&argv(&[
            "explore",
            "--distributed",
            "--cert-cache",
            "/tmp/x",
        ]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("--cert-cache"), "{}", r.stderr);
    }

    #[test]
    fn corrupt_cert_cache_fails_the_run() {
        let mut path = std::env::temp_dir();
        path.push(format!("fsa-cli-certcache-corrupt-{}", std::process::id()));
        std::fs::write(&path, b"not a cache").unwrap();
        let cache = path.to_string_lossy().into_owned();
        let r = dispatch(&argv(&["explore", "--cert-cache", &cache]));
        assert_eq!(r.exit, 1);
        assert!(r.stderr.contains("certificate cache"), "{}", r.stderr);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_command_renders_usage_to_stderr() {
        let r = dispatch(&argv(&["frobnicate"]));
        assert_eq!(r.exit, 2);
        assert!(r.stderr.starts_with("unknown command `frobnicate`\n"));
        assert!(r.stderr.contains("usage:"));
        assert!(r.stdout.is_empty());
    }

    #[test]
    fn help_renders_to_stdout_with_exit_zero() {
        for sub in ["elicit", "check", "explore", "simulate", "monitor"] {
            let r = dispatch(&argv(&[sub, "--help"]));
            assert_eq!(r.exit, 0, "{sub}");
            assert!(r.stdout.contains("usage"), "{sub}");
            assert!(r.stderr.is_empty(), "{sub}");
        }
        let r = dispatch(&argv(&["serve", "--help"]));
        assert_eq!(r.exit, 0);
        assert!(r.stdout.contains("fsa serve"));
    }

    #[test]
    fn simulate_warns_when_the_injected_fault_matches_no_automaton() {
        let r = dispatch(&argv(&["simulate", "--inject", "drop:NoSuchAutomaton"]));
        assert_eq!(r.exit, 0, "warning must not change the exit code");
        assert!(r
            .stderr
            .contains("no automaton named `NoSuchAutomaton` in scenario `two`"));
        assert!(r.stdout.contains("scenario two"));
    }

    #[test]
    fn simulate_does_not_warn_for_a_real_automaton() {
        let ok = dispatch(&argv(&["simulate", "--inject", "reorder:4"]));
        assert_eq!(ok.exit, 0);
        assert!(
            ok.stderr.is_empty(),
            "reorder names no automaton: {}",
            ok.stderr
        );
    }

    #[test]
    fn elicit_scenario_renders_the_assisted_report() {
        let r = dispatch(&argv(&["elicit", "--scenario", "two"]));
        assert_eq!(r.exit, 0, "{}", r.stderr);
        assert!(r.stdout.starts_with("scenario two: "), "{}", r.stdout);
        assert!(r.stdout.contains("requirements ("), "{}", r.stdout);
        let unknown = dispatch(&argv(&["elicit", "--scenario", "warp"]));
        assert_eq!(unknown.exit, 2);
        assert!(unknown
            .stderr
            .contains("unknown scenario `warp` (expected two, chain, attacked or six)"));
    }

    #[test]
    fn elicit_scenario_edit_scripts_require_an_editable_scenario() {
        let script = std::env::temp_dir().join("fsa-cli-edit-script-chain.txt");
        std::fs::write(&script, "set-initial gps1 0\n").expect("write script");
        let r = dispatch(&argv(&[
            "elicit",
            "--scenario",
            "chain",
            "--edit-script",
            script.to_str().expect("utf8 path"),
        ]));
        assert_eq!(r.exit, 2);
        assert!(
            r.stderr
                .contains("--edit-script requires an editable scenario (two or six)"),
            "{}",
            r.stderr
        );
        let _ = std::fs::remove_file(&script);
    }

    #[test]
    fn an_edit_script_run_matches_the_equivalent_manual_sequence() {
        // One report per `elicit` step; the trailing elicit is implied.
        let script = std::env::temp_dir().join("fsa-cli-edit-script-two.txt");
        std::fs::write(
            &script,
            "# move V1's GPS out of V2's range\nelicit\nset-initial gps1 20000\n",
        )
        .expect("write script");
        let r = dispatch(&argv(&[
            "elicit",
            "--scenario",
            "two",
            "--edit-script",
            script.to_str().expect("utf8 path"),
        ]));
        let _ = std::fs::remove_file(&script);
        assert_eq!(r.exit, 0, "{}", r.stderr);
        let plain = dispatch(&argv(&["elicit", "--scenario", "two"]));
        assert!(
            r.stdout.starts_with(&plain.stdout),
            "the pre-edit report must match the scriptless run"
        );
        assert!(
            r.stdout.len() > plain.stdout.len(),
            "the post-edit report must follow"
        );
        assert_ne!(
            &r.stdout[plain.stdout.len()..],
            plain.stdout,
            "the edit must change the second report"
        );
    }

    #[test]
    fn session_spec_queries_reject_positional_files() {
        let model = LoadedModel::new("specs/x.fsa", Vec::new());
        let ctx = ServiceCtx::one_shot();
        let r = run_spec("elicit", &argv(&["other.fsa"]), Some(&model), &ctx);
        assert_eq!(r.exit, 2);
        assert!(r.stderr.contains("the session model is fixed at open"));
    }
}
