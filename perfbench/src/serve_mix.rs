//! `serve-mix`: a resident `fsa_serve::Server` driven by one lockstep
//! client.
//!
//! Set-up binds an in-process server on 127.0.0.1:0, connects one
//! client and opens two sessions: scenario `six` (editable) and a spec
//! session over `specs/fig4.fsa`. One op is a lockstep script of 20
//! requests whose order the seed draws, so the mix never drifts:
//!
//! * 12 reads: `elicit` on `six`, replayed from the response cache
//!   unless an edit intervened;
//! * 4 spec reads: an `elicit` variant on the fig4 session;
//! * one edit applied and, 1–3 reads later, reverted; each write is the
//!   `edit` frame plus the incremental re-`elicit` it forces;
//! * 2 short `monitor` requests on `six` (2 streams × 256 events, two
//!   distinct fleet seeds of four) right after the revert.
//!
//! A single cached read takes tens of microseconds, most of it thread
//! wake-ups whose cost moves with the host, so the op is the script,
//! not one request; per-request latencies are per-layer metrics.
//!
//! Every response body is compared with the one-shot CLI's bytes for
//! the same request, recorded in `expected/serve-mix.txt`.

use crate::expected::{self, Expected};
use crate::stats::{digest, median, Rng};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Spec, Workload};
use fsa_obs::Obs;
use fsa_serve::proto::{ClientFrame, ServerFrame, SpecPayload};
use fsa_serve::{Client, ServeConfig, Server};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    setups: 25,
    warmup: 8,
};

/// Requests per op (a write counts once).
const BLOCK: usize = 20;

const SPEC_FILE: &str = "specs/fig4.fsa";

/// `(name, apply delta, revert delta)` on the `six` model.
const EDITS: [(&str, &str, &str); 3] = [
    ("gps1", "set-initial gps1 20000", "set-initial gps1 0"),
    ("gps3", "set-initial gps3 50000", "set-initial gps3 10000"),
    ("gps6", "set-initial gps6 90050", "set-initial gps6 20050"),
];

const MONITOR_SEEDS: [u64; 4] = [11, 23, 37, 41];
const MONITOR_STREAMS: &str = "2";
const MONITOR_EVENTS: &str = "512";

/// Spec-session `elicit` variants (arguments after the spec).
const SPEC_VARIANTS: [&[&str]; 4] = [&[], &["--param"], &["--refine"], &["--prioritise"]];

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Spec(usize),
    Monitor(usize),
    Apply(usize),
    Revert(usize),
}

/// One op's requests (see the module docs): reads and spec reads in
/// seeded order, one edit applied and reverted among them, and the two
/// monitors after the revert. The revert clears the response cache and
/// the monitors use distinct fleet seeds, so both run uncached and
/// every op does the same work.
fn block(rng: &mut Rng) -> Vec<Kind> {
    let mut reads = Vec::with_capacity(BLOCK);
    reads.extend(std::iter::repeat_n(Kind::Read, 12));
    for _ in 0..4 {
        reads.push(Kind::Spec(rng.below(SPEC_VARIANTS.len())));
    }
    rng.shuffle(&mut reads);
    let edit = rng.below(EDITS.len());
    let apply_at = rng.below(reads.len() - 3);
    let revert_at = apply_at + 1 + rng.below(3);
    let first = rng.below(MONITOR_SEEDS.len());
    let second = (first + 1 + rng.below(MONITOR_SEEDS.len() - 1)) % MONITOR_SEEDS.len();
    let mut out = Vec::with_capacity(BLOCK);
    for (i, &kind) in reads.iter().enumerate() {
        if i == apply_at {
            out.push(Kind::Apply(edit));
        }
        if i == revert_at {
            out.push(Kind::Revert(edit));
            out.push(Kind::Monitor(first));
            out.push(Kind::Monitor(second));
        }
        out.push(kind);
    }
    out
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

fn monitor_args(seed: u64) -> Vec<String> {
    strings(&[
        "--streams",
        MONITOR_STREAMS,
        "--events",
        MONITOR_EVENTS,
        "--seed",
        &seed.to_string(),
    ])
}

/// A running server, its client and the two sessions.
struct Conn {
    client: Client,
    six: u64,
    spec: u64,
    drain: Arc<AtomicBool>,
    server: JoinHandle<fsa_serve::ServeSummary>,
    addr: String,
}

fn start(obs: &Obs, source: String) -> Result<Conn, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        obs: obs.clone(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?
        .to_string();
    // Connect before the accept loop starts: the kernel queues the
    // connection, so the loop's first poll accepts it and set-up never
    // waits out a 15 ms poll interval. `serve.accept_wait_ms` measures
    // that wait on its own.
    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let drain = server.drain_handle();
    let handle = std::thread::Builder::new()
        .name("perfbench-server".to_owned())
        .spawn(move || server.run())
        .map_err(|e| format!("cannot spawn the server: {e}"))?;
    let opened = (|| {
        let mut client = Client::handshake(stream)?;
        let six = client.open(None, Some("six".to_owned()))?;
        let spec = client.open(
            Some(SpecPayload {
                name: SPEC_FILE.to_owned(),
                source,
            }),
            None,
        )?;
        Ok::<_, String>((client, six, spec))
    })();
    match opened {
        Ok((client, six, spec)) => Ok(Conn {
            client,
            six,
            spec,
            drain,
            server: handle,
            addr,
        }),
        Err(e) => {
            drain.store(true, Ordering::SeqCst);
            let _ = handle.join();
            Err(e)
        }
    }
}

fn stop(conn: Conn) {
    let _ = conn.client.bye();
    conn.drain.store(true, Ordering::SeqCst);
    let _ = conn.server.join();
}

pub struct ServeMix {
    conn: Conn,
    obs: Obs,
    root: std::path::PathBuf,
    rng: Rng,
    /// The edit currently applied to `six`, if any.
    applied: Option<usize>,
    next_id: u64,
    /// Traced-op tallies.
    frames: u64,
    cached: u64,
    wire_bytes: u64,
    traced_ops: u64,
    server_us: Vec<f64>,
    write_ops: u64,
    memo_base: Option<(u64, u64, u64)>,
}

/// What one op sent and received.
pub struct Output {
    /// `(expected-file key, or "" for an edit, request frame, reply)`.
    exchanges: Vec<(String, ClientFrame, ServerFrame)>,
}

pub fn setup(ctx: &Ctx) -> Result<ServeMix, String> {
    let path = ctx.root.join(SPEC_FILE);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let obs = if ctx.trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let conn = start(&obs, source)?;
    Ok(ServeMix {
        conn,
        obs,
        root: ctx.root.clone(),
        rng: Rng::new(ctx.seed),
        applied: None,
        next_id: 1,
        frames: 0,
        cached: 0,
        wire_bytes: 0,
        traced_ops: 0,
        server_us: Vec::new(),
        write_ops: 0,
        memo_base: None,
    })
}

fn memo_counters(obs: &Obs) -> (u64, u64, u64) {
    let s = obs.snapshot();
    let c = |n: &str| s.counter(n).unwrap_or(0);
    (
        c("elicit.memo.hits"),
        c("elicit.memo.misses"),
        c("elicit.memo.invalidated"),
    )
}

impl ServeMix {
    fn request(
        &mut self,
        session: u64,
        key: String,
        command: &str,
        args: Vec<String>,
        out: &mut Output,
    ) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let reply = self
            .conn
            .client
            .request(session, id, command, &args, None)?;
        let frame = ClientFrame::Request {
            session,
            id,
            command: command.to_owned(),
            args,
            deadline_ms: None,
        };
        out.exchanges.push((key, frame, reply));
        Ok(())
    }

    fn edit(&mut self, delta: &str, out: &mut Output) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let deltas = vec![delta.to_owned()];
        let reply = self.conn.client.edit(self.conn.six, id, &deltas)?;
        let frame = ClientFrame::Edit {
            session: self.conn.six,
            id,
            deltas,
        };
        out.exchanges.push((String::new(), frame, reply));
        Ok(())
    }

    fn six_elicit(&mut self, out: &mut Output) -> Result<(), String> {
        let state = self.applied.map_or("base", |e| EDITS[e].0);
        self.request(
            self.conn.six,
            format!("six.elicit.{state}"),
            "elicit",
            Vec::new(),
            out,
        )
    }

    /// One request (two for a write) of the script.
    fn step(&mut self, kind: Kind, tr: &mut Tracer, out: &mut Output) -> Result<(), String> {
        match kind {
            Kind::Read => tr.layer("serve.elicit", || self.six_elicit(out))?,
            Kind::Spec(v) => tr.layer("serve.spec", || {
                self.request(
                    self.conn.spec,
                    format!("spec.elicit.{v}"),
                    "elicit",
                    strings(SPEC_VARIANTS[v]),
                    out,
                )
            })?,
            Kind::Monitor(s) => tr.layer("serve.monitor", || {
                self.request(
                    self.conn.six,
                    format!("six.monitor.{}", MONITOR_SEEDS[s]),
                    "monitor",
                    monitor_args(MONITOR_SEEDS[s]),
                    out,
                )
            })?,
            Kind::Apply(e) => tr.layer("serve.edit", || {
                self.edit(EDITS[e].1, out)?;
                self.applied = Some(e);
                self.write_ops += 1;
                self.six_elicit(out)
            })?,
            Kind::Revert(e) => tr.layer("serve.edit", || {
                self.edit(EDITS[e].2, out)?;
                self.applied = None;
                self.write_ops += 1;
                self.six_elicit(out)
            })?,
        }
        Ok(())
    }
}

impl Workload for ServeMix {
    type Output = Output;

    fn run(&mut self, op: u64, tr: &mut Tracer) -> Result<Output, String> {
        if op == SPEC.warmup as u64 && self.memo_base.is_none() && self.obs.is_enabled() {
            self.memo_base = Some(memo_counters(&self.obs));
        }
        let mut out = Output {
            exchanges: Vec::with_capacity(2 * BLOCK),
        };
        for kind in block(&mut self.rng) {
            self.step(kind, tr, &mut out)?;
        }
        Ok(out)
    }

    fn check(&mut self, ctx: &Ctx, _op: u64, out: Output, tr: &mut Tracer) -> Result<(), String> {
        if tr.is_on() {
            self.traced_ops += 1;
            for (_, request, reply) in &out.exchanges {
                self.frames += 1;
                self.wire_bytes += (request.encode().len() + reply.encode().len() + 8) as u64;
                if let ServerFrame::Response { cached, micros, .. } = reply {
                    self.cached += u64::from(*cached);
                    self.server_us.push(*micros as f64);
                }
            }
        }
        for (key, _, reply) in &out.exchanges {
            check_reply(&ctx.expected, key, reply)?;
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, m: &mut Metrics) {
        m.set("serve.elicit_ms_p50", tr.median_span_ms("serve.elicit"));
        m.set("serve.edit_ms_p50", tr.median_span_ms("serve.edit"));
        m.set("serve.monitor_ms_p50", tr.median_span_ms("serve.monitor"));
        m.set("serve.spec_ms_p50", tr.median_span_ms("serve.spec"));
        m.set("serve.server_us_p50", median(&self.server_us));
        m.set(
            "serve.cache.hit_ratio",
            self.cached as f64 / self.frames.max(1) as f64,
        );
        m.set(
            "serve.wire.bytes_per_op",
            self.wire_bytes as f64 / self.traced_ops.max(1) as f64,
        );
        let (h0, m0, i0) = self.memo_base.unwrap_or_default();
        let (h1, m1, i1) = memo_counters(&self.obs);
        let (hits, misses) = (h1 - h0, m1 - m0);
        m.set(
            "core.incremental.memo_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set(
            "core.incremental.invalidated",
            (i1 - i0) as f64 / self.write_ops.max(1) as f64,
        );

        // Off the op path: parse time of the spec the session opened,
        // and how long a fresh connection waits for the accept loop.
        let source = std::fs::read_to_string(self.root.join(SPEC_FILE)).unwrap_or_default();
        let parse: Vec<f64> = (0..21)
            .map(|_| {
                let t0 = Instant::now();
                let _ = std::hint::black_box(speclang::parse(&source));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.set("speclang.parse_ms", median(&parse));
        let waits: Vec<f64> = (0..21)
            .filter_map(|_| {
                let t0 = Instant::now();
                let client = Client::connect(&self.conn.addr).ok()?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let _ = client.bye();
                Some(ms)
            })
            .collect();
        m.set("serve.accept_wait_ms", median(&waits));
    }

    fn obs_export(&self) -> Option<(String, String)> {
        let s = self.obs.snapshot();
        Some((s.to_stats_json(), s.to_trace_json()))
    }

    fn teardown(self) {
        stop(self.conn);
    }
}

fn check_reply(expected: &Expected, key: &str, reply: &ServerFrame) -> Result<(), String> {
    let ServerFrame::Response { exit, stdout, .. } = reply else {
        return Err(format!("{key}: expected a response, got {reply:?}"));
    };
    if *exit != 0 {
        return Err(format!("{key}: exit {exit}"));
    }
    if key.is_empty() {
        return if stdout.is_empty() {
            Ok(())
        } else {
            Err(format!("an edit answered {stdout:?}"))
        };
    }
    expected.check(key, &digest(stdout))
}

/// Every request a script can send: `(expected-file key, one-shot CLI
/// argv, edit applied first)`. Writes the edit scripts the one-shot
/// runner reads into `dir`.
fn catalogue(dir: &Path) -> Vec<(String, Vec<String>, Option<usize>)> {
    let mut out = Vec::new();
    out.push((
        "six.elicit.base".to_owned(),
        strings(&["elicit", "--scenario", "six"]),
        None,
    ));
    for (e, (name, apply, _)) in EDITS.iter().enumerate() {
        let script = dir.join(format!("edit-{name}.txt"));
        let _ = std::fs::write(&script, format!("{apply}\n"));
        out.push((
            format!("six.elicit.{name}"),
            vec![
                "elicit".to_owned(),
                "--scenario".to_owned(),
                "six".to_owned(),
                "--edit-script".to_owned(),
                script.display().to_string(),
            ],
            Some(e),
        ));
    }
    for seed in MONITOR_SEEDS {
        let mut argv = strings(&["monitor", "--scenario", "six"]);
        argv.extend(monitor_args(seed));
        out.push((format!("six.monitor.{seed}"), argv, None));
    }
    for (v, extra) in SPEC_VARIANTS.iter().enumerate() {
        let mut argv = strings(&["elicit", SPEC_FILE]);
        argv.extend(strings(extra));
        out.push((format!("spec.elicit.{v}"), argv, None));
    }
    out
}

/// Writes `serve-mix.txt`: the digest of every response the schedule
/// can receive, from the one-shot runner (`fsa_serve::cli::dispatch`),
/// after checking that a served session answers byte-identically.
pub fn bless(root: &Path, dir: &Path) -> Result<(), String> {
    // The one-shot runner reads the spec by its display path, relative
    // to the repository root, so bless from there with absolute paths.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let dir = cwd.join(dir);
    let scratch = cwd.join(root).join("perfbench/out/bless-scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    std::env::set_current_dir(root).map_err(|e| e.to_string())?;
    let result = bless_in(&dir, &scratch);
    std::env::set_current_dir(cwd).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn bless_in(dir: &Path, scratch: &Path) -> Result<(), String> {
    let source = std::fs::read_to_string(SPEC_FILE).map_err(|e| e.to_string())?;
    let mut conn = start(&Obs::disabled(), source)?;
    let result = bless_catalogue(&mut conn, scratch);
    stop(conn);
    expected::write(
        dir,
        "serve-mix",
        "serve-mix: digest of every response body the schedule can receive, keyed by\n\
         session.command.variant. Each equals the one-shot CLI output (fsa_serve::cli::dispatch)\n\
         and was checked against a served session.",
        &result?,
    )
}

/// A served request that must succeed; returns its stdout.
fn served(conn: &mut Conn, session: u64, command: &str, args: &[String]) -> Result<String, String> {
    match conn.client.request(session, 0, command, args, None) {
        Ok(ServerFrame::Response {
            exit: 0, stdout, ..
        }) => Ok(stdout),
        other => Err(format!("served {command} {args:?} failed: {other:?}")),
    }
}

fn served_edit(conn: &mut Conn, delta: &str) -> Result<(), String> {
    match conn.client.edit(conn.six, 0, &[delta.to_owned()]) {
        Ok(ServerFrame::Response { exit: 0, .. }) => Ok(()),
        other => Err(format!("edit `{delta}` failed: {other:?}")),
    }
}

fn bless_catalogue(conn: &mut Conn, scratch: &Path) -> Result<Vec<(String, String)>, String> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (key, argv, edit) in catalogue(scratch) {
        let one_shot = fsa_serve::cli::dispatch(&argv);
        if one_shot.exit != 0 {
            return Err(format!("{argv:?} failed: {}", one_shot.stderr));
        }
        let body = if key.starts_with("spec.") {
            served(conn, conn.spec, "elicit", &argv[2..])?
        } else if argv[0] == "monitor" {
            served(conn, conn.six, "monitor", &argv[3..])?
        } else if let Some(e) = edit {
            served_edit(conn, EDITS[e].1)?;
            let body = served(conn, conn.six, "elicit", &[])?;
            served_edit(conn, EDITS[e].2)?;
            let restored = digest(&served(conn, conn.six, "elicit", &[])?);
            if pairs.first().map(|p| p.1.as_str()) != Some(restored.as_str()) {
                return Err(format!(
                    "reverting edit {} does not restore the base report",
                    EDITS[e].0
                ));
            }
            body
        } else {
            served(conn, conn.six, "elicit", &[])?
        };
        if body != one_shot.stdout {
            return Err(format!("{key}: served and one-shot responses differ"));
        }
        pairs.push((key, digest(&body)));
    }
    Ok(pairs)
}
