//! Self-tests of the benchmark: the `BENCHMARK.json` schema, the
//! metrics the binary prints, the correctness gate, and the repeat of
//! the deterministic per-layer counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fsa_serve::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` must be a string in {v:?}"))
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `(name, unit)` of every metric in one of the metric lists.
fn metric_list(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("`{list}` must be an array"))
        .iter()
        .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
        .collect()
}

#[test]
fn benchmark_json_follows_the_schema_and_name_rules() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = doc.get("command").and_then(Value::as_arr).expect("command");
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let s = part.as_str().expect("command parts are strings");
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }

    let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("paths are strings");
        assert!(
            p.len() <= 200
                && !p.starts_with('/')
                && !p.contains("..")
                && p.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')),
            "bad path {p}"
        );
        assert!(repo_root().join(p).is_dir(), "{p} is not a directory");
    }

    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        names.push(str_of(w, "name").to_owned());
    }

    let e2e = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end");
    assert!(
        (1..=16).contains(&e2e.len()),
        "at most 16 end-to-end metrics"
    );
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = match m.get("bound") {
            Some(Value::Num(b)) => *b,
            other => panic!("bound must be a number, got {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );

    let per_layer = doc
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer");
    assert!(
        (1..=128).contains(&per_layer.len()),
        "at most 128 per-layer metrics"
    );
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    for m in e2e.iter().chain(per_layer) {
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
        names.push(str_of(m, "name").to_owned());
    }
    for (name, unit) in metric_list(&doc, "end_to_end")
        .into_iter()
        .chain(metric_list(&doc, "per_layer"))
    {
        assert!(is_name(&name), "bad metric name {name}");
        assert!(is_unit(&unit), "metric {name} has a bad unit `{unit}`");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names must be used once");
    for n in &names {
        assert!(is_name(n), "bad name {n}");
    }
}

/// One benchmark run: `(exit code, result object)`.
fn run(args: &[&str], expected_dir: Option<&Path>) -> (i32, Value) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-out");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .arg("--root")
        .arg(repo_root())
        .arg("--out-dir")
        .arg(&out_dir);
    if let Some(dir) = expected_dir {
        cmd.arg("--expected-dir").arg(dir);
    }
    let output = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| panic!("last line `{last}`: {e}"));
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    (output.status.code().unwrap_or(-1), result)
}

/// `name → (value, unit)` of a result's metrics.
fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    let Some(Value::Obj(fields)) = result.get("metrics") else {
        panic!("metrics must be an object");
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Value::Num(v)) => *v,
                other => panic!("{name}: value must be a number, got {other:?}"),
            };
            (name.clone(), (value, str_of(m, "unit").to_owned()))
        })
        .collect()
}

fn workload_names() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name").to_owned())
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_declared_unit() {
    let doc = benchmark_json();
    let e2e: BTreeMap<_, _> = metric_list(&doc, "end_to_end").into_iter().collect();
    let per_layer: BTreeMap<_, _> = metric_list(&doc, "per_layer").into_iter().collect();
    for w in workload_names() {
        for (trace, declared) in [("0", &e2e), ("1", &per_layer)] {
            let (code, result) = run(
                &[
                    "--workload",
                    &w,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ],
                None,
            );
            assert_eq!(code, 0, "{w} --trace {trace} failed: {result:?}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let printed: BTreeMap<String, String> = metrics(&result)
                .into_iter()
                .map(|(name, (_, unit))| (name, unit))
                .collect();
            assert_eq!(&printed, declared, "{w} --trace {trace}");
            if trace == "0" {
                for (name, (value, _)) in metrics(&result) {
                    assert!(value > 0.0, "{w}: end-to-end metric {name} reads {value}");
                }
            }
        }
    }
}

/// Writes a copy of `expected/monitor-six.txt` with the value of `key`
/// zeroed into its own directory, and returns that directory.
fn corrupted_monitor_six(key: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("corrupted-{key}"));
    std::fs::create_dir_all(&dir).expect("create the scratch expected dir");
    let original = std::fs::read_to_string(repo_root().join("perfbench/expected/monitor-six.txt"))
        .expect("read the expected file");
    let corrupted: String = original
        .lines()
        .map(|l| match l.split_once(' ') {
            Some((k, _)) if k == key => format!("{k} 0000000000000000\n"),
            _ => format!("{l}\n"),
        })
        .collect();
    assert_ne!(corrupted, original, "monitor-six.txt has no `{key}` entry");
    std::fs::write(dir.join("monitor-six.txt"), corrupted).expect("write the corrupted file");
    dir
}

fn monitor_six_args(seed: &str) -> [&str; 8] {
    [
        "--workload",
        "monitor-six",
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        "0",
    ]
}

#[test]
fn a_corrupted_expected_digest_fails_the_run() {
    let dir = corrupted_monitor_six("report");
    let (code, result) = run(&monitor_six_args("1"), Some(&dir));
    assert_ne!(code, 0, "a digest mismatch must fail the run");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    let attempted = result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
    let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(0);
    assert!(
        attempted > 0 && failed == attempted,
        "every op must fail: {result:?}"
    );

    let (code, result) = run(&monitor_six_args("1"), None);
    assert_eq!(code, 0);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
}

/// The honest verdicts are the same for every fleet seed; the faulted
/// renderings are what ties the check to the simulated streams.
#[test]
fn a_wrong_simulated_stream_fails_the_run() {
    let dir = corrupted_monitor_six("faulted.1.0");
    let (code, result) = run(&monitor_six_args("1"), Some(&dir));
    assert_ne!(code, 0, "a faulted-stream mismatch must fail the run");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_u64) >= Some(1));

    // Workload seed 2's entries are untouched by the corruption.
    let (code, result) = run(&monitor_six_args("2"), Some(&dir));
    assert_eq!(code, 0, "{result:?}");
}

/// `runtime.fleet.allocs` is left out: it depends on the fleet seeds the
/// traced ops happened to run, and a few of its 1.5 M allocations
/// follow hash-map iteration order, which differs between processes.
#[test]
fn deterministic_layer_counts_repeat_exactly_across_runs() {
    let counted = [
        (
            "explore-v4",
            &[
                "core.explore.candidates",
                "core.explore.classes",
                "core.explore.iso_fallbacks",
                "core.explore.enumerate_allocs",
                "core.explore.union_allocs",
                "core.explore.union_alloc_mb",
            ][..],
        ),
        (
            "elicit-8v",
            &[
                "apa.reach.states",
                "apa.reach.edges",
                "apa.reach_allocs",
                "core.assisted.pairs_total",
                "core.assisted.allocs",
            ][..],
        ),
        (
            "monitor-six",
            &[
                "apa.reach.states",
                "apa.reach.edges",
                "apa.reach_allocs",
                "core.assisted.allocs",
                "runtime.fleet.events",
                "runtime.fleet.violations",
            ][..],
        ),
    ];
    for (w, names) in counted {
        let args = [
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ];
        let (code_a, a) = run(&args, None);
        let (code_b, b) = run(&args, None);
        assert_eq!((code_a, code_b), (0, 0), "{w}");
        let (a, b) = (metrics(&a), metrics(&b));
        for name in names {
            assert!(
                a[*name].0 > 0.0 || *name == "runtime.fleet.violations",
                "{w}: {name}"
            );
            assert_eq!(a[*name], b[*name], "{w}: {name} differs between runs");
        }
    }
}
