//! Integration tests for the `fsa` command-line tool, exercising the
//! shipped `specs/*.fsa` files through the real binary.

use std::process::Command;

fn fsa(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_accepts_shipped_specs() {
    for spec in ["specs/fig3.fsa", "specs/fig4.fsa"] {
        let out = fsa(&["check", spec]);
        assert!(out.status.success(), "{spec}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("OK"), "{stdout}");
    }
}

#[test]
fn elicit_fig4_reports_requirement_4_as_availability() {
    let out = fsa(&["elicit", "specs/fig4.fsa"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("auth(pos(GPS_2,pos), show(HMI_w,warn), D_w)   [availability]"));
    assert!(stdout.contains("auth(sense(ESP_1,sW), show(HMI_w,warn), D_w)   [safety]"));
}

#[test]
fn elicit_with_cross_check_passes() {
    let out = fsa(&["elicit", "specs/fig4.fsa", "--verify-dataflow"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("requirement sets match"));
}

#[test]
fn elicit_markdown_emits_table() {
    let out = fsa(&["elicit", "specs/fig4.fsa", "--markdown"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| # | antecedent |"));
}

#[test]
fn bad_file_fails_with_message() {
    let out = fsa(&["check", "specs/does-not-exist.fsa"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn syntax_error_reports_position() {
    let dir = std::env::temp_dir().join("fsa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.fsa");
    std::fs::write(&bad, "instance \"x\" { action a = ; }").unwrap();
    let out = fsa(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1:"), "{stderr}");
}

#[test]
fn explore_prints_universe_and_stats() {
    let out = fsa(&["explore", "--max-vehicles", "3", "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("structurally different connected instance(s)"));
    assert!(stdout.contains("union over the universe:"));
    assert!(stdout.contains("candidates"), "{stdout}");
    assert!(stdout.contains("classes"), "{stdout}");
    assert!(stdout.contains("orbit-skipped"), "{stdout}");
    assert!(stdout.contains("certificate hits"), "{stdout}");
}

#[test]
fn explore_is_bit_identical_across_threads() {
    let one = fsa(&["explore", "--max-vehicles=2", "--threads=1"]);
    let four = fsa(&["explore", "--max-vehicles=2", "--threads=4"]);
    assert!(one.status.success() && four.status.success());
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&four.stdout)
    );
}

#[test]
fn explore_budget_error_and_truncate() {
    let out = fsa(&["explore", "--budget", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeded the budget of 5"), "{stderr}");
    let out = fsa(&["explore", "--budget", "5", "--truncate"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(truncated at budget)"), "{stdout}");
}

#[test]
fn explore_rejects_bad_flags() {
    let out = fsa(&["explore", "--max-vehicles", "zero"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-vehicles expects a positive integer"));
    let out = fsa(&["explore", "--bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"));
    assert!(stderr.contains("fsa explore"));
}

#[test]
fn unknown_flag_and_usage() {
    let out = fsa(&["elicit", "specs/fig3.fsa", "--bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("usage"));
    let out = fsa(&[]);
    assert!(!out.status.success());
}

/// Every subcommand answers `--help` on stdout with exit code 0.
#[test]
fn every_subcommand_prints_help() {
    for sub in ["elicit", "check", "explore", "simulate", "monitor", "serve"] {
        let out = fsa(&[sub, "--help"]);
        assert!(out.status.success(), "{sub} --help: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "{sub}: {stdout}");
        assert!(stdout.contains(sub), "{sub}: {stdout}");
        assert!(out.stderr.is_empty(), "{sub}: help goes to stdout");
    }
    // The global help as well.
    let out = fsa(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in ["elicit", "check", "explore", "simulate", "monitor", "serve"] {
        assert!(stdout.contains(sub), "global help lists {sub}");
    }
}

/// Unknown subcommands and bad flag values print usage to stderr and
/// exit non-zero — consistently across all subcommands.
#[test]
fn unknown_subcommand_and_bad_values_fail_consistently() {
    let out = fsa(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage"));
    assert!(out.stdout.is_empty());

    for args in [
        vec!["explore", "--max-vehicles", "zero"],
        vec!["explore", "--threads", "0"],
        vec!["simulate", "--seed", "minus-one"],
        vec!["simulate", "--max-steps", "0"],
        vec!["simulate", "--bogus"],
        vec!["monitor", "--streams", "0"],
        vec!["monitor", "--events", "none"],
        vec!["monitor", "--inject", "explode:now"],
        vec!["monitor", "--bogus"],
        vec!["monitor", "unexpected-positional"],
    ] {
        let out = fsa(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_prints_seeded_trace() {
    let out = fsa(&["simulate", "--scenario", "chain", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenario chain, seed 7"));
    assert!(stdout.contains("trace:"), "{stdout}");
    assert!(stdout.contains("V1_sense"), "{stdout}");
    // Deterministic for the same seed.
    let again = fsa(&["simulate", "--scenario", "chain", "--seed", "7"]);
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn simulate_rejects_unknown_scenario() {
    let out = fsa(&["simulate", "--scenario", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}

#[test]
fn simulate_applies_injected_fault() {
    let out = fsa(&[
        "simulate",
        "--scenario",
        "chain",
        "--seed",
        "7",
        "--inject",
        "spoof:V3_show",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault spoof:V3_show"), "{stdout}");
    assert!(
        stdout.contains("trace: V3_show"),
        "spoof prepends: {stdout}"
    );
}

#[test]
fn monitor_clean_fleet_holds_and_exits_zero() {
    let out = fsa(&["monitor", "--streams", "4", "--events", "400", "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violated"), "{stdout}");
    assert!(stdout.contains("events/sec"), "{stdout}");
    assert!(stdout.contains("shard balance"), "{stdout}");
}

#[test]
fn monitor_injected_drop_violates_and_exits_nonzero() {
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--inject",
        "drop:V1_sense",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("auth(V1_sense, V3_show, D_3)"), "{stdout}");
}

#[test]
fn monitor_reports_bit_identical_across_threads() {
    let base = ["monitor", "--streams", "6", "--events", "600"];
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "8"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", threads]);
        let out = fsa(&args);
        assert!(out.status.success(), "{out:?}");
        outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
}

// ---- Supervised execution layer (deadlines, checkpoint/resume) ------

/// A unique temp path for a checkpoint file.
fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsa-cli-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.fsas"))
}

#[test]
fn explore_with_checkpoint_matches_plain_explore_and_resumes_idempotently() {
    let ck = temp_checkpoint("full");
    let plain = fsa(&["explore", "--max-vehicles", "2"]);
    assert!(plain.status.success(), "{plain:?}");
    let supervised = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "4",
    ]);
    assert!(supervised.status.success(), "{supervised:?}");
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&supervised.stdout),
        "supervised output is bit-identical when nothing is cut"
    );
    // Resuming the *completed* checkpoint reproduces the same output.
    let resumed = fsa(&[
        "explore",
        "--max-vehicles",
        "2",
        "--resume",
        ck.to_str().unwrap(),
    ]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&resumed.stdout)
    );
}

#[test]
fn explore_expired_deadline_degrades_to_partial_exit_3() {
    let out = fsa(&["explore", "--max-vehicles", "2", "--deadline-ms", "0"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("partial universe"), "{stdout}");
    assert!(stdout.contains("vector coverage"), "{stdout}");
}

/// A deadline that cuts enumeration must not also empty the union: the
/// requirements of the completed prefix are elicited under a fresh
/// deadline of the same length and reported, and the run still exits 3
/// with the partial-universe note. (Five vehicles under a huge budget
/// take far longer than the deadline to enumerate; the small vectors
/// finish well within it.)
#[test]
fn explore_deadline_cut_still_reports_the_prefix_union() {
    let out = fsa(&[
        "explore",
        "--max-vehicles",
        "5",
        "--budget",
        "100000000",
        "--deadline-ms",
        "300",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("partial universe: vector coverage"),
        "{stdout}"
    );
    let union = stdout
        .lines()
        .find_map(|l| l.strip_prefix("union over the universe: "))
        .expect("union line");
    let n: usize = union.split(' ').next().unwrap().parse().unwrap();
    assert!(n >= 1, "{union}");
}

#[test]
fn explore_resume_from_corrupt_checkpoint_fails_cleanly() {
    let ck = temp_checkpoint("corrupt");
    std::fs::write(&ck, b"this is not a snapshot").unwrap();
    let out = fsa(&["explore", "--resume", ck.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt checkpoint"), "{stderr}");
}

#[test]
fn explore_rejects_bad_supervision_flag_values() {
    let out = fsa(&["explore", "--deadline-ms", "soon"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = fsa(&["explore", "--checkpoint"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = fsa(&["explore", "--checkpoint-every", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn monitor_expired_deadline_exits_3_with_coverage() {
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stream coverage 0/4"), "{stdout}");
    assert!(stdout.contains("cancelled"), "{stdout}");
}

// ---- Flag-value parsing regressions ---------------------------------

/// A value-taking `--flag` followed by another `--flag` must not
/// consume the second flag as its value. Before the fix,
/// `--checkpoint --resume` silently used the literal string
/// `"--resume"` as a checkpoint path; covered here for string-,
/// integer- and fault-valued flags.
#[test]
fn value_flags_do_not_swallow_a_following_flag() {
    // String-valued.
    let out = fsa(&["explore", "--checkpoint", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint expects a value"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // Integer-valued: previously ate `--stats` and then reported a
    // misleading parse error for it.
    let out = fsa(&["monitor", "--streams", "--stats"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--streams expects a value"), "{stderr}");

    // Fault-valued.
    let out = fsa(&["simulate", "--inject", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--inject expects a value"), "{stderr}");

    // An explicit inline `=` value may still start with dashes.
    let out = fsa(&["simulate", "--scenario=two", "--seed=3"]);
    assert!(out.status.success(), "{out:?}");
}

/// `--retries` beyond `u32::MAX` was silently clamped; it now fails
/// the usage contract (exit 2) on both supervised subcommands.
#[test]
fn retries_out_of_range_is_rejected_on_both_subcommands() {
    for sub in ["explore", "monitor"] {
        let out = fsa(&[sub, "--retries", "4294967296"]);
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--retries expects an integer in 0..=4294967295"),
            "{sub}: {stderr}"
        );
        assert!(stderr.contains("usage"), "{sub}: {stderr}");
    }
    // The boundary value itself is accepted.
    let out = fsa(&[
        "monitor",
        "--streams",
        "2",
        "--events",
        "64",
        "--retries",
        "4294967295",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn monitor_violation_dominates_deadline_exit_code() {
    // A generous deadline that will not expire: the injected violation
    // must keep exit code 1, not 3.
    let out = fsa(&[
        "monitor",
        "--streams",
        "4",
        "--events",
        "400",
        "--inject",
        "drop:V1_sense",
        "--deadline-ms",
        "600000",
        "--retries",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");
}

/// Every flag is single-occurrence unless documented repeatable: the
/// second occurrence — spaced or inline — is a usage error, not a
/// silent last-one-wins.
#[test]
fn duplicate_flag_occurrences_are_usage_errors() {
    let cases: Vec<Vec<&str>> = vec![
        vec!["explore", "--threads", "2", "--threads", "4"],
        vec!["explore", "--stats", "--stats"],
        vec!["simulate", "--seed=1", "--seed", "2"],
        vec!["monitor", "--seed", "3", "--seed=4"],
        vec!["elicit", "specs/fig3.fsa", "--param", "--param"],
        vec!["serve", "--addr", "127.0.0.1:0", "--addr=127.0.0.1:0"],
    ];
    for case in cases {
        let out = fsa(&case);
        assert_eq!(out.status.code(), Some(2), "{case:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("duplicate flag --"), "{case:?}: {stderr}");
        assert!(stderr.contains("usage"), "{case:?}: {stderr}");
    }
}

/// An empty action name in a fault spec (`drop:`) is a typed parse
/// error, not an injection that can never fire.
#[test]
fn empty_fault_action_name_is_rejected() {
    for sub in ["simulate", "monitor"] {
        for fault in ["drop:", "spoof:"] {
            let out = fsa(&[sub, "--inject", fault]);
            assert_eq!(out.status.code(), Some(2), "{sub} {fault}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("expects a non-empty action name"),
                "{sub} {fault}: {stderr}"
            );
        }
    }
}

/// A fault naming an automaton absent from the scenario is legal but
/// inert; the CLI now says so on stderr instead of silently running an
/// injection-free simulation.
#[test]
fn unmatched_fault_target_warns_but_still_runs() {
    let out = fsa(&[
        "simulate",
        "--inject",
        "drop:NoSuchAutomaton",
        "--max-steps",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no automaton named `NoSuchAutomaton` in scenario `two`"),
        "{stderr}"
    );

    let out = fsa(&[
        "monitor",
        "--streams",
        "2",
        "--events",
        "16",
        "--inject",
        "spoof:Ghost",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no automaton named `Ghost` in scenario `chain`"),
        "{stderr}"
    );

    // A fault that does match stays warning-free.
    let out = fsa(&["simulate", "--inject", "drop:V1_sense", "--max-steps", "5"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("warning"),
        "{out:?}"
    );
}
