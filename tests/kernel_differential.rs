//! Differential property suite for the arena/bitset kernels (and the
//! cross-run certificate cache): the rewritten hot paths must be
//! *bit-identical* to the retained legacy oracles on random inputs —
//! same states, same edges, same interned symbols, same verdicts, same
//! rendered requirements, for every dependence method, prune setting
//! and thread count. A faster kernel that disagrees with its oracle on
//! one random APA is a bug, not an optimisation.

use fsa::apa::{rule, Apa, ApaBuilder, ReachOptions, Value};
use fsa::core::assisted::{elicit_with_options, DependenceMethod, ElicitOptions};
use fsa::core::explore::ExploreOptions;
use fsa::core::Agent;
use fsa::vanet::exploration::explore_scenario;
use proptest::prelude::*;

/// A random token-mover APA (same shape as `parallel_props`): `n`
/// chained/branching components wired pseudo-randomly from `seed`,
/// with forward-only movers so every run terminates.
fn arb_apa() -> impl Strategy<Value = Apa> {
    (2usize..6, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = ApaBuilder::new();
        let comps: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.component(&format!("c{i}"), [Value::atom("x"), Value::atom("y")])
                } else {
                    b.component(&format!("c{i}"), [])
                }
            })
            .collect();
        let mut k = 0;
        for i in 0..n - 1 {
            b.automaton(
                &format!("m{k}"),
                [comps[i], comps[i + 1]],
                rule::move_any(0, 1),
            );
            k += 1;
            let j = i + 1 + (next() as usize) % (n - i - 1).max(1);
            if j < n && j != i + 1 && next() % 2 == 0 {
                b.automaton(&format!("m{k}"), [comps[i], comps[j]], rule::move_any(0, 1));
                k += 1;
            }
        }
        b.build().expect("valid mover APA")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_kernel_is_bit_identical_to_the_reference_bfs(apa in arb_apa()) {
        let options = ReachOptions::default();
        let arena = apa.reachability(&options).expect("arena kernel");
        let oracle = apa.reachability_reference(&options).expect("reference");
        prop_assert_eq!(arena.state_count(), oracle.state_count());
        prop_assert_eq!(arena.edge_count(), oracle.edge_count());
        for i in 0..oracle.state_count() {
            prop_assert_eq!(arena.state(i), oracle.state(i), "state {}", i);
        }
        let a: Vec<_> = arena.edges().collect();
        let o: Vec<_> = oracle.edges().collect();
        prop_assert_eq!(a, o, "edge streams diverge");
        for (sym, name) in oracle.symbols().iter() {
            prop_assert_eq!(arena.symbols().name(sym), name);
        }
        prop_assert_eq!(arena.dead_states(), oracle.dead_states());
        // The CSR layout is a faithful re-encoding of the edge list.
        let (off, targets) = arena.csr_successors();
        prop_assert_eq!(off.len(), arena.state_count() + 1);
        prop_assert_eq!(targets.len(), arena.edge_count());
        for (src, _, dst) in arena.edges() {
            let row = &targets[off[src] as usize..off[src + 1] as usize];
            prop_assert!(row.contains(&(dst as u32)), "edge {}→{} missing from CSR", src, dst);
        }
    }

    #[test]
    fn state_limit_verdict_agrees_across_all_engines(apa in arb_apa()) {
        let n = apa
            .reachability(&ReachOptions::default())
            .expect("unbounded")
            .state_count();
        for limit in [n, n.saturating_sub(1).max(1)] {
            let options = ReachOptions { max_states: limit };
            let arena = apa.reachability(&options);
            let oracle = apa.reachability_reference(&options);
            prop_assert_eq!(
                arena.is_ok(), oracle.is_ok(),
                "limit {}: arena {:?} vs reference {:?}", limit, arena.is_ok(), oracle.is_ok()
            );
            // The exact boundary: a limit equal to the state count
            // succeeds, one below fails (when the space has > 1 state).
            if limit == n {
                prop_assert!(arena.is_ok());
            } else if n > 1 {
                prop_assert!(arena.is_err());
            }
        }
    }

    #[test]
    fn elicitation_from_arena_and_reference_graphs_is_bit_identical(apa in arb_apa()) {
        let options = ReachOptions::default();
        let arena = apa.reachability(&options).expect("arena");
        let oracle = apa.reachability_reference(&options).expect("reference");
        for method in [DependenceMethod::Abstraction, DependenceMethod::Precedence] {
            for prune in [false, true] {
                for threads in [1usize, 4] {
                    let opts = ElicitOptions { method, threads, prune };
                    let a = elicit_with_options(&arena, &opts, |_| Agent::new("P"));
                    let o = elicit_with_options(&oracle, &opts, |_| Agent::new("P"));
                    prop_assert_eq!(
                        &a.verdicts, &o.verdicts,
                        "method {:?} prune {} threads {}", method, prune, threads
                    );
                    let ar: Vec<String> = a.requirements.iter().map(ToString::to_string).collect();
                    let or: Vec<String> = o.requirements.iter().map(ToString::to_string).collect();
                    prop_assert_eq!(ar, or);
                }
            }
        }
    }
}

/// Warm-vs-cold certificate cache over the real vehicular universes:
/// the cached run must reproduce the cacheless instance stream
/// bit-identically while discharging every duplicate without an exact
/// isomorphism check (no certificate collisions exist in these
/// universes — a collision would show up as a nonzero fallback count,
/// which is exactly what the assertion pins).
#[test]
fn cert_cache_warm_scenario_runs_are_bit_identical_with_zero_fallbacks() {
    for max_vehicles in 1usize..=3 {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fsa-diff-certcache-{max_vehicles}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let options = ExploreOptions {
            cert_cache: Some(path.clone()),
            ..ExploreOptions::default()
        };
        let cold = explore_scenario(max_vehicles, &options).expect("cold run");
        let warm = explore_scenario(max_vehicles, &options).expect("warm run");
        assert_eq!(
            warm.stats.exact_iso_fallbacks, 0,
            "max_vehicles {max_vehicles}: warm run must trust the census"
        );
        assert_eq!(warm.stats.cert_cache_skips, warm.stats.certificate_hits);
        assert_eq!(warm.stats.classes, cold.stats.classes);
        assert_eq!(warm.instances.len(), cold.instances.len());
        for (w, c) in warm.instances.iter().zip(cold.instances.iter()) {
            assert_eq!(w.name(), c.name(), "max_vehicles {max_vehicles}");
            let wa: Vec<String> = w.graph().nodes().map(|(_, a)| a.to_string()).collect();
            let ca: Vec<String> = c.graph().nodes().map(|(_, a)| a.to_string()).collect();
            assert_eq!(wa, ca, "max_vehicles {max_vehicles}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
