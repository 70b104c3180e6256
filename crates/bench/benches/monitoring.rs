//! Experiment S6: runtime conformance monitoring (§2.7) — throughput
//! of the fused monitor bank on streaming APA traces.
//!
//! `bank_feed` is the acceptance-criterion bench: the six-vehicle
//! requirement set (three warner/forwarder pairs, paper semantics)
//! compiled into one flat transition table and fed a pre-generated
//! event stream — the hot loop is one table lookup per (monitor,
//! event). The criterion number divided into the stream length must
//! exceed 1M events/sec single-threaded in release mode.
//!
//! `fleet_end_to_end` measures the full pipeline (graph build → walk →
//! inject → check) at 1/2/4 worker threads, whose reports are
//! bit-identical by construction.

use apa::{Apa, GraphWalk, ReachGraph, ReachOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsa_core::assisted::{elicit_from_graph, DependenceMethod};
use fsa_core::requirements::RequirementSet;
use fsa_runtime::{monitor_apa, FleetConfig, MonitorBank};
use std::hint::black_box;
use vanet::apa_model::{n_pair_apa, stakeholder_of};
use vanet::semantics::ApaSemantics;

/// The six-vehicle scenario (three warner/forwarder pairs), its
/// reachability graph and its elicited requirement set.
fn six_vehicle() -> (Apa, ReachGraph, RequirementSet) {
    let apa = n_pair_apa(3, ApaSemantics::PAPER).expect("valid model");
    let graph = apa
        .reachability(&ReachOptions::default())
        .expect("finite behaviour");
    let set = elicit_from_graph(&graph, DependenceMethod::Precedence, stakeholder_of).requirements;
    assert!(!set.is_empty(), "six-vehicle model elicits requirements");
    (apa, graph, set)
}

/// A long honest event stream for the bank, pre-mapped to bank
/// symbols: seeded walks over the graph (the fleet's runs), at most
/// 4 096 events each, concatenated until `len` events.
fn honest_stream(graph: &ReachGraph, bank: &MonitorBank, len: usize) -> Vec<u32> {
    let walk = GraphWalk::new(graph, |l| bank.event_symbol(graph.name(l.automaton)));
    let mut events = Vec::with_capacity(len);
    let mut seed = 0x6_5EED;
    while events.len() < len {
        walk.walk(seed, (len - events.len()).min(4096), &mut events);
        seed += 1;
    }
    events
}

fn bench_monitoring(c: &mut Criterion) {
    let (apa, graph, set) = six_vehicle();
    let bank = MonitorBank::for_apa(&set, &apa).expect("compiles");

    // Acceptance criterion: fused-bank throughput on a pre-generated
    // stream (pure check stage, single thread).
    let mut group = c.benchmark_group("monitoring");
    const STREAM: usize = 1 << 16;
    let events = honest_stream(&graph, &bank, STREAM);
    group.bench_function(
        BenchmarkId::new("bank_feed", format!("{}mon", bank.len())),
        |b| {
            b.iter(|| {
                let mut run = bank.start();
                bank.feed(&mut run, black_box(&events));
                black_box(run.events)
            })
        },
    );

    // Compilation cost: requirement set → fused table.
    group.bench_function("compile_bank", |b| {
        b.iter(|| black_box(MonitorBank::for_apa(black_box(&set), &apa).expect("compiles")))
    });

    // End-to-end fleet (graph build + walk + inject + check) across
    // worker counts; the per-thread reports are bit-identical.
    for threads in [1usize, 2, 4] {
        let cfg = FleetConfig {
            streams: 8,
            events_per_stream: 2048,
            threads,
            ..FleetConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("fleet_end_to_end", threads),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let (_, report) = monitor_apa(&apa, &set, cfg).expect("fleet runs");
                    assert!(report.verdicts.iter().all(|v| v.holds()));
                    black_box(report.events)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_monitoring);
criterion_main!(benches);
