//! Compile-cache correctness at the service boundary, carried all the way
//! to encrypted execution: an entry evicted under the byte budget must
//! recompile to a schedule that is not only structurally identical
//! (pinned by `structural_hash`) but **executes byte-identically** under
//! the same session keys and encryption seed — the golden-trace style
//! comparison (outputs + per-class op counts) applied across an eviction.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ir::{text, CompileParams};
use fhe_runtime::{execute_with_keys, ExecOptions, SessionKeys};
use fhe_serve::CompileCache;
use reserve_core::ReserveCompiler;

const SLOTS: usize = 64;

fn program_text(name: &str) -> String {
    let b = fhe_ir::Builder::new(name, SLOTS);
    let x = b.input("x");
    let y = b.input("y");
    let half = b.constant(0.5);
    let q = (x.clone() * y.clone() + x.clone()).rotate(2) * (y * half + x);
    text::print(&b.finish(vec![q]))
}

fn inputs() -> HashMap<String, Vec<f64>> {
    [
        (
            "x".to_string(),
            (0..SLOTS).map(|k| ((k % 7) as f64 - 3.0) * 0.1).collect(),
        ),
        (
            "y".to_string(),
            (0..SLOTS).map(|k| ((k % 4) as f64) * 0.15).collect(),
        ),
    ]
    .into_iter()
    .collect()
}

#[test]
fn evicted_entry_recompiles_and_executes_byte_identically() {
    let compiler = ReserveCompiler::full();
    let params = CompileParams::new(30);
    let p1 = text::parse(&program_text("alpha")).unwrap();
    let p2 = text::parse(&program_text("omega")).unwrap();

    // Size the budget to hold roughly one entry.
    let probe = CompileCache::new(None);
    probe.get_or_compile(&p1, &params, &compiler).unwrap();
    let one_entry = probe.stats().bytes;
    let cache = CompileCache::new(Some(one_entry + one_entry / 2));

    let original = cache.get_or_compile(&p1, &params, &compiler).unwrap();
    cache.get_or_compile(&p2, &params, &compiler).unwrap();
    assert_eq!(cache.stats().evictions, 1, "p1 evicted under the budget");

    let recompiled = cache.get_or_compile(&p1, &params, &compiler).unwrap();
    assert!(!recompiled.hit, "eviction forces a recompile");
    assert!(
        !Arc::ptr_eq(&original.scheduled, &recompiled.scheduled),
        "genuinely a fresh compilation, not the old Arc"
    );
    assert_eq!(
        original.scheduled.structural_hash(),
        recompiled.scheduled.structural_hash(),
        "deterministic compilation: eviction cannot change the schedule"
    );
    assert_eq!(
        text::print(&original.scheduled.program),
        text::print(&recompiled.scheduled.program),
        "scheduled programs print identically"
    );

    // Golden-trace style: execute both under the same keys and seed; the
    // outputs and the per-class op counts must match exactly.
    let options = ExecOptions {
        poly_degree: SLOTS * 2,
        seed: 0xE51C,
        ..ExecOptions::default()
    };
    let keys = SessionKeys::for_schedule(&original.scheduled, &options).unwrap();
    let binds = inputs();
    let a = execute_with_keys(&original.scheduled, &binds, &options, &keys, None, 42).unwrap();
    let b = execute_with_keys(&recompiled.scheduled, &binds, &options, &keys, None, 42).unwrap();
    assert_eq!(a.outputs, b.outputs, "byte-identical encrypted outputs");
    assert_eq!(a.ops_executed, b.ops_executed);
    let counts = |r: &fhe_runtime::ExecReport| {
        r.per_class
            .iter()
            .map(|&(c, _, n)| (c, n))
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&a), counts(&b), "identical per-class op counts");
}

#[test]
fn params_and_compiler_id_are_part_of_the_key() {
    let cache = CompileCache::new(None);
    let p = text::parse(&program_text("keyed")).unwrap();
    let reserve = ReserveCompiler::full();

    let base = cache
        .get_or_compile(&p, &CompileParams::new(30), &reserve)
        .unwrap();
    assert!(!base.hit);
    assert!(
        cache
            .get_or_compile(&p, &CompileParams::new(30), &reserve)
            .unwrap()
            .hit
    );

    // Same text, different waterline: a different schedule entirely.
    let tighter = cache
        .get_or_compile(&p, &CompileParams::new(25), &reserve)
        .unwrap();
    assert!(!tighter.hit);
    assert_ne!(
        base.scheduled.structural_hash(),
        tighter.scheduled.structural_hash(),
        "waterline changes the compiled schedule, so sharing would be wrong"
    );

    // Same text and params, different compiler id.
    let eva = cache
        .get_or_compile(&p, &CompileParams::new(30), &fhe_baselines::EvaCompiler)
        .unwrap();
    assert!(!eva.hit);

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
}
