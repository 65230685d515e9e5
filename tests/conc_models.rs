//! Model-checked protocol suite (checker builds only): the `fhe-conc`
//! deterministic scheduler driving the workspace's real concurrent
//! protocols and their distilled skeletons.
//!
//! Two planted regressions anchor the suite — the checker must *find*
//! them, not merely pass the fixed code:
//!
//! - the encrypted walk's panic→park hang (a runner that unwinds without
//!   waking its parked siblings leaves them waiting on a completion that
//!   never comes);
//! - the PR 9 submit/shutdown race in the serve layer (a submitter that
//!   only checks the shutdown flag before taking the queue lock strands
//!   its ticket on a drained queue).
//!
//! The fixed protocols then pass exhaustively (the skeletons and the
//! small models over the real `CompileCache`/`PolyPool` types) or across
//! committed PCT seeds (the `CompileCache` LRU model, whose per-execution
//! step count is too large for full enumeration).
//!
//! Run with: `RUSTFLAGS="--cfg fhe_conc" cargo test --test conc_models`
//! (the `conc-smoke` CI job; in ordinary builds this file is empty).
#![cfg(fhe_conc)]

use std::collections::HashMap;
use std::sync::Mutex as StdMutex;

use fhe_ckks::PolyPool;
use fhe_conc::sync::atomic::{AtomicUsize, Ordering};
use fhe_conc::sync::{thread, Arc};
use fhe_conc::{check, Config, FailureKind, Mode};
use fhe_ir::{text, CompileParams};
use fhe_reserve::conc_model::walk_model;
use fhe_serve::server::conc_model::{quarantine_admission_model, submit_shutdown_model};
use fhe_serve::CompileCache;
use reserve_core::ReserveCompiler;

/// Fixed PCT seed for the large-model tier; committed so CI failures
/// replay bit-identically (`Config::pct` derives per-execution seeds from
/// it deterministically).
const PCT_SEED: u64 = 0x5EED_CAFE_F00D_0001;
/// Schedules per PCT model (the issue's acceptance floor).
const PCT_EXECUTIONS: u64 = 200;

fn exhaustive() -> Config {
    Config::exhaustive()
}

/// Unbounded exhaustive search for the small skeletons: no preemption
/// bound, so `complete` means every interleaving (modulo sleep-set
/// equivalence) was visited.
fn exhaustive_unbounded() -> Config {
    Config {
        mode: Mode::Exhaustive {
            max_executions: 200_000,
            preemption_bound: None,
        },
        max_steps: 50_000,
    }
}

fn pct() -> Config {
    Config::pct(PCT_SEED, PCT_EXECUTIONS)
}

// ---------------------------------------------------------------------
// Encrypted walk: frontier park/complete/panic protocol
// ---------------------------------------------------------------------

#[test]
fn walk_panic_without_a_wake_strands_a_parked_runner() {
    let outcome = check("walk-panic-unwoken", exhaustive(), || {
        walk_model(Some(1), false)
    });
    let failure = outcome
        .failure
        .expect("the checker must rediscover the panic→park hang");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "the parked runner and the joining caller block forever, got {failure:?}"
    );
    assert!(
        !failure.trace.is_empty(),
        "a replayable counterexample schedule is recorded"
    );
}

#[test]
fn walk_panic_with_a_wake_passes_exhaustively() {
    for node in 0..4 {
        let outcome = check("walk-panic-woken", exhaustive_unbounded(), move || {
            walk_model(Some(node), true)
        });
        assert!(
            outcome.passed(),
            "panic at node {node}: {:?}",
            outcome.failure
        );
        assert!(outcome.complete, "small model fully explored");
        assert!(outcome.executions >= 2);
    }
}

#[test]
fn walk_retires_every_node_exactly_once_exhaustively() {
    let outcome = check("walk-frontier", exhaustive_unbounded(), || {
        walk_model(None, true)
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.complete, "small model fully explored");
    assert!(outcome.executions >= 2);
}

// ---------------------------------------------------------------------
// Serve layer: enqueue/shutdown (PR 9 race) and quarantine admission
// ---------------------------------------------------------------------

#[test]
fn submit_without_under_lock_recheck_strands_a_ticket() {
    let outcome = check("submit-shutdown-unchecked", exhaustive(), || {
        submit_shutdown_model(false)
    });
    let failure = outcome
        .failure
        .expect("the checker must rediscover the submit/shutdown race");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "the stranded ticket leaves its submitter blocked forever, got {failure:?}"
    );
}

#[test]
fn submit_shutdown_with_recheck_passes_exhaustively() {
    let outcome = check("submit-shutdown-fixed", exhaustive(), || {
        submit_shutdown_model(true)
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 2);
}

#[test]
fn quarantine_admission_is_ordered_exhaustively() {
    let outcome = check("quarantine-admission", exhaustive(), || {
        quarantine_admission_model()
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 2);
}

// ---------------------------------------------------------------------
// Compile cache: single-flight and LRU admission on the real type
// ---------------------------------------------------------------------

fn tiny_program(name: &str) -> fhe_ir::Program {
    let b = fhe_ir::Builder::new(name, 4);
    let x = b.input("x");
    let y = b.input("y");
    text::parse(&text::print(&b.finish(vec![x * y]))).expect("round-trips")
}

#[test]
fn cold_key_compiles_exactly_once_in_every_interleaving() {
    // Two threads race get_or_compile on the same cold key. The
    // single-flight claim must serialize them into exactly one compile
    // and one hit, and both must share the same scheduled program.
    let outcome = check("cache-single-flight", exhaustive(), || {
        let cache = Arc::new(CompileCache::new(None));
        let program = Arc::new(tiny_program("sf"));
        let params = CompileParams::new(30);
        let t = {
            let (cache, program, params) = (cache.clone(), program.clone(), params.clone());
            thread::spawn(move || {
                let compiler = ReserveCompiler::full();
                cache
                    .get_or_compile(&program, &params, &compiler)
                    .expect("compiles")
                    .scheduled
            })
        };
        let compiler = ReserveCompiler::full();
        let mine = cache
            .get_or_compile(&program, &params, &compiler)
            .expect("compiles")
            .scheduled;
        let theirs = t.join().expect("peer compiles");
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both callers share one cached schedule"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one compile");
        assert_eq!(stats.hits, 1, "the loser of the flight race hits");
        assert_eq!(stats.entries, 1);
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(
        outcome.executions >= 2,
        "the flight race has more than one schedule"
    );
}

#[test]
fn lru_never_evicts_the_just_inserted_entry_under_contention() {
    // A budget far below one entry forces an eviction decision on every
    // insert; the `e.tick != tick` filter must keep the entry that was
    // inserted by the *current* lookup, in every interleaving of two
    // threads inserting distinct keys.
    let outcome = check("cache-lru-admission", pct(), || {
        let cache = Arc::new(CompileCache::new(Some(1)));
        let t = {
            let cache = cache.clone();
            thread::spawn(move || {
                let compiler = ReserveCompiler::full();
                let program = tiny_program("lru-a");
                cache
                    .get_or_compile(&program, &CompileParams::new(30), &compiler)
                    .expect("compiles despite the tiny budget")
            })
        };
        let compiler = ReserveCompiler::full();
        let program = tiny_program("lru-b");
        cache
            .get_or_compile(&program, &CompileParams::new(30), &compiler)
            .expect("compiles despite the tiny budget");
        t.join().expect("peer compiles");
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert!(
            stats.entries >= 1,
            "the most recent insert always survives its own eviction pass"
        );
        assert_eq!(
            stats.evictions as usize + stats.entries,
            2,
            "every inserted entry is either cached or counted evicted"
        );
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert_eq!(outcome.executions, PCT_EXECUTIONS);
}

// ---------------------------------------------------------------------
// Poly pool: counter exactness at quiescence
// ---------------------------------------------------------------------

#[test]
fn pool_counters_are_exact_in_every_interleaving() {
    const DEGREE: usize = 8;
    const LIMB_BYTES: u64 = (DEGREE * 8) as u64;
    let outcome = check("polypool-counters", exhaustive(), || {
        let pool = Arc::new(PolyPool::new(DEGREE));
        let worker = {
            let pool = pool.clone();
            thread::spawn(move || {
                let bufs = pool.take_raw(1);
                pool.put(bufs);
            })
        };
        let bufs = pool.take_raw(2);
        pool.put(bufs);
        worker.join().expect("worker balances its traffic");
        // Quiescence: both threads joined, so the exactness claims in the
        // module docs must hold as cross-field invariants.
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 3, "every checkout counted once");
        assert_eq!(s.returns, 3, "every buffer returned exactly once");
        assert_eq!(s.live_bytes, 0, "balanced take/put leaves nothing live");
        assert!(
            s.peak_bytes >= 2 * LIMB_BYTES && s.peak_bytes <= 3 * LIMB_BYTES,
            "peak brackets the true high-water mark, got {}",
            s.peak_bytes
        );
        assert_eq!(
            s.free_bytes,
            (s.returns - s.hits) * LIMB_BYTES,
            "parked bytes equal net returns"
        );
        assert_eq!(
            pool.parked_buffers() as u64 * LIMB_BYTES,
            s.free_bytes,
            "shard contents sum to the global free-byte counter"
        );
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(
        outcome.executions >= 2,
        "shard traffic interleaves in more than one order"
    );
}

// ---------------------------------------------------------------------
// Exploration sanity on this suite's own scale
// ---------------------------------------------------------------------

#[test]
fn exhaustive_models_here_really_explore_multiple_schedules() {
    // Meta-check: a two-thread race visits both orders; recording distinct
    // observations guards against a scheduler regression that silently
    // serializes.
    let observed: Arc<StdMutex<HashMap<&'static str, u64>>> =
        Arc::new(StdMutex::new(HashMap::new()));
    let observed2 = observed.clone();
    let outcome = check("exploration-sanity", exhaustive_unbounded(), move || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || x2.store(1, Ordering::SeqCst));
        let label = if x.load(Ordering::SeqCst) == 0 {
            "load-first"
        } else {
            "store-first"
        };
        *observed2.lock().unwrap().entry(label).or_insert(0) += 1;
        t.join().expect("joins");
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    let observed = observed.lock().unwrap();
    assert!(
        observed.contains_key("load-first") && observed.contains_key("store-first"),
        "both orders visited: {observed:?}"
    );
}
