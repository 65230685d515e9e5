//! `conc_smoke` — runs the concurrency model suite and emits a
//! machine-readable [`ConcReport`].
//!
//! In checker builds (`RUSTFLAGS="--cfg fhe_conc"`) this explores
//! interleavings for real: the two planted regressions (the walk's
//! panic→park hang, the serve queue's submit/shutdown race) must be
//! *rediscovered* — their records count as passed only when the checker
//! finds the bug — and the fixed protocols must survive every explored
//! schedule. In ordinary builds the checker-only skeletons don't exist;
//! the models over shipped types (`CompileCache`, `PolyPool`) run once
//! with real threads and report `"passthrough"`, so the binary stays
//! useful as a cheap smoke test in both build modes.
//!
//! Usage: `conc_smoke [--json]`. `--json` prints the report to stdout in
//! the hand-rolled JSON shape of [`ConcReport::to_json`]; without it a
//! human-readable table is printed. Exit status is 0 iff every record
//! passed. On a genuine model failure, `FHE_CONC_TRACE_DIR` (if set)
//! receives the numbered counterexample schedule.

use std::process::ExitCode;
use std::time::Instant;

use fhe_ckks::PolyPool;
use fhe_conc::sync::{thread, Arc};
use fhe_conc::{check, ConcReport, Config, ModelRecord};
use fhe_ir::{text, CompileParams};
use fhe_serve::CompileCache;
use reserve_core::ReserveCompiler;

/// One entry in the smoke suite. `expect_failure` marks the planted
/// regressions: their record passes only when the checker *finds* the
/// race.
struct Spec {
    name: &'static str,
    config: Config,
    expect_failure: bool,
    run: fn(),
}

fn tiny_program(name: &str) -> fhe_ir::Program {
    let b = fhe_ir::Builder::new(name, 4);
    let x = b.input("x");
    let y = b.input("y");
    text::parse(&text::print(&b.finish(vec![x * y]))).expect("round-trips")
}

// ---- models over shipped types (compile in both build modes) ----

fn cache_single_flight() {
    let cache = Arc::new(CompileCache::new(None));
    let program = Arc::new(tiny_program("sf"));
    let params = CompileParams::new(30);
    let t = {
        let (cache, program) = (cache.clone(), program.clone());
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
    assert!(Arc::ptr_eq(&mine, &theirs), "one cached schedule shared");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "exactly one compile");
    assert_eq!(stats.hits, 1, "the flight-race loser hits");
}

fn polypool_counters() {
    const DEGREE: usize = 8;
    const LIMB_BYTES: u64 = (DEGREE * 8) as u64;
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
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, 3, "every checkout counted once");
    assert_eq!(s.returns, 3, "every buffer returned exactly once");
    assert_eq!(s.live_bytes, 0, "balanced take/put leaves nothing live");
    assert_eq!(s.free_bytes, (s.returns - s.hits) * LIMB_BYTES);
}

// ---- checker-only skeletons (the planted regressions + fixes) ----

#[cfg(fhe_conc)]
fn walk_panic_unwoken() {
    fhe_reserve::conc_model::walk_model(Some(1), false);
}

#[cfg(fhe_conc)]
fn walk_panic_woken() {
    fhe_reserve::conc_model::walk_model(Some(1), true);
}

#[cfg(fhe_conc)]
fn walk_frontier() {
    fhe_reserve::conc_model::walk_model(None, true);
}

#[cfg(fhe_conc)]
fn submit_shutdown_unchecked() {
    fhe_serve::server::conc_model::submit_shutdown_model(false);
}

#[cfg(fhe_conc)]
fn submit_shutdown_fixed() {
    fhe_serve::server::conc_model::submit_shutdown_model(true);
}

#[cfg(fhe_conc)]
fn quarantine_admission() {
    fhe_serve::server::conc_model::quarantine_admission_model();
}

fn suite() -> Vec<Spec> {
    #[allow(unused_mut)]
    let mut specs = vec![
        Spec {
            name: "cache-single-flight",
            config: Config::exhaustive(),
            expect_failure: false,
            run: cache_single_flight,
        },
        Spec {
            name: "polypool-counters",
            config: Config::exhaustive(),
            expect_failure: false,
            run: polypool_counters,
        },
    ];
    #[cfg(fhe_conc)]
    specs.extend([
        Spec {
            name: "walk-panic-unwoken",
            config: Config::exhaustive(),
            expect_failure: true,
            run: walk_panic_unwoken,
        },
        Spec {
            name: "walk-panic-woken",
            config: Config::exhaustive(),
            expect_failure: false,
            run: walk_panic_woken,
        },
        Spec {
            name: "walk-frontier",
            config: Config::exhaustive(),
            expect_failure: false,
            run: walk_frontier,
        },
        Spec {
            name: "submit-shutdown-unchecked",
            config: Config::exhaustive(),
            expect_failure: true,
            run: submit_shutdown_unchecked,
        },
        Spec {
            name: "submit-shutdown-fixed",
            config: Config::exhaustive(),
            expect_failure: false,
            run: submit_shutdown_fixed,
        },
        Spec {
            name: "quarantine-admission",
            config: Config::exhaustive(),
            expect_failure: false,
            run: quarantine_admission,
        },
    ]);
    specs
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let checker_enabled = cfg!(fhe_conc);

    let mut report = ConcReport {
        checker_enabled,
        models: Vec::new(),
    };
    for spec in suite() {
        let mode = if checker_enabled {
            spec.config.mode.label().to_string()
        } else {
            "passthrough".to_string()
        };
        let start = Instant::now();
        let outcome = check(spec.name, spec.config, spec.run);
        let wall_ms = start.elapsed().as_millis() as u64;
        let passed = if spec.expect_failure {
            outcome.failure.is_some()
        } else {
            outcome.passed()
        };
        if !json {
            eprintln!(
                "{:<28} {:<12} {:>8} schedules  {:>6} ms  {}",
                outcome.name,
                mode,
                outcome.executions,
                wall_ms,
                if passed {
                    if spec.expect_failure {
                        "ok (race found)"
                    } else {
                        "ok"
                    }
                } else {
                    "FAILED"
                }
            );
            if !passed {
                if let Some(failure) = &outcome.failure {
                    eprintln!("{}", failure.render());
                } else if spec.expect_failure {
                    eprintln!(
                        "  expected the checker to find the planted race, \
                         but every schedule passed"
                    );
                }
            }
        }
        report.models.push(ModelRecord {
            name: outcome.name,
            mode,
            executions: outcome.executions,
            pruned: outcome.pruned,
            complete: outcome.complete,
            passed,
            wall_ms,
        });
    }

    if json {
        print!("{}", report.to_json());
    } else {
        eprintln!(
            "{}/{} models passed, {} interleavings explored (checker {})",
            report.models.iter().filter(|m| m.passed).count(),
            report.models.len(),
            report.total_executions(),
            if checker_enabled {
                "on"
            } else {
                "off (passthrough)"
            },
        );
    }
    if report.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
