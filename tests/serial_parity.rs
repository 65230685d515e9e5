//! History gate for the encrypted walk: the serial entry points
//! (`execute_encrypted`, `execute_with_keys`) must keep producing the
//! exact output bytes and memory counters recorded in
//! `tests/golden/serial_exec.txt`, and a one-runner, unfused DAG walk
//! (`execute_parallel` with `workers = 1, fusion = false`) must reproduce
//! the same counters: peak/live bytes, allocations, pool hits/misses, key
//! cache traffic, per-class op counts and per-class memory.
//!
//! The other exactness suites compare the executors with each other; this
//! one compares them with a fixed record, so a change that shifts the
//! serial path's bytes or counters cannot hide behind a matching change
//! in the parallel path.
//!
//! Cases: the eight `Size::Test` golden workloads and the rotate-heavy
//! fuzz mix of `tests/parallel_exactness.rs`. Output digests are FNV-1a
//! over the little-endian bits of every decrypted slot.

use std::fmt::Write;

use fhe_fuzz::{generate, input_data, schedule_fits_backend, GenConfig, OpMix};
use fhe_reserve::ir::ScheduledProgram;
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{
    execute_encrypted, execute_parallel, execute_with_keys, ExecOptions, ExecReport, MemStats,
    ParOptions, SessionKeys,
};
use fhe_reserve::workloads;

const FIXTURE: &str = include_str!("golden/serial_exec.txt");

/// Encryption seed of the `execute_with_keys` runs.
const ENC_SEED: u64 = 42;

fn digest(outputs: &[Vec<f64>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in outputs {
        for x in v {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

fn backend(slots: usize, seed: u64) -> ExecOptions {
    ExecOptions {
        poly_degree: slots * 2,
        seed,
        ..ExecOptions::default()
    }
}

/// The smallest output reserve whose schedule fits the backend, as in
/// `tests/parallel_exactness.rs`.
fn compile_fitting(w: &workloads::Workload) -> ScheduledProgram {
    for waterline_bits in [30u32, 35, 40] {
        for reserve_bits in [2u32, 4, 6, 8] {
            let mut options = Options::new(waterline_bits);
            options.params.output_reserve_bits = reserve_bits;
            let Ok(compiled) = compile(&w.program, &options) else {
                continue;
            };
            if schedule_fits_backend(&compiled.scheduled, &w.inputs) {
                return compiled.scheduled;
            }
        }
    }
    panic!("{}: no output reserve makes the schedule fit", w.name)
}

struct Case {
    name: String,
    scheduled: ScheduledProgram,
    inputs: std::collections::HashMap<String, Vec<f64>>,
    exec: ExecOptions,
    /// Golden workloads also pin their counters.
    counters: bool,
}

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = suite(Size::Test)
        .iter()
        .enumerate()
        .map(|(i, w)| Case {
            name: w.name.to_string(),
            scheduled: compile_fitting(w),
            inputs: w.inputs.clone(),
            exec: backend(w.program.slots(), 0xB17_EAC7 ^ i as u64),
            counters: true,
        })
        .collect();
    let cfg = GenConfig {
        opmix: OpMix {
            rotate: 8,
            ..OpMix::default()
        },
        max_ops: 30,
        ..GenConfig::default()
    };
    let mut rotate_heavy = 0usize;
    for seed in 0..300u64 {
        if rotate_heavy >= 12 {
            break;
        }
        let program = generate(seed, &cfg);
        let inputs = input_data(&program);
        let Ok(compiled) = compile(&program, &Options::new(35)) else {
            continue;
        };
        if !schedule_fits_backend(&compiled.scheduled, &inputs) {
            continue;
        }
        out.push(Case {
            name: format!("rot{seed}"),
            exec: backend(program.slots(), 0xF0_0D ^ seed),
            scheduled: compiled.scheduled,
            inputs,
            counters: false,
        });
        rotate_heavy += 1;
    }
    out
}

fn mem_fields(m: &MemStats) -> String {
    format!(
        "peak={} live={} alloc={} hits={} misses={} khits={} kmisses={} kevict={} kpeak={}",
        m.peak_bytes,
        m.live_bytes,
        m.allocations,
        m.pool_hits,
        m.pool_misses,
        m.key_hits,
        m.key_misses,
        m.key_evictions,
        m.key_bytes_peak
    )
}

/// The counter lines of one report: whole-run memory, then per class its
/// op count and memory counters.
fn counter_lines(name: &str, r: &ExecReport) -> String {
    let mut s = format!("{name} mem ops={} {}\n", r.ops_executed, mem_fields(&r.mem));
    for &(class, _, n) in &r.per_class {
        let m = r
            .per_class_mem
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, m)| mem_fields(m))
            .unwrap_or_else(|| "no-mem".to_string());
        let _ = writeln!(s, "{name} class {class:?} n={n} {m}");
    }
    s
}

fn fixture_lines(keep: impl Fn(&str) -> bool) -> Vec<&'static str> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty() && keep(l))
        .collect()
}

fn assert_lines(observed: &str, expected: &[&str], what: &str) {
    let observed: Vec<&str> = observed.lines().collect();
    for (o, e) in observed.iter().zip(expected) {
        assert_eq!(o, e, "{what} diverges from tests/golden/serial_exec.txt");
    }
    assert_eq!(observed.len(), expected.len(), "{what}: line count");
}

#[test]
fn serial_entry_points_match_recorded_bits_and_counters() {
    let mut observed = String::new();
    for case in cases() {
        let serial = execute_encrypted(&case.scheduled, &case.inputs, &case.exec)
            .unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
        let keys = SessionKeys::for_schedule(&case.scheduled, &case.exec).expect("valid");
        let with_keys = execute_with_keys(
            &case.scheduled,
            &case.inputs,
            &case.exec,
            &keys,
            None,
            ENC_SEED,
        )
        .unwrap_or_else(|e| panic!("{} with keys: {e:?}", case.name));
        let _ = writeln!(
            observed,
            "{} exec {:016x}",
            case.name,
            digest(&serial.outputs)
        );
        let _ = writeln!(
            observed,
            "{} keys {:016x}",
            case.name,
            digest(&with_keys.outputs)
        );
        if case.counters {
            observed.push_str(&counter_lines(&case.name, &serial));
        }
    }
    assert_lines(&observed, &fixture_lines(|_| true), "serial executor");
}

#[test]
fn one_runner_walk_reproduces_serial_counters() {
    let mut observed = String::new();
    for case in cases().into_iter().filter(|c| c.counters) {
        let walk = execute_parallel(
            &case.scheduled,
            &case.inputs,
            &ParOptions {
                exec: case.exec.clone(),
                workers: 1,
                fusion: false,
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
        observed.push_str(&counter_lines(&case.name, &walk));
    }
    let expected = fixture_lines(|l| l.contains(" mem ") || l.contains(" class "));
    assert_lines(&observed, &expected, "one-runner walk");
}
