//! Bit-exactness property suite for the DAG-parallel executor: for every
//! worker count, with fusion and rotation hoisting on, the parallel
//! backend must reproduce the serial encrypted backend's decrypted
//! outputs *byte for byte* — not merely within noise tolerance.
//!
//! This is the executable form of the executor's determinism argument:
//! key generation and input encryption consume the seeded RNG in schedule
//! order before the walk goes wide, lazily generated Galois keys come
//! from per-element RNG streams (generation order cannot matter), and
//! every homomorphic op — including the fused mul·relin·rescale kernel —
//! is a deterministic function of its operand bytes. Any nondeterminism a
//! racing runner could introduce (a stale pooled buffer, an unordered
//! free, a hoist-group member running before its leader) shows up here as
//! a bitwise divergence.
//!
//! The workspace builds offline (no proptest): deterministic seeded
//! loops, every case reproducible from its printed seed or workload name.

use fhe_fuzz::{generate, input_data, schedule_fits_backend, GenConfig, OpMix};
use fhe_reserve::prelude::*;
use fhe_reserve::runtime::{ExecOptions, ParCkksExec, ParOptions};
use fhe_reserve::workloads;

/// The widths the suite sweeps: serial walk, small, odd, and wider than
/// the golden programs' max DAG width.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn backend(slots: usize, seed: u64) -> ExecOptions {
    ExecOptions {
        poly_degree: slots * 2,
        seed,
        ..ExecOptions::default()
    }
}

/// Compiles a workload with the smallest output reserve whose schedule
/// fits the backend's modulus budget (Table 1's `m·x_max < Q`), mirroring
/// the fuzz oracle's magnitude handling.
fn compile_fitting(w: &workloads::Workload) -> Option<fhe_reserve::ir::ScheduledProgram> {
    for waterline_bits in [30u32, 35, 40] {
        for reserve_bits in [2u32, 4, 6, 8] {
            let mut options = Options::new(waterline_bits);
            options.params.output_reserve_bits = reserve_bits;
            let Ok(compiled) = compile(&w.program, &options) else {
                continue;
            };
            if schedule_fits_backend(&compiled.scheduled, &w.inputs) {
                return Some(compiled.scheduled);
            }
        }
    }
    None
}

#[test]
fn golden_workloads_are_bit_exact_at_every_width() {
    let mut checked = 0usize;
    for w in suite(Size::Test) {
        let Some(scheduled) = compile_fitting(&w) else {
            panic!("{}: no output reserve makes the schedule fit", w.name);
        };
        let exec = backend(w.program.slots(), 0xB17_EAC7 ^ checked as u64);
        let serial = CkksExec {
            options: exec.clone(),
        }
        .execute(&scheduled, &w.inputs)
        .unwrap_or_else(|e| panic!("{} serial: {e:?}", w.name));
        outputs_close(&serial.outputs, &serial.reference, 5e-2)
            .unwrap_or_else(|e| panic!("{} serial vs reference: {e}", w.name));
        let want = bits(&serial.outputs);
        for workers in WIDTHS {
            let par = ParCkksExec {
                options: ParOptions {
                    exec: exec.clone(),
                    workers,
                    fusion: true,
                },
            }
            .execute(&scheduled, &w.inputs)
            .unwrap_or_else(|e| panic!("{} parallel x{workers}: {e:?}", w.name));
            assert_eq!(
                bits(&par.outputs),
                want,
                "{} diverges bitwise from serial at {workers} workers",
                w.name
            );
            assert_eq!(
                par.trace.ops_executed, serial.trace.ops_executed,
                "{} op count at {workers} workers",
                w.name
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 8, "all eight golden workloads must be exercised");
}

#[test]
fn rotate_heavy_fuzz_mix_is_bit_exact() {
    // Rotation-heavy programs exercise the hoist groups (shared
    // decompositions distributed across runners) and the lazy key cache
    // under concurrent lookups — the two paths where a parallel-order bug
    // would corrupt bytes silently.
    let cfg = GenConfig {
        opmix: OpMix {
            rotate: 8,
            ..OpMix::default()
        },
        max_ops: 30,
        ..GenConfig::default()
    };
    let mut checked = 0usize;
    for seed in 0..300u64 {
        if checked >= 12 {
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
        let exec = backend(program.slots(), 0xF0_0D ^ seed);
        let serial = fhe_reserve::runtime::execute_encrypted(&compiled.scheduled, &inputs, &exec)
            .unwrap_or_else(|e| panic!("seed {seed} serial: {e:?}"));
        let want = bits(&serial.outputs);
        for workers in [3usize, 8] {
            let par = fhe_reserve::runtime::execute_parallel(
                &compiled.scheduled,
                &inputs,
                &ParOptions {
                    exec: exec.clone(),
                    workers,
                    fusion: true,
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed} parallel x{workers}: {e:?}"));
            assert_eq!(
                bits(&par.outputs),
                want,
                "seed {seed} diverges bitwise at {workers} workers"
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} rotate-heavy programs fit");
}
