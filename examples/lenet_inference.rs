//! LeNet-5 inference under encryption: compiles the 11-depth CNN with all
//! three compilers, compares their plans, and runs a reduced instance end
//! to end under real RNS-CKKS.
//!
//! The full 16384-slot LeNet-5 takes minutes under encryption in this pure
//! Rust backend; pass `--full` to compile (not execute) the paper-sized
//! instance and print its statistics.
//!
//! ```sh
//! cargo run --example lenet_inference --release [-- --full]
//! ```

use fhe_reserve::prelude::*;
use fhe_reserve::{baselines, runtime, workloads};
use workloads::lenet::{build, lenet_inputs, LenetConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");

    if full {
        let cfg = LenetConfig::lenet5();
        let program = build(&cfg);
        println!(
            "LeNet-5 (paper size): {} ops, depth {}",
            program.num_ops(),
            fhe_reserve::ir::analysis::circuit_depth(&program)
        );
        for waterline in [20, 40] {
            let t = std::time::Instant::now();
            let ours = fhe_reserve::compiler::compile(&program, &Options::new(waterline))?;
            println!(
                "  W=2^{waterline}: compiled in {:?} (scale mgmt {:?}), level {}, est {:.1} s",
                t.elapsed(),
                ours.report.scale_management_time,
                ours.report.max_level,
                ours.report.estimated_latency_us / 1e6
            );
        }
        return Ok(());
    }

    // Reduced LeNet: same 11-depth structure, 128 slots.
    let cfg = LenetConfig::tiny(128);
    let program = build(&cfg);
    let inputs = lenet_inputs(&cfg, 99);
    println!(
        "reduced LeNet: {} ops, depth {}",
        program.num_ops(),
        fhe_reserve::ir::analysis::circuit_depth(&program)
    );

    let params = CompileParams::new(25);
    let eva = baselines::eva::compile(&program, &params)?;
    let mut options = Options::new(25);
    options.params.output_reserve_bits = 4;
    let ours = fhe_reserve::compiler::compile(&program, &options)?;
    println!(
        "EVA:     level {:>2}, estimated {:>8.1} ms",
        eva.report.max_level,
        eva.report.estimated_latency_us / 1000.0
    );
    println!(
        "reserve: level {:>2}, estimated {:>8.1} ms ({} hoists, {:?} scale mgmt)",
        ours.report.max_level,
        ours.report.estimated_latency_us / 1000.0,
        ours.report.hoists,
        ours.report.scale_management_time
    );

    let report = runtime::execute_encrypted(
        &ours.scheduled,
        &inputs,
        &runtime::ExecOptions {
            poly_degree: 256,
            seed: 5,
            ..runtime::ExecOptions::default()
        },
    )
    .unwrap();
    println!(
        "encrypted inference: {} ops in {:?}, max error {:.3e}",
        report.ops_executed,
        report.op_time,
        report.max_abs_error()
    );
    let scores: Vec<f64> = report.outputs[0][..8].to_vec();
    println!("first 8 output scores: {scores:.3?}");
    assert!(report.max_abs_error() < 0.05);
    Ok(())
}
