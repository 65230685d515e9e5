//! The benchmark's programs, built from the `fhe_workloads` builders with
//! every weight and input seed derived from the run's `--seed`, and the
//! per-program choice of compile parameters.

use std::collections::HashMap;

use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{text, CompileParams, Op, Program, ScheduledProgram};
use fhe_workloads::{image, lenet, mlp, regression};
use reserve_core::ReserveCompiler;

pub type Inputs = HashMap<String, Vec<f64>>;

/// A named program with its generated inputs.
#[derive(Debug, Clone)]
pub struct Prog {
    pub name: &'static str,
    pub program: Program,
    pub inputs: Inputs,
}

impl Prog {
    pub fn text(&self) -> String {
        text::print(&self.program)
    }
}

/// SplitMix64 finalizer: the seed-derivation function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one purpose (`tag`) derived from the run's seed.
pub fn derive(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(mix(seed), |h, b| mix(h ^ u64::from(b)))
}

fn lenet_cfg(slots: usize, grid: usize, channels: usize, weight_seed: u64) -> lenet::LenetConfig {
    lenet::LenetConfig {
        grid,
        in_channels: channels,
        seed: weight_seed,
        ..lenet::LenetConfig::tiny(slots)
    }
}

fn lenet_prog(name: &'static str, cfg: &lenet::LenetConfig, input_seed: u64) -> Prog {
    Prog {
        name,
        program: lenet::build(cfg),
        inputs: lenet::lenet_inputs(cfg, input_seed),
    }
}

fn mlp_prog(name: &'static str, slots: usize, diagonals: usize, seed: u64, tag: &str) -> Prog {
    Prog {
        name,
        program: mlp::mlp(slots, diagonals, derive(seed, &format!("{tag}.w"))),
        inputs: mlp::mlp_inputs(slots, derive(seed, &format!("{tag}.x"))),
    }
}

/// `encrypted-suite`: seven programs at 1024 slots (N = 2^11).
pub fn encrypted_suite(seed: u64) -> Vec<Prog> {
    let s = |tag: &str| derive(seed, &format!("enc.{tag}"));
    vec![
        Prog {
            name: "SF",
            program: image::sobel(32),
            inputs: image::image_inputs(32, s("sf")),
        },
        Prog {
            name: "HCD",
            program: image::harris(32),
            inputs: image::image_inputs(32, s("hcd")),
        },
        Prog {
            name: "LR",
            program: regression::linear(1024, 2),
            inputs: regression::linear_inputs(1024, s("lr")),
        },
        Prog {
            name: "MR",
            program: regression::multivariate(1024, 3, 2),
            inputs: regression::multivariate_inputs(1024, 3, s("mr")),
        },
        mlp_prog("MLP", 1024, 16, seed, "enc.mlp"),
        lenet_prog(
            "Lenet-1ch",
            &lenet_cfg(1024, 16, 1, s("lenet1.w")),
            s("lenet1.x"),
        ),
        lenet_prog(
            "Lenet-3ch",
            &lenet_cfg(1024, 16, 3, s("lenet3.w")),
            s("lenet3.x"),
        ),
    ]
}

/// `serve-mix`: the five programs clients repeat, at 256 slots (N = 2^9).
pub fn serve_known(seed: u64) -> Vec<Prog> {
    let s = |tag: &str| derive(seed, &format!("serve.{tag}"));
    vec![
        Prog {
            name: "SF",
            program: image::sobel(16),
            inputs: image::image_inputs(16, s("sf")),
        },
        Prog {
            name: "HCD",
            program: image::harris(16),
            inputs: image::image_inputs(16, s("hcd")),
        },
        Prog {
            name: "LR",
            program: regression::linear(256, 2),
            inputs: regression::linear_inputs(256, s("lr")),
        },
        mlp_prog("MLP", 256, 8, seed, "serve.mlp"),
        lenet_prog("Lenet", &lenet_cfg(256, 16, 1, s("lenet.w")), s("lenet.x")),
    ]
}

/// A freshly seeded MLP (`kind` even) or LeNet (`kind` odd) variant: new
/// weights, so new program text and a compile-cache miss.
pub fn serve_variant(seed: u64, index: u64) -> Prog {
    let tag = format!("serve.variant{index}");
    if index.is_multiple_of(2) {
        mlp_prog("MLP", 256, 8, seed, &tag)
    } else {
        let cfg = lenet_cfg(256, 16, 1, derive(seed, &format!("{tag}.w")));
        lenet_prog("Lenet", &cfg, derive(seed, &format!("{tag}.x")))
    }
}

/// Whether the schedule contains an upscale by a factor that is not an
/// integer, which the backend cannot realise exactly.
pub fn has_fractional_upscale(scheduled: &ScheduledProgram) -> bool {
    scheduled.program.ops().iter().any(|op| match op {
        Op::Upscale(_, delta) => {
            let f = 2f64.powf(delta.to_f64());
            f < 2f64.powi(53) && (f.round() - f).abs() / f > 1e-8
        }
        _ => false,
    })
}

/// The compile parameters a workload runs a program under, and what the
/// search rejected on the way.
pub struct Fitted {
    pub params: CompileParams,
    /// `(waterline, output reserve, why)` for every rejected candidate.
    pub rejected: Vec<(u32, u32, &'static str)>,
}

/// Picks the smallest waterline / output-reserve pair whose reserve
/// schedule passes the repository's backend gate
/// (`fhe_fuzz::schedule_fits_backend`). The gate rejects, among others,
/// the fractional-bit upscales the reserve compiler emits on HCD at
/// waterline 30 — a known compiler defect this benchmark routes around
/// rather than hides (see the README).
pub fn fit(p: &Prog) -> Result<Fitted, String> {
    let mut rejected = Vec::new();
    for waterline in [30u32, 35, 40] {
        for reserve in [2u32, 4, 6, 8] {
            let mut params = CompileParams::new(waterline);
            params.output_reserve_bits = reserve;
            let compiled = match ReserveCompiler::full().compile(&p.program, &params) {
                Ok(c) => c,
                Err(_) => {
                    rejected.push((waterline, reserve, "compile error"));
                    continue;
                }
            };
            if fhe_fuzz::schedule_fits_backend(&compiled.scheduled, &p.inputs) {
                return Ok(Fitted { params, rejected });
            }
            let why = if has_fractional_upscale(&compiled.scheduled) {
                "fractional upscale"
            } else {
                "modulus budget"
            };
            rejected.push((waterline, reserve, why));
        }
    }
    Err(format!("{}: no waterline/reserve fits the backend", p.name))
}

/// An order-independent digest of a program's inputs (for the self-check:
/// a new seed must change it).
pub fn inputs_digest(progs: &[Prog]) -> u64 {
    let mut h = 0u64;
    for p in progs {
        let mut names: Vec<&String> = p.inputs.keys().collect();
        names.sort();
        for n in names {
            for v in &p.inputs[n] {
                h = mix(h ^ v.to_bits());
            }
        }
    }
    h
}
