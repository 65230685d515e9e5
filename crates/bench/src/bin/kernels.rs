//! Kernel microbenchmark: the Harvey/Barrett hot paths against the exact
//! `u128 %` reference kernels they replaced (DESIGN.md § Kernel
//! optimization).
//!
//! Four groups, each reported as latency plus speedup over its baseline:
//!
//! - **modmul** — pointwise modular multiplication over a buffer: Barrett
//!   (`Modulus::mul`) and Shoup (`Modulus::mul_shoup`, constant operand)
//!   vs the `u128 %` reference.
//! - **ntt** — forward/inverse negacyclic NTT at `N = 2^12` and `2^13`
//!   over a 60-bit prime: Harvey lazy butterflies vs the exact-reduction
//!   reference transforms.
//! - **galois** — the rotation automorphism `X ↦ X^5` on one NTT-domain
//!   limb at `N = 2^12` and `2^13`: the slot permutation
//!   (`RnsPoly::automorphism`, index table built per call) vs the
//!   coefficient-domain reference (inverse NTT, signed permutation,
//!   forward NTT).
//! - **encode** — reducing `N = 2^13` rounded encoder coefficients at
//!   scale `2^40` into one 50-bit limb: the integer path of
//!   `Modulus::reduce_f64` vs the IEEE bit-pattern reference.
//!
//! Kernels within a group are sampled round-robin (ref, fast, ref, fast,
//! …) and scored by their per-kernel minimum, so background-load drift
//! during the run biases every variant equally instead of whichever one
//! happened to run during the spike.
//!
//! `--fast` shrinks repetitions for CI smoke runs; `--json <path>` writes
//! the measured numbers (committed as `BENCH_kernels.json` at the repo
//! root for drift tracking).

use std::time::Instant;

use fhe_bench::{json::Json, print_table, CliArgs};
use fhe_ckks::modular::Modulus;
use fhe_ckks::ntt::NttTable;
use fhe_ckks::poly::RnsPoly;
use fhe_ckks::{CkksContext, CkksParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Times every kernel in lockstep: one warmup call each, then `reps`
/// rounds visiting the kernels in order, keeping each kernel's minimum
/// (interference only ever adds time, so the minimum is the estimate of
/// the undisturbed cost).
fn time_rotation_us(reps: usize, kernels: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for k in kernels.iter_mut() {
        k();
    }
    let mut best = vec![f64::INFINITY; kernels.len()];
    for _ in 0..reps.max(1) {
        for (k, b) in kernels.iter_mut().zip(best.iter_mut()) {
            let t0 = Instant::now();
            k();
            *b = b.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

struct Row {
    group: &'static str,
    name: String,
    us: f64,
    baseline_us: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_us / self.us
    }
}

fn main() {
    let args = CliArgs::parse();
    let reps = if args.fast { 5 } else { 25 };
    let mut rows: Vec<Row> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xC0DE);

    // --- modmul: 2^16 pointwise products over a 60-bit prime. ---
    let q = fhe_ckks::primes::ntt_primes(60, 1 << 13, 1)[0];
    let m = Modulus::new(q);
    let len = 1usize << 16;
    let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() % q).collect();
    let ys: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() % q).collect();
    let w = ys[0];
    let w_shoup = m.shoup(w);
    let sink: u64;
    let [reference_us, barrett_us, shoup_us] = {
        let mut sink_ref = 0u64;
        let mut sink_bar = 0u64;
        let mut sink_shp = 0u64;
        let best = time_rotation_us(
            reps,
            &mut [
                &mut || {
                    for (&a, &b) in xs.iter().zip(&ys) {
                        sink_ref = sink_ref.wrapping_add(m.mul_reference(a, b));
                    }
                },
                &mut || {
                    for (&a, &b) in xs.iter().zip(&ys) {
                        sink_bar = sink_bar.wrapping_add(m.mul(a, b));
                    }
                },
                &mut || {
                    for &a in &xs {
                        sink_shp = sink_shp.wrapping_add(m.mul_shoup(a, w, w_shoup));
                    }
                },
            ],
        );
        sink = sink_ref ^ sink_bar ^ sink_shp;
        [best[0], best[1], best[2]]
    };
    rows.push(Row {
        group: "modmul",
        name: format!("u128 % reference ({len} muls)"),
        us: reference_us,
        baseline_us: reference_us,
    });
    rows.push(Row {
        group: "modmul",
        name: "barrett".into(),
        us: barrett_us,
        baseline_us: reference_us,
    });
    rows.push(Row {
        group: "modmul",
        name: "shoup (constant operand)".into(),
        us: shoup_us,
        baseline_us: reference_us,
    });

    // --- ntt: forward/inverse at 2^12 and 2^13, 60-bit prime. ---
    for log_n in [12u32, 13] {
        let n = 1usize << log_n;
        let q = fhe_ckks::primes::ntt_primes(60, n, 1)[0];
        let m = Modulus::new(q);
        let table = NttTable::new(m, n);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
        let mut fwd_ref = data.clone();
        let mut fwd_fast = data.clone();
        let mut inv_ref = data.clone();
        let mut inv_fast = data.clone();
        let best = time_rotation_us(
            reps,
            &mut [
                &mut || table.forward_reference(&mut fwd_ref),
                &mut || table.forward(&mut fwd_fast),
                &mut || table.inverse_reference(&mut inv_ref),
                &mut || table.inverse(&mut inv_fast),
            ],
        );
        let (ref_fwd, harvey_fwd, ref_inv, harvey_inv) = (best[0], best[1], best[2], best[3]);
        rows.push(Row {
            group: "ntt",
            name: format!("forward 2^{log_n} reference"),
            us: ref_fwd,
            baseline_us: ref_fwd,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("forward 2^{log_n} harvey"),
            us: harvey_fwd,
            baseline_us: ref_fwd,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("inverse 2^{log_n} reference"),
            us: ref_inv,
            baseline_us: ref_inv,
        });
        rows.push(Row {
            group: "ntt",
            name: format!("inverse 2^{log_n} harvey"),
            us: harvey_inv,
            baseline_us: ref_inv,
        });
    }

    // --- galois: X ↦ X^5 on one NTT-domain limb, 50-bit prime. ---
    for log_n in [12u32, 13] {
        let ctx = CkksContext::new(CkksParams {
            poly_degree: 1 << log_n,
            max_level: 1,
            modulus_bits: 50,
            special_bits: 51,
            error_std: 3.2,
        });
        let mut by_reference = RnsPoly::uniform(&ctx, 1, false, &mut rng);
        let mut by_permutation = by_reference.clone();
        let best = time_rotation_us(
            reps,
            &mut [
                &mut || by_reference.automorphism_reference(&ctx, 5),
                &mut || by_permutation.automorphism(&ctx, 5),
            ],
        );
        // Both saw the same number of applications, so they must agree.
        assert_eq!(by_reference, by_permutation, "galois kernels diverged");
        rows.push(Row {
            group: "galois",
            name: format!("X^5 2^{log_n} coefficient reference"),
            us: best[0],
            baseline_us: best[0],
        });
        rows.push(Row {
            group: "galois",
            name: format!("X^5 2^{log_n} ntt permutation"),
            us: best[1],
            baseline_us: best[0],
        });
    }

    // --- encode: rounded coefficients at scale 2^40 into one limb. ---
    let q = fhe_ckks::primes::ntt_primes(50, 1 << 13, 1)[0];
    let m = Modulus::new(q);
    let coeffs: Vec<f64> = (0..1usize << 13)
        .map(|_| (rng.gen_range(-1.0f64..1.0) * 2f64.powi(40)).round())
        .collect();
    let mut by_reference = vec![0u64; coeffs.len()];
    let mut by_integer = vec![0u64; coeffs.len()];
    let best = time_rotation_us(
        reps,
        &mut [
            &mut || {
                for (r, &c) in by_reference.iter_mut().zip(&coeffs) {
                    *r = m.reduce_f64_reference(c);
                }
            },
            &mut || {
                for (r, &c) in by_integer.iter_mut().zip(&coeffs) {
                    *r = m.reduce_f64(c);
                }
            },
        ],
    );
    assert_eq!(by_reference, by_integer, "encode reductions diverged");
    rows.push(Row {
        group: "encode",
        name: format!("reduce_f64 reference ({} coeffs)", coeffs.len()),
        us: best[0],
        baseline_us: best[0],
    });
    rows.push(Row {
        group: "encode",
        name: "reduce_f64 integer path".into(),
        us: best[1],
        baseline_us: best[0],
    });

    println!("Kernel microbenchmarks (best of {reps} interleaved rounds, us).\n");
    let headers = ["group", "kernel", "us", "speedup"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.to_string(),
                r.name.clone(),
                format!("{:.1}", r.us),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    print_table(&headers, &table);

    let ntt_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.group == "ntt" && r.name.contains("harvey"))
        .map(Row::speedup)
        .collect();
    let min_ntt = ntt_speedups.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    println!("\nminimum NTT speedup over u128 % reference: {min_ntt:.2}x");
    assert!(sink != 0, "benchmark sink consumed");

    args.emit_json(&Json::obj([
        ("table", Json::from("kernels")),
        ("reps", Json::from(reps)),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("group", Json::from(r.group)),
                            ("kernel", Json::from(r.name.as_str())),
                            ("us", Json::from(r.us)),
                            ("speedup", Json::from(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}
