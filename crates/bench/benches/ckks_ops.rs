//! Micro-benchmarks of the `fhe-ckks` homomorphic operations — the
//! statistical counterpart of the `table3` harness (reduced degree so the
//! suite finishes quickly).
//!
//! Plain timing harness (the workspace builds offline, without criterion):
//! each op is warmed up, then timed over enough iterations to smooth
//! scheduler noise, reporting the per-iteration mean.

use std::time::Instant;

use fhe_ckks::{encrypt_symmetric, CkksContext, CkksParams, Evaluator, KeyGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn time_op(name: &str, level: usize, mut f: impl FnMut()) {
    const WARMUP: usize = 2;
    const ITERS: usize = 10;
    for _ in 0..WARMUP {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let per_iter = t0.elapsed().as_secs_f64() / ITERS as f64;
    println!("ckks_ops/{name}/{level}: {:.1} us/iter", per_iter * 1e6);
}

fn main() {
    let levels = 3usize;
    let ctx = CkksContext::new(CkksParams {
        poly_degree: 1 << 11,
        max_level: levels + 1,
        modulus_bits: 45,
        special_bits: 46,
        error_std: 3.2,
    });
    let mut rng = StdRng::seed_from_u64(1);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key();
    let relin = kg.relin_key(&mut rng);
    let galois = kg.galois_keys([1i64], &mut rng);
    let ev = Evaluator::new(&ctx, Some(relin), galois);
    let values: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.01).sin()).collect();

    for level in 1..=levels {
        let pt = ev.encoder().encode(&values, 2f64.powi(40), level);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let ct2 = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let pt_up = ev.encoder().encode(&values, 2f64.powi(40), level + 1);
        let ct_up = encrypt_symmetric(&ctx, &sk, &pt_up, &mut rng);
        time_op("add", level, || {
            let _ = ev.add(&ct, &ct2);
        });
        time_op("mul_cipher", level, || {
            let _ = ev.mul(&ct, &ct2);
        });
        time_op("rotate", level, || {
            let _ = ev.rotate(&ct, 1);
        });
        time_op("rescale", level, || {
            let _ = ev.rescale(&ct_up);
        });
        time_op("modswitch", level, || {
            let _ = ev.mod_switch(&ct_up);
        });
    }
}
