//! `encrypted-suite`: a closed loop with one client. Each request is one
//! encrypt → walk → decrypt of one of seven reserve-compiled programs at
//! N = 2^11, alternating DAG width 1 (`execute_with_keys`) and width 2
//! (`execute_parallel_with_keys`). Limb fan-out is pinned to one thread.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fhe_ckks::{decrypt, encrypt_symmetric, Evaluator};
use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{text, Op, OpClass, ScheduledProgram};
use fhe_runtime::{
    execute_parallel_with_keys, execute_with_keys, plain, rotation_steps, ExecOptions, ExecReport,
    KeyPolicy, ParOptions, ParReport, SessionKeys,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reserve_core::ReserveCompiler;

use crate::compiles::CompileRounds;
use crate::programs::{self, derive, Prog};
use crate::report::{Report, SUITE};
use crate::stats::{class_quantile, max_abs_diff, median, precision_bits};
use crate::{trace, within_tolerance, Args};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The loop runs a compile round before every `ROUND_EVERY`-th program of
/// a cycle, so the rounds spread across the run; at least
/// `MIN_COMPILE_ROUNDS` are timed.
const ROUND_EVERY: usize = 2;
const MIN_COMPILE_ROUNDS: usize = 8;
/// Repetitions of each kernel call in the traced run's kernel table.
const KERNEL_REPS: usize = 25;

/// The op-class rows of the attribution table: `(metric stem, classes)`.
const CLASS_ROWS: [(&str, &[OpClass]); 6] = [
    ("rotate", &[OpClass::Rotate]),
    ("mul_cipher", &[OpClass::MulCipher]),
    ("mul_plain", &[OpClass::MulPlain]),
    ("rescale", &[OpClass::Rescale]),
    ("add", &[OpClass::AddPlain, OpClass::AddCipher]),
    ("modswitch", &[OpClass::ModSwitch]),
];

fn exec_options(seed: u64) -> ExecOptions {
    ExecOptions {
        poly_degree: 2048,
        seed: derive(seed, "enc.keys"),
        threads: 1,
        keys: KeyPolicy::EagerProgram,
        rotation_hoisting: true,
    }
}

/// One program made ready to serve: its schedule and eager keys.
struct Ready {
    scheduled: ScheduledProgram,
    keys: SessionKeys,
}

/// One request's report, by DAG width.
enum Walk {
    Serial(ExecReport),
    Dag(ParReport),
}

/// Width-1 request telemetry.
#[derive(Default)]
struct W1 {
    lat: Vec<f64>,
    op: Vec<f64>,
    classes: Vec<[f64; CLASS_ROWS.len()]>,
    counts: [usize; CLASS_ROWS.len()],
    peak_bytes: u64,
    pool_hits: u64,
    pool_checkouts: u64,
}

/// Width-2 request telemetry.
#[derive(Default)]
struct W2 {
    lat: Vec<f64>,
    walk: Vec<f64>,
    node: Vec<f64>,
    idle: Vec<f64>,
    fused: usize,
    hoisted: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn class_row(
    per_class: &[(OpClass, Duration, usize)],
) -> ([f64; CLASS_ROWS.len()], [usize; CLASS_ROWS.len()]) {
    let mut t = [0.0; CLASS_ROWS.len()];
    let mut n = [0usize; CLASS_ROWS.len()];
    for (class, d, count) in per_class {
        let row = CLASS_ROWS
            .iter()
            .position(|(_, cs)| cs.contains(class))
            .expect("every op class has a row");
        t[row] += ms(*d);
        n[row] += count;
    }
    (t, n)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let progs = programs::encrypted_suite(args.seed);
    debug_assert_eq!(progs.iter().map(|p| p.name).collect::<Vec<_>>(), SUITE);
    rep.note(
        "inputs_digest",
        format!("{:016x}", programs::inputs_digest(&progs)),
    );
    // The independent reference: the *source* program in the clear.
    let refs: Vec<Vec<Vec<f64>>> = progs
        .iter()
        .map(|p| plain::execute(&p.program, &p.inputs))
        .collect();

    // Parameter choice (untimed): the repository's backend gate.
    let mut params = Vec::new();
    for p in &progs {
        let fitted = programs::fit(p)?;
        rep.note(
            format!("params.{}", p.name),
            format!(
                "W=2^{} reserve={} rejected={:?}",
                fitted.params.waterline_bits, fitted.params.output_reserve_bits, fitted.rejected
            ),
        );
        params.push(fitted.params);
    }
    let mut rounds = CompileRounds::new(&progs, &params)?;

    // Set-up, repeated: parse + compile, then eager program keys.
    let options = exec_options(args.seed);
    let mut setup_s = Vec::new();
    let mut keygen_ms = vec![Vec::new(); progs.len()];
    let mut ready: Vec<Ready> = Vec::new();
    for _ in 0..SETUP_REPS {
        let texts: Vec<String> = progs.iter().map(Prog::text).collect();
        let t_setup = Instant::now();
        ready.clear();
        for (i, text) in texts.iter().enumerate() {
            let parsed = trace::span("text::parse", 0, || text::parse(text))
                .map_err(|e| format!("{}: parse: {e:?}", progs[i].name))?;
            let compiled = trace::span("ScaleCompiler::compile", 0, || {
                ReserveCompiler::full().compile(&parsed, &params[i])
            })
            .map_err(|e| format!("{}: {e}", progs[i].name))?;
            let t = Instant::now();
            let keys = trace::span("SessionKeys::for_schedule", 0, || {
                SessionKeys::for_schedule(&compiled.scheduled, &options)
            })
            .map_err(|e| format!("{}: keys: {e:?}", progs[i].name))?;
            keygen_ms[i].push(ms(t.elapsed()));
            ready.push(Ready {
                scheduled: compiled.scheduled,
                keys,
            });
        }
        setup_s.push(t_setup.elapsed().as_secs_f64());
    }
    rep.e2e("setup_s", median(&setup_s));
    rep.layer("ckks.keygen_ms", keygen_ms.iter().map(|s| median(s)).sum());

    // The closed loop: complete cycles over every program at both widths.
    let par = ParOptions {
        exec: options.clone(),
        workers: 2,
        fusion: true,
    };
    let mut w1: Vec<W1> = progs.iter().map(|_| W1::default()).collect();
    let mut w2: Vec<W2> = progs.iter().map(|_| W2::default()).collect();
    let mut worst_err = 0.0f64;
    let mut request = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || request == 0 {
        for (i, r) in ready.iter().enumerate() {
            if i % ROUND_EVERY == 0 {
                rounds.round()?;
            }
            for width in [1usize, 2] {
                request += 1;
                let enc_seed = derive(args.seed, &format!("enc.req{request}"));
                let t = Instant::now();
                let inputs = &progs[i].inputs;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if width == 1 {
                        trace::span("execute_with_keys", request, || {
                            execute_with_keys(
                                &r.scheduled,
                                inputs,
                                &options,
                                &r.keys,
                                None,
                                enc_seed,
                            )
                        })
                        .map(Walk::Serial)
                    } else {
                        trace::span("execute_parallel_with_keys", request, || {
                            execute_parallel_with_keys(
                                &r.scheduled,
                                inputs,
                                &par,
                                &r.keys,
                                None,
                                enc_seed,
                            )
                        })
                        .map(Walk::Dag)
                    }
                }));
                let lat = ms(t.elapsed());
                let Ok(Ok(report)) = outcome else {
                    rep.attempt(false);
                    continue;
                };
                let outputs = match &report {
                    Walk::Serial(e) => &e.outputs,
                    Walk::Dag(p) => &p.outputs,
                };
                let err = max_abs_diff(outputs, &refs[i]);
                worst_err = worst_err.max(err);
                rep.attempt(within_tolerance(err, &refs[i]));
                match report {
                    Walk::Serial(e) => {
                        let s = &mut w1[i];
                        s.lat.push(lat);
                        s.op.push(ms(e.op_time));
                        let (t, n) = class_row(&e.per_class);
                        s.classes.push(t);
                        s.counts = n;
                        s.peak_bytes = s.peak_bytes.max(e.mem.peak_bytes);
                        s.pool_hits += e.mem.pool_hits;
                        s.pool_checkouts = e.mem.pool_hits + e.mem.pool_misses;
                    }
                    Walk::Dag(p) => {
                        let s = &mut w2[i];
                        s.lat.push(lat);
                        let walk = ms(p.walk_time);
                        let node: f64 = p.node_times.iter().map(|(_, d)| ms(*d)).sum();
                        s.walk.push(walk);
                        s.node.push(node);
                        s.idle.push(2.0 * walk - node);
                        s.fused = p.fused;
                        s.hoisted = p.hoisted_groups;
                    }
                }
            }
        }
    }

    while rounds.timed() < MIN_COMPILE_ROUNDS {
        rounds.round()?;
    }
    rounds.report(rep, true);
    let sum_med = |f: &dyn Fn(usize) -> f64| (0..progs.len()).map(f).sum::<f64>();
    let run_w1 = sum_med(&|i| median(&w1[i].lat));
    let run_w2 = sum_med(&|i| median(&w2[i].lat));
    let classes: Vec<&[f64]> = w1
        .iter()
        .map(|s| &s.lat[..])
        .chain(w2.iter().map(|s| &s.lat[..]))
        .collect();
    rep.e2e("lat_p50_ms", class_quantile(&classes, 0.5));
    rep.e2e("lat_p99_ms", class_quantile(&classes, 0.99));
    rep.e2e("precision_bits", precision_bits(worst_err));
    rep.layer("run_w1_ms", run_w1);
    rep.layer("run_w2_ms", run_w2);
    for (i, p) in progs.iter().enumerate() {
        rep.layer(format!("run_w1_ms.{}", p.name), median(&w1[i].lat));
        rep.layer(format!("run_w2_ms.{}", p.name), median(&w2[i].lat));
    }
    let peak = w1.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    rep.layer("exec_peak_mb", peak as f64 / 1e6);
    rep.exact("exec_peak_bytes", peak as f64, true);

    let mut class_sum = 0.0;
    for (row, (stem, _)) in CLASS_ROWS.iter().enumerate() {
        let t = sum_med(&|i| median(&w1[i].classes.iter().map(|c| c[row]).collect::<Vec<_>>()));
        let n: usize = w1.iter().map(|s| s.counts[row]).sum();
        class_sum += t;
        rep.layer(format!("ckks.{stem}_ms"), t);
        rep.layer(format!("ckks.{stem}_n"), n as f64);
        rep.exact(format!("ckks.{stem}_n"), n as f64, true);
    }
    let upscales: usize = ready
        .iter()
        .map(|r| {
            r.scheduled
                .program
                .count_ops(|op| matches!(op, Op::Upscale(..)))
        })
        .sum();
    rep.layer("ckks.upscale_n", upscales as f64);
    rep.exact("ckks.upscale_n", upscales as f64, true);
    let op_ms = sum_med(&|i| median(&w1[i].op));
    let overhead = sum_med(&|i| {
        let d: Vec<f64> = w1[i]
            .lat
            .iter()
            .zip(&w1[i].op)
            .map(|(l, o)| l - o)
            .collect();
        median(&d)
    });
    rep.layer("runtime.op_ms", op_ms);
    rep.layer("runtime.overhead_ms", overhead);
    rep.layer("ckks.encrypt_in_ms", op_ms - class_sum);
    rep.layer("attrib.run_w1_pct", 100.0 * (class_sum + overhead) / run_w1);
    let hits: u64 = w1.iter().map(|s| s.pool_hits).sum();
    let per_request: u64 = w1.iter().map(|s| s.pool_checkouts).sum();
    let checkouts = per_request * w1[0].lat.len() as u64;
    rep.layer("ckks.pool_hit_rate", hits as f64 / checkouts.max(1) as f64);
    rep.layer("ckks.pool_checkouts", checkouts as f64);
    rep.exact("ckks.pool_checkouts_per_cycle", per_request as f64, true);

    rep.layer("runtime.walk_w2_ms", sum_med(&|i| median(&w2[i].walk)));
    rep.layer("runtime.node_ms", sum_med(&|i| median(&w2[i].node)));
    rep.layer("runtime.idle_w2_ms", sum_med(&|i| median(&w2[i].idle)));
    let fused: usize = w2.iter().map(|s| s.fused).sum();
    let hoisted: usize = w2.iter().map(|s| s.hoisted).sum();
    rep.layer("runtime.fused", fused as f64);
    rep.layer("runtime.hoisted_groups", hoisted as f64);
    rep.exact("runtime.fused", fused as f64, true);
    rep.exact("runtime.hoisted_groups", hoisted as f64, true);
    rep.exact("precision_bits", precision_bits(worst_err), false);
    rep.exact("requests_per_cycle", (2 * progs.len()) as f64, true);

    if args.trace {
        let largest = (0..progs.len())
            .max_by_key(|&i| progs[i].program.num_ops())
            .expect("suite is nonempty");
        kernels(&ready[largest], args.seed, rep);
    }
    Ok(())
}

/// Top-level kernel calls at N = 2^11 on fresh ciphertexts at the largest
/// program's top level: median µs over [`KERNEL_REPS`] calls each.
fn kernels(r: &Ready, seed: u64, rep: &mut Report) {
    let keys = &r.keys;
    let ctx = keys.context();
    let level = ctx.max_level();
    let ev = Evaluator::new_shared(ctx, Some(keys.relin_handle()), keys.galois_handle());
    let mut rng = StdRng::seed_from_u64(derive(seed, "enc.kernels"));
    let values: Vec<f64> = (0..ctx.slots()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let scale = 2f64.powi(30);
    let mut steps = rotation_steps(&r.scheduled.program);
    steps.sort_unstable();
    steps.dedup();
    let hoist_steps: Vec<i64> = steps.iter().copied().take(4).collect();

    let mut timings: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let samples = timings.entry(name).or_default();
        for _ in 0..KERNEL_REPS {
            let t = Instant::now();
            trace::span(name, 0, &mut *f);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    };
    let table = ctx.table(0);
    let mut limb: Vec<u64> = (0..ctx.degree())
        .map(|_| rng.gen::<u64>() % table.modulus().value())
        .collect();
    time("NttTable::forward", &mut || {
        table.forward(std::hint::black_box(&mut limb))
    });
    time("NttTable::inverse", &mut || {
        table.inverse(std::hint::black_box(&mut limb))
    });
    let mut pt = ev.encoder().encode(&values, scale, level);
    time("Encoder::encode", &mut || {
        pt = ev.encoder().encode(&values, scale, level)
    });
    let mut ct = encrypt_symmetric(ctx, keys.secret_key(), &pt, &mut rng);
    time("encrypt_symmetric", &mut || {
        ct = encrypt_symmetric(ctx, keys.secret_key(), &pt, &mut rng)
    });
    time("decrypt", &mut || {
        std::hint::black_box(decrypt(ctx, keys.secret_key(), &ct));
    });
    if let Some(&step) = steps.first() {
        time("Evaluator::rotate", &mut || {
            ev.recycle_ct(ev.rotate(&ct, step))
        });
        time("Evaluator::rotate_hoisted", &mut || {
            for out in ev.rotate_hoisted(&ct, &hoist_steps) {
                ev.recycle_ct(out);
            }
        });
    }
    time("Evaluator::mul", &mut || ev.recycle_ct(ev.mul(&ct, &ct)));
    time("Evaluator::mul_plain", &mut || {
        ev.recycle_ct(ev.mul_plain(&ct, &pt))
    });
    for (metric, span) in [
        ("ckks.ntt_fwd_us", "NttTable::forward"),
        ("ckks.ntt_inv_us", "NttTable::inverse"),
        ("ckks.encode_us", "Encoder::encode"),
        ("ckks.encrypt_us", "encrypt_symmetric"),
        ("ckks.decrypt_us", "decrypt"),
        ("ckks.rotate_us", "Evaluator::rotate"),
        ("ckks.rotate_hoisted_us", "Evaluator::rotate_hoisted"),
        ("ckks.mul_relin_us", "Evaluator::mul"),
        ("ckks.mul_plain_us", "Evaluator::mul_plain"),
    ] {
        if let Some(s) = timings.get(span) {
            rep.layer(metric, median(s));
        }
    }
    rep.note(
        "kernels",
        format!("N=2^11 level={level} hoisted_steps={}", hoist_steps.len()),
    );
}
