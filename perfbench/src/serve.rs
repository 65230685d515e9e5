//! `serve-mix`: an open loop with seeded Poisson arrivals against an
//! `FheServer` (2 workers, 4 sessions, DAG width 1, lazy keys) serving
//! 256-slot programs (N = 2^9). About 90% of requests repeat one of five
//! known program texts and hit the compile cache; about 10% carry a
//! freshly seeded MLP or LeNet variant and miss it. The cache's byte
//! budget holds the known programs plus about two variants, so LRU
//! eviction runs next to the hits. The nominal rate runs for `--seconds`;
//! traced runs then climb a fixed ladder of rates around the knee.
//!
//! A request's latency is timed from when it was due: generator lateness
//! (submission − due) plus the server's own submission-to-completion
//! latency. `serve.client_ms` is how much later the client observed the
//! completion than that.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use fhe_ir::{text, CompileParams};
use fhe_runtime::{plain, ExecOptions, KeyPolicy, ParOptions};
use fhe_serve::{
    CompileCache, FheServer, Request, Response, ServeError, ServerConfig, SessionId, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reserve_core::ReserveCompiler;

use crate::compiles::CompileRounds;
use crate::programs::{self, derive, Prog};
use crate::report::{Report, LADDER};
use crate::stats::{max_abs_diff, median, precision_bits, quantile};
use crate::{trace, within_tolerance, Args};

/// The nominal arrival rate (requests per second).
const NOMINAL_RPS: u32 = 20;
/// Share of requests carrying a freshly seeded program.
const FRESH_SHARE: f64 = 0.1;
/// Latency objective for `max_rps_slo`, on p99.
const SLO_MS: f64 = 250.0;
const WORKERS: usize = 2;
const SESSIONS: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Length of each ladder step, as a share of `--seconds`. The nominal rate
/// runs for the whole of `--seconds`; the ladder runs after it, in traced
/// runs only, since it feeds only per-layer metrics.
const STEP_SHARE: f64 = 0.2;

/// A program the generator can send: its text, params and reference.
struct Sendable {
    text: String,
    params: CompileParams,
    inputs: programs::Inputs,
    reference: Vec<Vec<f64>>,
    fresh: bool,
}

impl Sendable {
    fn new(p: &Prog, params: CompileParams, fresh: bool) -> Sendable {
        Sendable {
            text: p.text(),
            params,
            inputs: p.inputs.clone(),
            reference: plain::execute(&p.program, &p.inputs),
            fresh,
        }
    }
}

/// One scheduled arrival.
struct Arrival {
    due: Duration,
    program: usize,
    session: usize,
}

/// One completed (or failed) request.
struct Done {
    lat_ms: f64,
    lag_ms: f64,
    client_ms: f64,
    response: Option<Response>,
    program: usize,
}

/// What one phase measured.
struct Phase {
    rate: u32,
    done: Vec<Done>,
    wall: Duration,
    backlog_end: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn session_options(seed: u64, i: usize) -> ParOptions {
    ParOptions {
        exec: ExecOptions {
            poly_degree: 512,
            seed: derive(seed, &format!("serve.session{i}")),
            threads: 1,
            keys: KeyPolicy::Lazy { budget_bytes: None },
            rotation_hoisting: true,
        },
        workers: 1,
        fusion: true,
    }
}

fn request(s: &Sendable, session: SessionId) -> Request {
    Request {
        session,
        program: s.text.clone(),
        params: s.params,
        compiler: "reserve".into(),
        inputs: s.inputs.clone(),
        deadline: None,
    }
}

/// Requests per block of the program mix: each block sends every known
/// program equally often plus its share of fresh programs, in a seeded
/// order, so the mix's proportions do not move with the seed.
const BLOCK: usize = 50;

/// Seeded Poisson arrivals for `secs` seconds at `rate`. `fresh` makes a
/// freshly seeded program and returns its index.
fn arrivals(
    rng: &mut StdRng,
    rate: u32,
    secs: f64,
    known: usize,
    mut fresh: impl FnMut() -> usize,
) -> Vec<Arrival> {
    let fresh_per_block = (BLOCK as f64 * FRESH_SHARE).round() as usize;
    let mut block: Vec<Option<usize>> = Vec::new();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / f64::from(rate);
        if t >= secs {
            return out;
        }
        if block.is_empty() {
            block = (0..BLOCK - fresh_per_block)
                .map(|k| Some(k % known))
                .chain((0..fresh_per_block).map(|_| None))
                .collect();
            // Fisher–Yates; the block is consumed from the back.
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        let program = block
            .pop()
            .expect("block refilled")
            .unwrap_or_else(&mut fresh);
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            program,
            session: out.len() % SESSIONS,
        });
    }
}

/// During the nominal phase the generator runs a compile round while
/// waiting for an arrival only when the arrival is at least this far off,
/// and at most once per [`ROUND_EVERY`].
const ROUND_SLACK: Duration = Duration::from_millis(30);
const ROUND_EVERY: Duration = Duration::from_millis(400);
/// Timed compile rounds at least.
const MIN_COMPILE_ROUNDS: usize = 8;

fn run_phase(
    server: &FheServer,
    mut rounds: Option<&mut CompileRounds>,
    sessions: &[SessionId],
    sendables: &[Sendable],
    rate: u32,
    plan: &[Arrival],
    first_request: u64,
) -> Phase {
    let completed0 = server.stats().requests;
    let (tx, rx) = mpsc::channel::<(Result<Ticket, ServeError>, Instant, Instant, usize, u64)>();
    let mut backlog_end = 0;
    let start = Instant::now() + Duration::from_millis(5);
    let done = thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            for (ticket, due, submitted, program, id) in rx {
                let response = ticket
                    .and_then(|t| trace::span("Ticket::wait", id, || t.wait()))
                    .ok();
                let finished = Instant::now();
                let lag = submitted - due;
                let lat = response
                    .as_ref()
                    .map_or(finished - due, |r| lag + r.latency);
                done.push(Done {
                    lat_ms: ms(lat),
                    lag_ms: ms(lag),
                    client_ms: ms((finished - due).saturating_sub(lat)),
                    response,
                    program,
                });
            }
            done
        });
        let mut last_round = Instant::now();
        for (k, a) in plan.iter().enumerate() {
            let due = start + a.due;
            if let Some(rounds) = rounds.as_deref_mut() {
                if due.saturating_duration_since(Instant::now()) > ROUND_SLACK
                    && last_round.elapsed() > ROUND_EVERY
                {
                    rounds.round().expect("compiled in preparation");
                    last_round = Instant::now();
                }
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let id = first_request + k as u64;
            let submitted = Instant::now();
            let ticket = trace::span("FheServer::submit", id, || {
                server.submit(request(&sendables[a.program], sessions[a.session]))
            });
            tx.send((ticket, due, submitted, a.program, id))
                .expect("collector alive");
        }
        backlog_end = (plan.len() as u64).saturating_sub(server.stats().requests - completed0);
        drop(tx);
        collector.join().expect("collector thread")
    });
    Phase {
        rate,
        done,
        wall: start.elapsed(),
        backlog_end,
    }
}

fn p99(done: &[Done]) -> f64 {
    quantile(&done.iter().map(|d| d.lat_ms).collect::<Vec<_>>(), 0.99)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let known = programs::serve_known(args.seed);
    rep.note(
        "inputs_digest",
        format!("{:016x}", programs::inputs_digest(&known)),
    );
    let compiler = ReserveCompiler::full();

    // Untimed preparation: parameters by the backend gate, compile time
    // and peak outside the server, and the cache budget.
    let mut sendables = Vec::new();
    for p in &known {
        let fitted = programs::fit(p)?;
        rep.note(
            format!("params.{}", p.name),
            format!(
                "W=2^{} reserve={} rejected={:?}",
                fitted.params.waterline_bits, fitted.params.output_reserve_bits, fitted.rejected
            ),
        );
        sendables.push(Sendable::new(p, fitted.params, false));
    }
    let params: Vec<CompileParams> = sendables.iter().map(|s| s.params).collect();
    let mut rounds = CompileRounds::new(&known, &params)?;
    let known_params: Vec<(&str, CompileParams)> = known
        .iter()
        .zip(&sendables)
        .map(|(p, s)| (p.name, s.params))
        .collect();
    let params_of = |variant: &Prog| {
        known_params
            .iter()
            .find(|(name, _)| *name == variant.name)
            .expect("variant kind is known")
            .1
    };
    let probe = CompileCache::new(None);
    for s in &sendables {
        let p = text::parse(&s.text).map_err(|e| format!("{e:?}"))?;
        probe
            .get_or_compile(&p, &s.params, &compiler)
            .map_err(|e| e.to_string())?;
    }
    let known_bytes = probe.stats().bytes;
    let mut variant_bytes = 0;
    for v in [
        programs::serve_variant(args.seed, u64::MAX - 1),
        programs::serve_variant(args.seed, u64::MAX),
    ] {
        let before = probe.stats().bytes;
        probe
            .get_or_compile(&v.program, &params_of(&v), &compiler)
            .map_err(|e| e.to_string())?;
        variant_bytes = variant_bytes.max(probe.stats().bytes - before);
    }
    let budget = known_bytes + 2 * variant_bytes;
    rep.note(
        "cache_budget",
        format!("{budget} bytes (known {known_bytes}, variant ≤ {variant_bytes})"),
    );

    // The arrival plan: nominal rate, then the ladder.
    let nominal_secs = args.seconds;
    let step_secs = args.seconds * STEP_SHARE;
    let ladder: &[u32] = if args.trace { &LADDER } else { &[] };
    let mut rng = StdRng::seed_from_u64(derive(args.seed, "serve.arrivals"));
    let mut fresh_count = 0u64;
    let mut plans = Vec::new();
    for (rate, secs) in
        std::iter::once((NOMINAL_RPS, nominal_secs)).chain(ladder.iter().map(|&r| (r, step_secs)))
    {
        let plan = arrivals(&mut rng, rate, secs, known.len(), || {
            let v = programs::serve_variant(args.seed, fresh_count);
            fresh_count += 1;
            let params = params_of(&v);
            sendables.push(Sendable::new(&v, params, true));
            sendables.len() - 1
        });
        plans.push((rate, plan));
    }

    // Set-up, repeated: start the server, open the sessions, warm the
    // cache and each session's keys with every known program.
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_capacity: 1 << 16,
        default_deadline: None,
        cache_budget_bytes: Some(budget),
    };
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut sessions = Vec::new();
    let mut worst_err = 0.0f64;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        let s = FheServer::new(cfg.clone());
        sessions = (0..SESSIONS)
            .map(|i| s.create_session(session_options(args.seed, i)))
            .collect();
        let tickets: Vec<_> = sessions
            .iter()
            .flat_map(|&id| sendables[..known.len()].iter().map(move |k| (id, k)))
            .map(|(id, k)| s.submit(request(k, id)).map(|t| (t, k)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        for (ticket, k) in tickets {
            let r = ticket.wait().map_err(|e| format!("warm-up: {e}"))?;
            worst_err = worst_err.max(max_abs_diff(&r.outputs, &k.reference));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set up at least once");
    rep.e2e("setup_s", median(&setup_s));

    let mut phases = Vec::new();
    let mut next_id = 1;
    let mut nominal_stats = None;
    for (k, (rate, plan)) in plans.iter().enumerate() {
        let before = server.stats();
        let phase = run_phase(
            &server,
            (k == 0).then_some(&mut rounds),
            &sessions,
            &sendables,
            *rate,
            plan,
            next_id,
        );
        next_id += plan.len() as u64;
        if k == 0 {
            nominal_stats = Some((before, server.stats()));
        }
        phases.push(phase);
    }
    let end_stats = server.stats();
    server.shutdown();
    while rounds.timed() < MIN_COMPILE_ROUNDS {
        rounds.round()?;
    }
    rounds.report(rep, false);

    // Correctness of every response against the source program.
    for phase in &phases {
        for d in &phase.done {
            let ok = match &d.response {
                Some(r) => {
                    let want = &sendables[d.program].reference;
                    let err = max_abs_diff(&r.outputs, want);
                    worst_err = worst_err.max(err);
                    within_tolerance(err, want)
                }
                None => false,
            };
            rep.attempt(ok);
        }
    }
    rep.e2e("precision_bits", precision_bits(worst_err));
    rep.exact("precision_bits", precision_bits(worst_err), false);

    let nominal = &phases[0];
    let lat: Vec<f64> = nominal.done.iter().map(|d| d.lat_ms).collect();
    rep.e2e("lat_p50_ms", median(&lat));
    rep.e2e("lat_p99_ms", quantile(&lat, 0.99));
    let meets = |p: &Phase| {
        p99(&p.done) <= SLO_MS && p.backlog_end as f64 <= (f64::from(p.rate) * SLO_MS / 1e3).ceil()
    };
    // The highest rate up to which every rate run meets the objective.
    let max_rps = phases
        .iter()
        .take_while(|p| meets(p))
        .map(|p| p.rate)
        .max()
        .unwrap_or(0);
    rep.layer("max_rps_slo", f64::from(max_rps));
    for p in &phases[1..] {
        rep.layer(format!("serve.p99_ms.at{}", p.rate), p99(&p.done));
    }

    let ok: Vec<&Response> = nominal
        .done
        .iter()
        .filter_map(|d| d.response.as_ref())
        .collect();
    let exec: Vec<f64> = ok.iter().map(|r| ms(r.exec_time)).collect();
    let op: Vec<f64> = ok.iter().map(|r| ms(r.op_time)).collect();
    rep.layer("serve.exec_ms.p50", median(&exec));
    rep.layer("serve.exec_ms.p99", quantile(&exec, 0.99));
    rep.layer("serve.op_ms.p50", median(&op));
    rep.layer("serve.op_ms.p99", quantile(&op, 0.99));
    let wait = |hit: bool| {
        let w: Vec<f64> = ok
            .iter()
            .filter(|r| r.cache_hit == hit)
            .map(|r| ms(r.latency.saturating_sub(r.exec_time)))
            .collect();
        if w.is_empty() {
            0.0
        } else {
            median(&w)
        }
    };
    let mut by_kind: Vec<(String, f64)> = known
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let e: Vec<f64> = nominal
                .done
                .iter()
                .filter(|d| d.program == i)
                .filter_map(|d| d.response.as_ref().map(|r| ms(r.exec_time)))
                .collect();
            (p.name.to_string(), median(&e))
        })
        .collect();
    by_kind.sort_by(|a, b| a.1.total_cmp(&b.1));
    rep.note("exec_ms_p50_by_program", format!("{by_kind:.2?}"));
    rep.layer("serve.wait_hit_ms", wait(true));
    rep.layer("serve.wait_miss_ms", wait(false));
    rep.layer(
        "serve.client_ms",
        median(&nominal.done.iter().map(|d| d.client_ms).collect::<Vec<_>>()),
    );
    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.done.iter().map(|d| d.lag_ms))
        .collect();
    rep.layer("serve.gen_lag_ms", quantile(&lag, 0.99));
    rep.note(
        "gen_lag_ms",
        format!(
            "p50 {:.3} p99 {:.3} max {:.3}",
            median(&lag),
            quantile(&lag, 0.99),
            quantile(&lag, 1.0)
        ),
    );
    rep.layer(
        "serve.busy",
        exec.iter().sum::<f64>() / (WORKERS as f64 * ms(nominal.wall)),
    );
    rep.layer("serve.backlog_end", nominal.backlog_end as f64);

    let (before, after) = nominal_stats.expect("nominal phase ran");
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    rep.layer(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.layer("serve.cache_misses", misses as f64);
    rep.layer("serve.cache_evictions", end_stats.cache.evictions as f64);
    let pool = |s: &fhe_serve::ServeStats| {
        s.pools.iter().fold((0u64, 0u64), |(h, m), p| {
            (h + p.stats.hits, m + p.stats.misses)
        })
    };
    let (h1, m1) = pool(&after);
    let (h0, m0) = pool(&before);
    rep.layer(
        "serve.pool_hit_rate",
        (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64,
    );
    rep.layer("serve.peak_mb", end_stats.peak_bytes() as f64 / 1e6);

    let fresh_sent = nominal
        .done
        .iter()
        .filter(|d| sendables[d.program].fresh)
        .count();
    rep.exact(
        "serve.requests",
        plans.iter().map(|(_, p)| p.len()).sum::<usize>() as f64,
        false,
    );
    rep.exact("serve.nominal_fresh", fresh_sent as f64, false);
    rep.exact("serve.nominal_cache_hits", hits as f64, false);
    rep.exact("serve.nominal_cache_misses", misses as f64, false);
    Ok(())
}
