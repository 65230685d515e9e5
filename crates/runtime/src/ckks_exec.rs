//! Real encrypted execution of scheduled programs on the `fhe-ckks`
//! backend, with wall-clock timing — the ground truth behind the latency
//! and error experiments.
//!
//! There is one executor: a walk over the schedule's dependence DAG
//! ([`DepGraph`], with the anti edges of pool freeing and the output edges
//! of rotation hoisting) by `k` runners. Each runner pops the ready node
//! earliest in schedule order from a shared [`DepConsumer`], executes it
//! against one shared [`Evaluator`] and retires it. With `k > 1` the
//! calling thread is one runner and `k − 1` scoped threads are the rest;
//! this op-level walk is the runtime's only parallelism (every CKKS kernel
//! runs its RNS limbs serially). The serial entry points
//! ([`execute`], [`execute_with_keys`]) are the `workers = 1, fusion =
//! false` walk: every DAG edge points forward in the schedule, so one
//! runner visits the ops in exact schedule order.
//!
//! Outputs are byte-identical at every width because:
//!
//! 1. **Safety is proven, not assumed.** [`fhe_analysis::parallel::check`]
//!    runs over the very DAG the walk consumes and the walk refuses
//!    (panics) on any unordered read/free or group-writer hazard.
//! 2. **Randomness is drawn in schedule order.** Keys come from one
//!    prologue, [`SessionKeys`]. Inputs are encrypted under the frontier
//!    lock as they pop; they have no dependences, so they pop in schedule
//!    order at every width. Lazy Galois keys come from per-element RNG
//!    streams, so their generation order cannot matter.
//! 3. **Every op is a deterministic function of its operand bytes**,
//!    including the fused mul·relin·rescale kernel ([`FusionPlan`]), which
//!    stores its result under the rescale's id.
//!
//! A ciphertext returns to the pool when the op at [`DepGraph::free_at`]
//! retires. A hoisted rotation group ([`DepGraph::hoist_group`]) executes
//! at its leader off one shared key-switch decomposition and parks the
//! other members' results.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fhe_ckks::{
    decrypt, encrypt_symmetric, Ciphertext, CkksContext, CkksParams, Evaluator, GaloisKeys,
    KeyCache, KeyGenerator, PolyPool, RelinKey, SecretKey,
};
use fhe_ir::{
    CostModel, DepConsumer, DepGraph, DepNode, FusionPlan, Op, OpClass, ScaleMap, ScheduleError,
    ScheduledProgram, ValueId,
};

use crate::executor::MemStats;
use crate::plain;

/// Domain separator so the lazy key cache's per-element RNG streams never
/// collide with the main keygen/encryption stream at the same seed.
const KEY_CACHE_SEED_TWEAK: u64 = 0x517C_C1B7_2722_0A95;

/// How the executor provisions Galois keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPolicy {
    /// Generate each rotation key on first use and hold it in an LRU
    /// [`KeyCache`], optionally bounded to a byte budget. Evicted keys
    /// regenerate bit-identically, so outputs are independent of the
    /// budget (default, with no budget).
    Lazy {
        /// Byte budget for cached keys (`None` = unbounded). The cache
        /// always retains at least the key in use.
        budget_bytes: Option<usize>,
    },
    /// Generate keys for every rotation step of the program up front
    /// (the deployment-style eager whole-set provisioning).
    EagerProgram,
    /// Generate keys for exactly this step set up front. A scheduled
    /// rotation outside the set fails with [`ScheduleError::MissingKey`].
    EagerSet(Vec<i64>),
}

impl Default for KeyPolicy {
    fn default() -> Self {
        KeyPolicy::Lazy { budget_bytes: None }
    }
}

/// Options for encrypted execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Polynomial degree `N` of the backend. The program's slot count must
    /// equal `N/2` so rotations wrap identically.
    pub poly_degree: usize,
    /// RNG seed for key generation and encryption randomness.
    pub seed: u64,
    /// Ignored. Kernels run their RNS limbs serially and the only
    /// parallelism is the op-level walk ([`ParOptions::workers`]). The
    /// field stays so existing struct literals keep compiling.
    pub threads: usize,
    /// Galois-key provisioning policy.
    pub keys: KeyPolicy,
    /// Share one key-switch decomposition across rotations of the same
    /// ciphertext (faster, but the whole group's outputs are live at
    /// once). Disable to minimize the working set — must match the
    /// compiler's `WorkingSet` knob for the static memory bound to apply.
    pub rotation_hoisting: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            poly_degree: 1 << 12,
            seed: 0xC0FFEE,
            threads: 0,
            keys: KeyPolicy::default(),
            rotation_hoisting: true,
        }
    }
}

/// Options for a DAG walk with more than one runner or with fusion.
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Backend configuration (degree, seed, key policy, rotation
    /// hoisting).
    pub exec: ExecOptions,
    /// Op-level runners walking the DAG: `0` = auto
    /// ([`std::thread::available_parallelism`]), `1` = the serial walk on
    /// the calling thread, `k` = the calling thread plus `k − 1` scoped
    /// threads. Results are bit-identical for every value.
    pub workers: usize,
    /// Execute fusible mul→rescale pairs as one fused mul·relin·rescale
    /// kernel. Bit-identical either way; fusion skips materializing the
    /// full-level product.
    pub fusion: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            exec: ExecOptions::default(),
            workers: 0,
            fusion: true,
        }
    }
}

impl ExecOptions {
    /// The serial walk: one runner, no fusion.
    fn serial(&self) -> ParOptions {
        ParOptions {
            exec: self.clone(),
            workers: 1,
            fusion: false,
        }
    }
}

/// Reusable per-session key material: one context, secret/relin/Galois
/// keys and (under a lazy policy) a key cache, generated once and shared
/// by any number of [`execute_with_keys`] / [`execute_parallel_with_keys`]
/// calls. This is what a serving layer amortizes across requests — the
/// context's NTT tables and the keygen RNG work are paid once per session
/// shape instead of once per request.
///
/// This is the executor's only key-generation prologue: [`execute`] and
/// [`execute_parallel`] generate their keys here too and continue the same
/// RNG stream into input encryption. Keys come from `options.seed`, the
/// key cache from `seed ^ KEY_CACHE_SEED_TWEAK`, so a session's keys are
/// a pure function of `(options, shape)`.
#[derive(Debug, Clone)]
pub struct SessionKeys {
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    relin: Arc<RelinKey>,
    galois: Arc<GaloisKeys>,
    cache: Option<Arc<KeyCache>>,
    fixed_key_bytes: u64,
    static_key_bytes: u64,
}

impl SessionKeys {
    /// Generates key material for programs of the given shape: polynomial
    /// degree comes from `options`, the modulus chain from
    /// `(max_level, modulus_bits)`. Under [`KeyPolicy::EagerProgram`]
    /// the static Galois set covers `rotation_steps` (callers pass the
    /// union of rotation steps the sessions' programs use); the other
    /// policies ignore it.
    pub fn generate(
        options: &ExecOptions,
        max_level: usize,
        modulus_bits: u32,
        rotation_steps: &[i64],
    ) -> SessionKeys {
        Self::keygen(options, max_level, modulus_bits, rotation_steps).0
    }

    /// [`SessionKeys::generate`], also returning the keygen RNG stream so
    /// a one-shot execution can continue it into input encryption.
    fn keygen(
        options: &ExecOptions,
        max_level: usize,
        modulus_bits: u32,
        rotation_steps: &[i64],
    ) -> (SessionKeys, StdRng) {
        let ctx = Arc::new(CkksContext::new(CkksParams {
            poly_degree: options.poly_degree,
            max_level,
            modulus_bits,
            special_bits: modulus_bits.min(60) + 1,
            error_std: 3.2,
        }));
        let mut rng = StdRng::seed_from_u64(options.seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let (galois, cache) = match &options.keys {
            KeyPolicy::Lazy { budget_bytes } => {
                let cache = KeyCache::new(
                    kg.secret_key(),
                    options.seed ^ KEY_CACHE_SEED_TWEAK,
                    *budget_bytes,
                );
                (GaloisKeys::default(), Some(Arc::new(cache)))
            }
            KeyPolicy::EagerProgram => (
                kg.galois_keys(rotation_steps.iter().copied(), &mut rng),
                None,
            ),
            KeyPolicy::EagerSet(steps) => (kg.galois_keys(steps.iter().copied(), &mut rng), None),
        };
        let keys = SessionKeys {
            fixed_key_bytes: (sk.byte_size() + relin.byte_size()) as u64,
            static_key_bytes: galois.byte_size() as u64,
            ctx,
            sk,
            relin: Arc::new(relin),
            galois: Arc::new(galois),
            cache,
        };
        (keys, rng)
    }

    /// Generates key material sized for one schedule: validates it, sizes
    /// the modulus chain to its level requirement, and (under
    /// [`KeyPolicy::EagerProgram`]) provisions its rotation steps.
    ///
    /// # Errors
    ///
    /// Returns the schedule's validation errors if it is illegal.
    pub fn for_schedule(
        scheduled: &ScheduledProgram,
        options: &ExecOptions,
    ) -> Result<SessionKeys, Vec<ScheduleError>> {
        let map = scheduled.validate()?;
        Ok(SessionKeys::generate(
            options,
            map.max_level() as usize,
            scheduled.params.rescale_bits,
            &rotation_steps(&scheduled.program),
        ))
    }

    /// The shared backend context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The session's secret key (encryption + decryption).
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Shared handle to the relinearization key.
    pub fn relin_handle(&self) -> Arc<RelinKey> {
        self.relin.clone()
    }

    /// Shared handle to the static Galois key set.
    pub fn galois_handle(&self) -> Arc<GaloisKeys> {
        self.galois.clone()
    }

    /// The lazy Galois-key cache, if the policy was [`KeyPolicy::Lazy`].
    pub fn key_cache(&self) -> Option<&KeyCache> {
        self.cache.as_deref()
    }

    /// An evaluator over these keys, drawing limb buffers from `pool` (or
    /// a private pool).
    fn evaluator(&self, pool: Option<Arc<PolyPool>>) -> Evaluator<'_> {
        let mut ev =
            Evaluator::new_shared(&self.ctx, Some(self.relin.clone()), self.galois.clone());
        if let Some(cache) = &self.cache {
            ev = ev.with_key_cache_handle(cache.clone());
        }
        if let Some(pool) = pool {
            ev = ev.with_pool(pool);
        }
        ev
    }

    /// Total memory picture at one instant: `ev`'s pool-tracked polynomial
    /// bytes plus the fixed key material (secret + relin) plus Galois keys
    /// (cached bytes under a lazy policy, the whole static set under an
    /// eager one). Encoder scratch is invisible here and in the static
    /// model alike, so the static bound stays comparable.
    fn mem(&self, ev: &Evaluator<'_>) -> MemStats {
        let p = ev.pool_stats();
        let (kh, km, ke, kb, kp) = match ev.key_cache() {
            Some(c) => {
                let s = c.stats();
                (
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.bytes as u64,
                    s.peak_bytes as u64,
                )
            }
            None => (0, 0, 0, self.static_key_bytes, self.static_key_bytes),
        };
        MemStats {
            peak_bytes: p.peak_bytes + self.fixed_key_bytes + kp,
            live_bytes: p.live_bytes + self.fixed_key_bytes + kb,
            allocations: p.misses + p.adopted,
            pool_hits: p.hits,
            pool_misses: p.misses,
            key_hits: kh,
            key_misses: km,
            key_evictions: ke,
            key_bytes_peak: kp,
        }
    }
}

/// The rotation steps a program uses, in schedule order (duplicates kept —
/// [`fhe_ckks::KeyGenerator::galois_keys`] deduplicates).
pub fn rotation_steps(program: &fhe_ir::Program) -> Vec<i64> {
    program
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::Rotate(_, k) => Some(*k),
            _ => None,
        })
        .collect()
}

/// Result of an encrypted execution, at any width.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Decrypted program outputs.
    pub outputs: Vec<Vec<f64>>,
    /// Plaintext reference outputs.
    pub reference: Vec<Vec<f64>>,
    /// Wall-clock time of the homomorphic phase: the walk, input
    /// encryption included (excludes key generation, the plaintext
    /// reference and decryption).
    pub op_time: Duration,
    /// Wall-clock time of the DAG walk — the measured `T(k)` the
    /// depgraph's prediction is validated against. The walk is the whole
    /// homomorphic phase, so this equals [`ExecReport::op_time`].
    pub walk_time: Duration,
    /// End-to-end time including keygen/encrypt/decrypt.
    pub total_time: Duration,
    /// Number of homomorphic ops executed, fresh encryptions included.
    pub ops_executed: usize,
    /// Time and op count per Table 3 op class, summed across runners
    /// (with several runners the durations sum past `op_time`). Fresh
    /// encryptions have no class. A fused mul·relin·rescale charges its
    /// whole latency to the mul's class and counts the rescale with zero
    /// duration.
    pub per_class: Vec<(OpClass, Duration, usize)>,
    /// Whole-run memory counters (pool + key material); exact under
    /// contention thanks to the pool's atomic accounting.
    pub mem: MemStats,
    /// Per-op-class memory counters (summed deltas; byte peaks are the
    /// high-water mark at the end of any op of the class). They diff
    /// whole-pool snapshots between consecutive ops, so they are filled
    /// only when the walk ran on one runner, and empty otherwise.
    pub per_class_mem: Vec<(OpClass, MemStats)>,
    /// Per-node wall latency `(op, duration)` of every classed op, in
    /// retirement order — the measured per-op costs a virtual-time replay
    /// of the walk uses.
    pub node_times: Vec<(ValueId, Duration)>,
    /// Runners the walk used after resolving `workers = 0`.
    pub workers: usize,
    /// mul→rescale pairs executed fused.
    pub fused: usize,
    /// Hoisted rotation groups executed at their leader.
    pub hoisted_groups: usize,
    /// Read/free and group-writer orderings the safety proof discharged
    /// before the walk.
    pub safety_obligations: usize,
}

/// The report of a DAG walk at any width. The walk has a single report
/// type; this name is kept for callers of [`execute_parallel`] and
/// [`execute_parallel_with_keys`].
pub type ParReport = ExecReport;

impl ExecReport {
    /// Maximum absolute slot error vs the reference.
    pub fn max_abs_error(&self) -> f64 {
        crate::executor::max_abs_diff(&self.outputs, &self.reference)
    }
}

/// Executes a scheduled program under real RNS-CKKS encryption: the serial
/// walk, one runner in schedule order, unfused.
///
/// # Errors
///
/// Returns the schedule's validation errors if it is illegal, or a
/// [`ScheduleError::MissingKey`] if a rotation lacks its Galois key under
/// an eager key policy.
///
/// # Panics
///
/// Panics if the program's slot count differs from `poly_degree / 2`, its
/// rescaling factor differs from the backend's chain-prime size, or an
/// input binding is missing.
pub fn execute(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ExecOptions,
) -> Result<ExecReport, Vec<ScheduleError>> {
    execute_parallel(scheduled, inputs, &options.serial())
}

/// Executes a scheduled program against pre-generated [`SessionKeys`],
/// optionally drawing limb buffers from a shared [`PolyPool`] — the
/// request path of a serving layer: compile once, generate keys once per
/// session, execute many times. This is the serial walk, as in
/// [`execute`].
///
/// Encryption randomness comes from `enc_seed` alone (keygen randomness
/// was consumed when the keys were generated), so a request's output bytes
/// are a pure function of `(schedule, inputs, keys, enc_seed)` — byte
/// identical whether requests run serially or interleaved with other
/// sessions.
///
/// The report's [`MemStats`] counters (`allocations`, `pool_*`, `key_*`)
/// are **deltas** over this call; byte figures (`peak_bytes`,
/// `live_bytes`, `key_bytes_peak`) are absolute high-water/end values of
/// the (possibly shared) pool and cache. Counter deltas are exact when
/// requests sharing a pool run serially; under concurrent execution they
/// attribute contended traffic approximately, while the *global* pool
/// counters remain exact.
///
/// # Errors
///
/// As [`execute`].
///
/// # Panics
///
/// Panics if the program's slot count differs from the session context's
/// `N/2`, the schedule needs more levels than the context provides, its
/// rescaling factor differs from the context's chain-prime size, or an
/// input binding is missing.
pub fn execute_with_keys(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ExecOptions,
    keys: &SessionKeys,
    pool: Option<Arc<PolyPool>>,
    enc_seed: u64,
) -> Result<ExecReport, Vec<ScheduleError>> {
    execute_parallel_with_keys(scheduled, inputs, &options.serial(), keys, pool, enc_seed)
}

/// Executes a scheduled program under real RNS-CKKS encryption by walking
/// its dependence DAG with `options.workers` runners.
///
/// Outputs are byte-identical to [`execute`] at the same [`ExecOptions`],
/// for every worker count and fusion setting.
///
/// # Errors
///
/// As [`execute`].
///
/// # Panics
///
/// As [`execute`], and if the parallel-safety proof finds an unordered
/// hazard in the DAG — the executor never walks a schedule it cannot
/// prove race-free.
pub fn execute_parallel(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ParOptions,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let map = scheduled.validate()?;
    let t_total = Instant::now();
    let (keys, rng) = SessionKeys::keygen(
        &options.exec,
        map.max_level() as usize,
        scheduled.params.rescale_bits,
        &rotation_steps(&scheduled.program),
    );
    walk(scheduled, &map, inputs, options, &keys, None, rng, t_total)
}

/// The DAG walk against pre-generated [`SessionKeys`] and an optionally
/// shared [`PolyPool`] — the parallel request path of a serving layer. See
/// [`execute_with_keys`] for the `enc_seed` determinism contract and the
/// [`MemStats`] delta semantics, both of which hold at every width.
///
/// # Errors
///
/// As [`execute`].
///
/// # Panics
///
/// As [`execute_with_keys`], and on a failed parallel-safety proof.
pub fn execute_parallel_with_keys(
    scheduled: &ScheduledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ParOptions,
    keys: &SessionKeys,
    pool: Option<Arc<PolyPool>>,
    enc_seed: u64,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let map = scheduled.validate()?;
    let t_total = Instant::now();
    let rng = StdRng::seed_from_u64(enc_seed);
    walk(scheduled, &map, inputs, options, keys, pool, rng, t_total)
}

/// The walk's shared frontier: the consumer, the encryption RNG (drawn
/// only under this lock, in pop order), the first error any runner hit,
/// and whether a runner panicked (runners drain and exit once either is
/// set).
struct Frontier {
    consumer: DepConsumer,
    rng: StdRng,
    error: Option<ScheduleError>,
    panicked: bool,
}

/// Locks `m` even if a panicking runner poisoned it: the frontier's
/// `panicked` flag, not the poison, is what stops the other runners.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One retired cipher node: its DAG index, its wall latency, and — on a
/// one-runner walk — the memory snapshot taken after it retired.
type Retired = (usize, Duration, Option<MemStats>);

/// Everything a runner needs to execute a node, shared by all runners.
struct Walk<'a> {
    scheduled: &'a ScheduledProgram,
    map: &'a ScaleMap,
    graph: &'a DepGraph,
    fusion: &'a FusionPlan,
    keys: &'a SessionKeys,
    ev: &'a Evaluator<'a>,
    inputs: &'a HashMap<String, Vec<f64>>,
    /// Every live value in the clear: plaintext operands and the reference.
    clear: &'a [Option<Vec<f64>>],
    /// Cipher values by id; a slot empties when its value is freed.
    cipher: Vec<Mutex<Option<Arc<Ciphertext>>>>,
    /// Results of hoisted-group members, computed at their leader.
    hoisted: Mutex<HashMap<ValueId, Ciphertext>>,
    retired: Mutex<Vec<Retired>>,
    one_runner: bool,
}

/// The one encrypted walk behind every entry point.
#[allow(clippy::too_many_arguments)]
fn walk(
    scheduled: &ScheduledProgram,
    map: &ScaleMap,
    inputs: &HashMap<String, Vec<f64>>,
    options: &ParOptions,
    keys: &SessionKeys,
    pool: Option<Arc<PolyPool>>,
    rng: StdRng,
    t_total: Instant,
) -> Result<ExecReport, Vec<ScheduleError>> {
    let program = &scheduled.program;
    let ctx = keys.context();
    assert_eq!(
        program.slots(),
        ctx.degree() / 2,
        "program slots must match N/2 for rotation semantics"
    );
    assert!(
        map.max_level() as usize <= ctx.max_level(),
        "schedule needs level {} but the context provides {}",
        map.max_level(),
        ctx.max_level()
    );
    assert_eq!(
        scheduled.params.rescale_bits,
        ctx.params().modulus_bits,
        "schedule rescale bits must match the context's chain primes"
    );
    let ev = keys.evaluator(pool);
    let start_mem = keys.mem(&ev);

    // The lowered plan: the DAG and its free points and hoist groups, the
    // fusion pairs, and the proof that consuming the DAG in any
    // topological order is race-free under the freeing discipline.
    let hoisting = options.exec.rotation_hoisting;
    let graph = DepGraph::build(scheduled, map, &CostModel::paper_table3(), hoisting);
    let safety = fhe_analysis::parallel::check(scheduled, &graph, hoisting);
    assert!(
        safety.race_free(),
        "schedule failed the parallel-safety proof: {:?}",
        safety.violations
    );
    let fusion = if options.fusion {
        FusionPlan::plan(scheduled)
    } else {
        FusionPlan::default()
    };
    let clear = plain::values(program, inputs);

    let workers = match options.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    };
    let walk = Walk {
        scheduled,
        map,
        graph: &graph,
        fusion: &fusion,
        keys,
        ev: &ev,
        inputs,
        clear: &clear,
        cipher: (0..program.num_ops()).map(|_| Mutex::new(None)).collect(),
        hoisted: Mutex::new(HashMap::new()),
        retired: Mutex::new(Vec::new()),
        one_runner: workers == 1,
    };
    let frontier = Mutex::new(Frontier {
        consumer: DepConsumer::new(&graph),
        rng,
        error: None,
        panicked: false,
    });
    // Idle runners park here until a completion readies new nodes.
    let ready = Condvar::new();
    let steps = || loop {
        let (node, fresh) = {
            let mut f = lock(&frontier);
            loop {
                if f.panicked || f.error.is_some() || f.consumer.is_done() {
                    return;
                }
                if let Some(node) = f.consumer.pop_ready() {
                    let fresh = walk.encrypt_if_input(node, &mut f.rng);
                    break (node, fresh);
                }
                f = ready.wait(f).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let done = walk.run(node, fresh);
        let mut f = lock(&frontier);
        match done {
            Ok(()) => f.consumer.complete(&graph, node),
            Err(e) => {
                f.error.get_or_insert(e);
            }
        }
        drop(f);
        ready.notify_all();
    };
    // A panicking runner wakes the parked ones before unwinding, so the
    // panic reaches the caller instead of stranding them.
    let runner = || {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(steps)) {
            lock(&frontier).panicked = true;
            ready.notify_all();
            resume_unwind(panic);
        }
    };

    let t_walk = Instant::now();
    if workers == 1 {
        runner();
    } else {
        // The caller is the first runner. Every runner is joined before the
        // first panic payload is re-raised, so none outlives the walk.
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(runner)).collect();
            let own = catch_unwind(AssertUnwindSafe(runner));
            let joined: Vec<_> = helpers.into_iter().map(|h| h.join()).collect();
            if let Some(panic) = std::iter::once(own).chain(joined).find_map(Result::err) {
                resume_unwind(panic);
            }
        });
    }
    let walk_time = t_walk.elapsed();
    let f = frontier.into_inner().expect("no runner panicked");
    if let Some(e) = f.error {
        return Err(vec![e]);
    }
    assert!(f.consumer.is_done(), "walk retired every node");

    let outputs = program
        .outputs()
        .iter()
        .map(|&o| {
            // Rewrites can fold an output to a public value (e.g. `x - x`);
            // a plain output has no ciphertext to decrypt.
            if program.is_plain(o) {
                return walk.plain(o).clone();
            }
            let mut v = ev
                .encoder()
                .decode(&decrypt(ctx, &keys.sk, &walk.cipher(o)));
            v.truncate(program.slots());
            v
        })
        .collect();
    let reference = program
        .outputs()
        .iter()
        .map(|&o| walk.plain(o).clone())
        .collect();

    // Per-class telemetry from the retirement log.
    let retired = walk.retired.into_inner().expect("retired lock");
    let mut by_class = [(Duration::ZERO, 0usize, MemStats::default()); OpClass::ALL.len()];
    let mut node_times = Vec::new();
    let mut prev = start_mem;
    for &(node, elapsed, snapshot) in &retired {
        let DepNode { id, class, .. } = graph.nodes()[node];
        if let Some(class) = class {
            let slot = &mut by_class[OpClass::ALL
                .iter()
                .position(|c| *c == class)
                .expect("class in ALL")];
            slot.0 += elapsed;
            slot.1 += 1;
            if let Some(cur) = snapshot {
                slot.2.absorb(&prev, &cur);
            }
            node_times.push((id, elapsed));
        }
        if let Some(cur) = snapshot {
            prev = cur;
        }
    }
    let (per_class, mut per_class_mem): (Vec<_>, Vec<_>) = OpClass::ALL
        .iter()
        .zip(by_class)
        .filter(|(_, (_, n, _))| *n > 0)
        .map(|(&c, (d, n, m))| ((c, d, n), (c, m)))
        .unzip();
    if !walk.one_runner {
        per_class_mem.clear();
    }
    Ok(ExecReport {
        outputs,
        reference,
        op_time: walk_time,
        walk_time,
        total_time: t_total.elapsed(),
        ops_executed: retired.len(),
        per_class,
        mem: keys.mem(&ev).delta_since(&start_mem),
        per_class_mem,
        node_times,
        workers,
        fused: fusion.len(),
        hoisted_groups: graph.hoist_groups().len(),
        safety_obligations: safety.obligations,
    })
}

impl Walk<'_> {
    fn plain(&self, id: ValueId) -> &Vec<f64> {
        self.clear[id.index()]
            .as_ref()
            .expect("plain operand evaluated")
    }

    fn cipher(&self, id: ValueId) -> Arc<Ciphertext> {
        self.cipher[id.index()]
            .lock()
            .expect("slot lock")
            .clone()
            .expect("cipher operand evaluated")
    }

    /// Encrypts `node`'s input, if it is one, with its wall latency. Runs
    /// under the frontier lock, so the RNG is drawn in pop order.
    fn encrypt_if_input(&self, node: usize, rng: &mut StdRng) -> Option<(Ciphertext, Duration)> {
        let id = self.graph.nodes()[node].id;
        let program = &self.scheduled.program;
        let Op::Input { name } = program.op(id) else {
            return None;
        };
        let t0 = Instant::now();
        let spec = &self.scheduled.inputs[program
            .inputs()
            .binary_search(&id)
            .expect("inputs are declared")];
        let data = self
            .inputs
            .get(name)
            .unwrap_or_else(|| panic!("missing input binding `{name}`"));
        let scale = 2f64.powf(spec.scale_bits.to_f64());
        let pt = self.ev.encoder().encode(data, scale, spec.level as usize);
        let ct = encrypt_symmetric(self.keys.context(), &self.keys.sk, &pt, rng);
        // Fresh encryptions allocate outside the pool; adopt their limbs
        // so live/peak accounting covers them.
        self.ev.pool().adopt(2 * ct.level);
        Some((ct, t0.elapsed()))
    }

    /// Executes and retires one node. Plain nodes were evaluated in the
    /// clear; a fused rescale finds its value already stored by its mul.
    fn run(&self, node: usize, fresh: Option<(Ciphertext, Duration)>) -> Result<(), ScheduleError> {
        let program = &self.scheduled.program;
        let id = self.graph.nodes()[node].id;
        if program.is_plain(id) {
            return Ok(());
        }
        let (out, elapsed) = match fresh {
            Some((ct, elapsed)) => (Some((id, ct)), elapsed),
            None if self.fusion.mul_for(id).is_some() => (None, Duration::ZERO),
            None => {
                let t0 = Instant::now();
                let out = self.eval(id)?;
                (Some(out), t0.elapsed())
            }
        };
        if let Some((at, ct)) = out {
            debug_assert_eq!(
                ct.level as u32,
                self.map.level(at),
                "backend level tracks schedule"
            );
            *self.cipher[at.index()].lock().expect("slot lock") = Some(Arc::new(ct));
        }
        // Recycle the operands this op frees. The DAG's anti edges order
        // every other reader before it, so no reader still holds them.
        for a in program.op(id).operands() {
            if program.is_cipher(a) && self.graph.free_at(a) == Some(id) {
                if let Some(dead) = self.cipher[a.index()].lock().expect("slot lock").take() {
                    let dead = Arc::try_unwrap(dead).expect("no reader outlives the free");
                    self.ev.recycle_ct(dead);
                }
            }
        }
        let snapshot = self.one_runner.then(|| self.keys.mem(self.ev));
        self.retired
            .lock()
            .expect("retired lock")
            .push((node, elapsed, snapshot));
        Ok(())
    }

    /// The op dispatch: computes cipher op `id`, returning the value and
    /// the id it is stored under (a fused mul stores its rescale's).
    fn eval(&self, id: ValueId) -> Result<(ValueId, Ciphertext), ScheduleError> {
        let program = &self.scheduled.program;
        let ev = self.ev;
        let ct = match program.op(id) {
            Op::Add(a, b) | Op::Sub(a, b) => {
                let sub = matches!(program.op(id), Op::Sub(..));
                match (program.is_cipher(*a), program.is_cipher(*b)) {
                    (true, true) => {
                        let (x, y) = (self.cipher(*a), self.cipher(*b));
                        if sub {
                            ev.sub(&x, &y)
                        } else {
                            ev.add(&x, &y)
                        }
                    }
                    (true, false) => {
                        let x = self.cipher(*a);
                        let v = self.plain(*b);
                        let v: Vec<f64> = if sub {
                            v.iter().map(|x| -x).collect()
                        } else {
                            v.clone()
                        };
                        ev.add_plain(&x, &ev.encoder().encode(&v, x.scale, x.level))
                    }
                    _ => {
                        // plain ± cipher: a + b, or a − b = (−b) + a. The
                        // negated temporary goes straight back to the pool.
                        let y = self.cipher(*b);
                        let v = self.plain(*a);
                        if sub {
                            let neg = ev.neg(&y);
                            let out =
                                ev.add_plain(&neg, &ev.encoder().encode(v, neg.scale, neg.level));
                            ev.recycle_ct(neg);
                            out
                        } else {
                            ev.add_plain(&y, &ev.encoder().encode(v, y.scale, y.level))
                        }
                    }
                }
            }
            Op::Mul(a, b) if program.is_cipher(*a) && program.is_cipher(*b) => {
                let (x, y) = (self.cipher(*a), self.cipher(*b));
                // Fused mul·relin·rescale: the result lands under the
                // rescale's id; the full-level product never exists.
                if let Some(r) = self.fusion.rescale_for(id) {
                    return Ok((r, ev.mul_rescale(&x, &y)));
                }
                ev.mul(&x, &y)
            }
            Op::Mul(a, b) => {
                let (c, p) = if program.is_cipher(*a) {
                    (*a, *b)
                } else {
                    (*b, *a)
                };
                let x = self.cipher(c);
                let waterline = 2f64.powi(self.scheduled.params.waterline_bits as i32);
                ev.mul_plain(&x, &ev.encoder().encode(self.plain(p), waterline, x.level))
            }
            Op::Neg(a) => ev.neg(&self.cipher(*a)),
            Op::Rotate(a, k) => {
                let missing = |steps: Option<i64>| ScheduleError::MissingKey {
                    op: id,
                    steps: steps.unwrap_or(*k),
                };
                let parked = self.hoisted.lock().expect("hoisted lock").remove(&id);
                if let Some(ct) = parked {
                    ct
                } else if let Some(group) = self.graph.hoist_group(id) {
                    // The group leader: compute every member off one shared
                    // decomposition and park the others' results.
                    let steps: Vec<i64> = group
                        .iter()
                        .map(|&m| match program.op(m) {
                            Op::Rotate(_, s) => *s,
                            other => unreachable!("hoist group member {other:?}"),
                        })
                        .collect();
                    let mut outs = ev
                        .try_rotate_hoisted(&self.cipher(*a), &steps)
                        .map_err(|e| missing(e.steps))?
                        .into_iter();
                    let mine = outs.next().expect("group has a leader");
                    let mut park = self.hoisted.lock().expect("hoisted lock");
                    park.extend(group[1..].iter().copied().zip(outs));
                    mine
                } else {
                    ev.try_rotate(&self.cipher(*a), *k)
                        .map_err(|_| missing(None))?
                }
            }
            Op::Rescale(a) => ev.rescale(&self.cipher(*a)),
            Op::ModSwitch(a) => ev.mod_switch(&self.cipher(*a)),
            Op::Upscale(a, delta) => ev.upscale(&self.cipher(*a), 2f64.powf(delta.to_f64())),
            Op::Input { .. } | Op::Const { .. } => unreachable!("inputs encrypt at pop"),
        };
        Ok((id, ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;
    use reserve_core::Options;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn opts() -> ExecOptions {
        ExecOptions {
            poly_degree: 256,
            seed: 3,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn encrypted_fig2a_matches_reference() {
        let slots = 128;
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let compiled = reserve_core::compile(&p, &Options::new(30)).unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) * 0.1).collect();
        let report = execute(
            &compiled.scheduled,
            &inputs(&[("x", xs), ("y", ys)]),
            &opts(),
        )
        .unwrap();
        assert!(
            report.max_abs_error() < 1e-2,
            "encrypted error {}",
            report.max_abs_error()
        );
        assert!(report.ops_executed > 5);
        assert!(report.op_time > Duration::ZERO);
    }

    #[test]
    fn encrypted_rotation_and_plain_mul() {
        let slots = 128;
        let b = Builder::new("rotmul", slots);
        let x = b.input("x");
        let k = b.constant(vec![0.5; 128]);
        let e = x.clone().rotate(1) * k + x;
        let p = b.finish(vec![e]);
        // Slot values exceed 1, so the outputs need headroom: reserve two
        // bits of the output modulus for the value magnitude (Table 1's
        // m·x_max < Q constraint).
        let mut options = Options::new(30);
        options.params.output_reserve_bits = 2;
        let compiled = reserve_core::compile(&p, &options).unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
        let report = execute(&compiled.scheduled, &inputs(&[("x", xs.clone())]), &opts()).unwrap();
        let expect0 = xs[1] * 0.5 + xs[0];
        assert!((report.outputs[0][0] - expect0).abs() < 1e-2);
        assert_eq!(report.outputs[0].len(), slots);
    }

    #[test]
    fn plain_output_decodes_without_ciphertext() {
        // Fuzzer reproducer (tests/corpus/fold_plain_output.fhe): cleanup
        // folds `x - x` to a public zero, so the program's only output is
        // a plain value with no ciphertext to decrypt.
        let slots = 128;
        let b = Builder::new("fold", slots);
        let x = b.input("x");
        let z = x.clone() - x;
        let p = b.finish(vec![z]);
        let compiled = reserve_core::compile(&p, &Options::new(30)).unwrap();
        assert!(
            compiled
                .scheduled
                .program
                .outputs()
                .iter()
                .any(|&o| { compiled.scheduled.program.is_plain(o) }),
            "expected cleanup to fold the output to a plain value"
        );
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
        let report = execute(&compiled.scheduled, &inputs(&[("x", xs)]), &opts()).unwrap();
        assert!(report.outputs[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn key_policies_agree_and_eager_set_reports_missing_keys() {
        let slots = 128;
        let b = Builder::new("keypol", slots);
        let x = b.input("x");
        let e = x.clone().rotate(1) + x.clone().rotate(3) + x;
        let p = b.finish(vec![e]);
        let mut options = Options::new(30);
        options.params.output_reserve_bits = 2;
        let compiled = reserve_core::compile(&p, &options).unwrap();
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.001).collect();
        let ins = inputs(&[("x", xs)]);

        let lazy = execute(&compiled.scheduled, &ins, &opts()).unwrap();
        assert!(lazy.max_abs_error() < 1e-2, "err {}", lazy.max_abs_error());
        assert!(
            lazy.mem.key_misses >= 2,
            "two distinct steps generate lazily"
        );
        assert!(lazy.mem.peak_bytes > 0);

        // A one-byte budget forces an eviction after every use; per-element
        // key RNG streams make regenerated keys bit-identical, so outputs
        // are independent of the budget.
        let budgeted = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::Lazy {
                    budget_bytes: Some(1),
                },
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(
            lazy.outputs, budgeted.outputs,
            "budget must not change results"
        );
        assert!(budgeted.mem.key_evictions > 0);
        assert!(budgeted.mem.key_bytes_peak <= lazy.mem.key_bytes_peak);

        let eager = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::EagerProgram,
                ..opts()
            },
        )
        .unwrap();
        assert!(eager.max_abs_error() < 1e-2);
        assert_eq!(eager.mem.key_evictions, 0);

        // A provisioned set without the schedule's step 3 is a structured
        // error, not a panic — even on the hoisted-group path.
        let err = execute(
            &compiled.scheduled,
            &ins,
            &ExecOptions {
                keys: KeyPolicy::EagerSet(vec![1]),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err[0], ScheduleError::MissingKey { steps: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn eva_schedules_also_execute() {
        let slots = 128;
        let b = Builder::new("evaexec", slots);
        let x = b.input("x");
        let y = b.input("y");
        let e = (x.clone() * y.clone() + x) * y;
        let p = b.finish(vec![e]);
        let eva = fhe_baselines::eva::compile(&p, &fhe_ir::CompileParams::new(30)).unwrap();
        let xs = vec![0.5; slots];
        let ys = vec![0.25; slots];
        let report = execute(&eva.scheduled, &inputs(&[("x", xs), ("y", ys)]), &opts()).unwrap();
        assert!(
            report.max_abs_error() < 1e-2,
            "err {}",
            report.max_abs_error()
        );
    }
}

#[cfg(test)]
mod dag_tests {
    use super::*;
    use fhe_ir::Builder;
    use reserve_core::Options;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn exec_opts() -> ExecOptions {
        ExecOptions {
            poly_degree: 256,
            seed: 3,
            ..ExecOptions::default()
        }
    }

    fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        outputs
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    fn fig2a() -> ScheduledProgram {
        let slots = 128;
        let b = Builder::new("fig2a", slots);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        reserve_core::compile(&p, &Options::new(30))
            .unwrap()
            .scheduled
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_at_every_width() {
        let s = fig2a();
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let serial = crate::ckks_exec::execute(&s, &binds, &exec_opts()).unwrap();
        for workers in [1usize, 2, 3, 8] {
            let par = execute_parallel(
                &s,
                &binds,
                &ParOptions {
                    exec: exec_opts(),
                    workers,
                    fusion: true,
                },
            )
            .unwrap();
            assert_eq!(
                bits(&par.outputs),
                bits(&serial.outputs),
                "workers = {workers}"
            );
            assert_eq!(par.ops_executed, serial.ops_executed);
            assert!(par.fused > 0, "fig2a has fusible mul→rescale chains");
            assert!(par.safety_obligations > 0);
        }
    }

    #[test]
    fn fusion_toggle_does_not_change_bytes() {
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let mk = |fusion| ParOptions {
            exec: exec_opts(),
            workers: 2,
            fusion,
        };
        let on = execute_parallel(&s, &binds, &mk(true)).unwrap();
        let off = execute_parallel(&s, &binds, &mk(false)).unwrap();
        assert!(on.fused > 0);
        assert_eq!(off.fused, 0);
        assert_eq!(bits(&on.outputs), bits(&off.outputs));
    }

    #[test]
    fn hoisted_rotation_groups_execute_at_the_leader() {
        let slots = 128;
        let b = Builder::new("rotgrp", slots);
        let x = b.input("x");
        let e = x.clone().rotate(1) + x.clone().rotate(2) + x.clone().rotate(3) + x;
        let p = b.finish(vec![e]);
        let mut options = Options::new(30);
        options.params.output_reserve_bits = 2;
        let s = reserve_core::compile(&p, &options).unwrap().scheduled;
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.001).collect();
        let binds = inputs(&[("x", xs)]);
        let serial = crate::ckks_exec::execute(&s, &binds, &exec_opts()).unwrap();
        let par = execute_parallel(
            &s,
            &binds,
            &ParOptions {
                exec: exec_opts(),
                workers: 4,
                fusion: true,
            },
        )
        .unwrap();
        assert!(par.hoisted_groups > 0);
        assert_eq!(bits(&par.outputs), bits(&serial.outputs));
    }

    #[test]
    fn missing_keys_surface_as_schedule_errors_not_panics() {
        let slots = 128;
        let b = Builder::new("missing", slots);
        let x = b.input("x");
        let e = x.clone().rotate(1) + x.clone().rotate(3) + x;
        let p = b.finish(vec![e]);
        let mut options = Options::new(30);
        options.params.output_reserve_bits = 2;
        let s = reserve_core::compile(&p, &options).unwrap().scheduled;
        let xs: Vec<f64> = (0..slots).map(|i| i as f64 * 0.001).collect();
        let err = execute_parallel(
            &s,
            &inputs(&[("x", xs)]),
            &ParOptions {
                exec: ExecOptions {
                    keys: KeyPolicy::EagerSet(vec![1]),
                    ..exec_opts()
                },
                workers: 4,
                fusion: true,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err[0], ScheduleError::MissingKey { steps: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn session_keys_reuse_is_deterministic_across_executors() {
        let s = fig2a();
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let opts = exec_opts();
        let keys = SessionKeys::for_schedule(&s, &opts).unwrap();
        let pool = Arc::new(PolyPool::new(opts.poly_degree));

        // Same enc_seed → byte-identical, across repeats and executors.
        let a = crate::ckks_exec::execute_with_keys(&s, &binds, &opts, &keys, None, 7).unwrap();
        let b =
            crate::ckks_exec::execute_with_keys(&s, &binds, &opts, &keys, Some(pool.clone()), 7)
                .unwrap();
        assert_eq!(bits(&a.outputs), bits(&b.outputs), "shared pool is inert");
        let par_opts = ParOptions {
            exec: opts.clone(),
            workers: 3,
            fusion: true,
        };
        let c = execute_parallel_with_keys(&s, &binds, &par_opts, &keys, Some(pool.clone()), 7)
            .unwrap();
        assert_eq!(
            bits(&a.outputs),
            bits(&c.outputs),
            "parallel with-keys path matches serial"
        );
        assert!(a.max_abs_error() < 1e-2);

        // A different enc_seed changes ciphertext noise but stays correct.
        let d = crate::ckks_exec::execute_with_keys(&s, &binds, &opts, &keys, None, 8).unwrap();
        assert_ne!(bits(&a.outputs), bits(&d.outputs));
        assert!(d.max_abs_error() < 1e-2);

        // Counter deltas over a shared pool: the second request's hits grow
        // because it recycles buffers the first returned.
        let stats = pool.stats();
        assert_eq!(stats.hits, b.mem.pool_hits + c.mem.pool_hits);
        assert!(c.mem.pool_hits > 0, "warm pool serves from the free list");
    }

    #[test]
    #[should_panic]
    fn a_runner_panic_reaches_the_caller_instead_of_stranding_the_walk() {
        // An input longer than the slot count panics in the encoder, inside
        // the walk; the other runners must be released, not left parked.
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 4096]), ("y", vec![0.25; 128])]);
        let _ = execute_parallel(
            &s,
            &binds,
            &ParOptions {
                exec: exec_opts(),
                workers: 4,
                fusion: true,
            },
        );
    }

    #[test]
    #[should_panic(expected = "too many slot values")]
    fn a_runner_panic_reaches_the_caller_with_its_own_payload() {
        // The walk joins every runner and re-raises the first panic's
        // payload, whichever thread it ran on.
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 4096]), ("y", vec![0.25; 128])]);
        let _ = execute_parallel(
            &s,
            &binds,
            &ParOptions {
                exec: exec_opts(),
                workers: 3,
                fusion: true,
            },
        );
    }

    #[test]
    fn walk_telemetry_covers_every_cipher_op() {
        let s = fig2a();
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let par = execute_parallel(
            &s,
            &binds,
            &ParOptions {
                exec: exec_opts(),
                workers: 2,
                fusion: true,
            },
        )
        .unwrap();
        let class_count: usize = par.per_class.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(par.node_times.len(), class_count);
        assert!(par.walk_time <= par.op_time);
        assert!(par.op_time <= par.total_time);
        assert!(par.max_abs_error() < 1e-2);
        assert!(par.mem.peak_bytes > 0);
    }
}
