//! The unified [`Executor`] interface over the ways this workspace runs a
//! scheduled program: exact plaintext reference ([`PlainExec`]),
//! noise-injecting simulation ([`NoiseSimExec`]) and real encrypted
//! execution — the serial walk ([`CkksExec`]) or the same walk with more
//! runners and fusion ([`ParCkksExec`]).
//!
//! Every executor returns the same [`Execution`] artifact — outputs, the
//! plaintext reference, and an [`ExecTrace`] with per-op-class timing — so
//! tests and benches compare backends without per-backend plumbing. The
//! output-diff checks ([`max_abs_diff`], [`outputs_close`]) are the shared
//! correctness oracle between encrypted and plain runs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fhe_ir::{CostModel, OpClass, ScheduleError, ScheduledProgram};

use crate::ckks_exec::{self, ExecOptions, ExecReport, ParOptions};
use crate::noise_sim::{self, NoiseModel};
use crate::plain;

/// Memory counters of one execution (encrypted backend only; the
/// plaintext backends report zeros). Byte figures cover the backend's
/// polynomial pool (live ciphertexts + pooled temporaries + adopted
/// encryptions) plus key material; encoder scratch is excluded on both the
/// measured and the static side, so the compiler's static bound remains
/// comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// High-water mark of polynomial + key bytes.
    pub peak_bytes: u64,
    /// Polynomial + key bytes live at the end of the window.
    pub live_bytes: u64,
    /// Fresh limb-buffer allocations (pool misses + adopted encryptions).
    pub allocations: u64,
    /// Pool checkouts served from the free list.
    pub pool_hits: u64,
    /// Pool checkouts that allocated.
    pub pool_misses: u64,
    /// Galois-key lookups served from the static set or cache.
    pub key_hits: u64,
    /// Galois-key lookups that generated a key on demand.
    pub key_misses: u64,
    /// Galois keys evicted under the cache's byte budget.
    pub key_evictions: u64,
    /// High-water mark of Galois-key bytes (cached or static set).
    pub key_bytes_peak: u64,
}

impl MemStats {
    /// Fraction of pool checkouts served from the free list (0 when idle).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// The per-window view of a later snapshot against `start`: monotone
    /// counters (`allocations`, `pool_*`, `key_hits/misses/evictions`)
    /// become deltas, byte figures (`peak_bytes`, `live_bytes`,
    /// `key_bytes_peak`) keep this snapshot's absolute values. This is how
    /// a request executing against a shared pool/cache reports *its own*
    /// traffic while the global counters stay exact — summing the deltas
    /// of serially executed requests reconstructs the global counters.
    pub fn delta_since(&self, start: &MemStats) -> MemStats {
        MemStats {
            peak_bytes: self.peak_bytes,
            live_bytes: self.live_bytes,
            allocations: self.allocations - start.allocations,
            pool_hits: self.pool_hits - start.pool_hits,
            pool_misses: self.pool_misses - start.pool_misses,
            key_hits: self.key_hits - start.key_hits,
            key_misses: self.key_misses - start.key_misses,
            key_evictions: self.key_evictions - start.key_evictions,
            key_bytes_peak: self.key_bytes_peak,
        }
    }

    /// Charges one op's traffic to this per-class window: the counter
    /// deltas between the snapshots `prev` and `cur` taken around it, and
    /// `cur`'s bytes as a high-water mark.
    pub(crate) fn absorb(&mut self, prev: &MemStats, cur: &MemStats) {
        let d = cur.delta_since(prev);
        self.allocations += d.allocations;
        self.pool_hits += d.pool_hits;
        self.pool_misses += d.pool_misses;
        self.key_hits += d.key_hits;
        self.key_misses += d.key_misses;
        self.key_evictions += d.key_evictions;
        self.peak_bytes = self.peak_bytes.max(cur.live_bytes);
        self.live_bytes = cur.live_bytes;
        self.key_bytes_peak = self.key_bytes_peak.max(cur.key_bytes_peak);
    }
}

/// Timing breakdown of one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// End-to-end wall time (for [`CkksExec`]: including keygen, encryption
    /// and decryption).
    pub total_time: Duration,
    /// Wall time spent in program operations proper.
    pub op_time: Duration,
    /// Number of (cipher) ops executed.
    pub ops_executed: usize,
    /// Wall time and op count per Table 3 op class. Durations are measured
    /// per op only on the encrypted backend; the plaintext backends report
    /// counts with zero durations (their per-op cost is not meaningful).
    pub per_class: Vec<(OpClass, Duration, usize)>,
    /// Whole-run memory counters (encrypted backend; zeros elsewhere).
    pub mem: MemStats,
    /// Per-op-class memory counters: counter fields are summed deltas over
    /// the class's ops, byte peaks are the high-water mark observed at the
    /// end of any op of the class (encrypted walks on one runner only).
    pub per_class_mem: Vec<(OpClass, MemStats)>,
}

impl From<ExecReport> for Execution {
    fn from(report: ExecReport) -> Self {
        Execution {
            outputs: report.outputs,
            reference: report.reference,
            trace: ExecTrace {
                total_time: report.total_time,
                op_time: report.op_time,
                ops_executed: report.ops_executed,
                per_class: report.per_class,
                mem: report.mem,
                per_class_mem: report.per_class_mem,
            },
        }
    }
}

/// Result of running a scheduled program through any [`Executor`].
#[derive(Debug, Clone)]
pub struct Execution {
    /// The executor's outputs (decrypted, for the encrypted backend).
    pub outputs: Vec<Vec<f64>>,
    /// Exact plaintext reference outputs for the same inputs.
    pub reference: Vec<Vec<f64>>,
    /// Timing breakdown.
    pub trace: ExecTrace,
}

impl Execution {
    /// Maximum absolute slot error vs the plaintext reference.
    pub fn max_abs_error(&self) -> f64 {
        max_abs_diff(&self.outputs, &self.reference)
    }

    /// log₂ of the maximum absolute error (Fig. 7's "Error(Log)" axis).
    pub fn log2_error(&self) -> f64 {
        self.max_abs_error().max(f64::MIN_POSITIVE).log2()
    }
}

/// A way to run a [`ScheduledProgram`] on named inputs.
pub trait Executor {
    /// Display name ("plain", "noise-sim", "ckks").
    fn name(&self) -> &str;

    /// Executes `scheduled` on `inputs` (one vector per program input,
    /// padded/truncated to the slot count).
    ///
    /// # Errors
    ///
    /// Returns the schedule's validation errors if it is illegal.
    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>>;
}

/// Maximum absolute slot difference between two output sets.
///
/// # Panics
///
/// Panics if the two sets disagree in shape — that is itself a diff worth
/// failing loudly on.
pub fn max_abs_diff(actual: &[Vec<f64>], expected: &[Vec<f64>]) -> f64 {
    assert_eq!(actual.len(), expected.len(), "output count mismatch");
    actual
        .iter()
        .zip(expected)
        .flat_map(|(a, e)| {
            assert_eq!(a.len(), e.len(), "output width mismatch");
            a.iter().zip(e).map(|(x, y)| (x - y).abs())
        })
        .fold(0.0, f64::max)
}

/// The shared encrypted/plain output-diff check: `Ok` when every slot of
/// `actual` is within `tol` of `expected`.
///
/// # Errors
///
/// Returns a human-readable description of the worst offending slot.
pub fn outputs_close(actual: &[Vec<f64>], expected: &[Vec<f64>], tol: f64) -> Result<(), String> {
    let worst = max_abs_diff(actual, expected);
    if worst <= tol {
        Ok(())
    } else {
        Err(format!(
            "outputs differ: max |Δ| = {worst:.3e} > tolerance {tol:.3e}"
        ))
    }
}

/// The [`Execution`] of a plaintext backend that ran for `wall`: per-class
/// counts of the live cipher ops with zero durations (per-op cost is not
/// meaningful in the clear).
fn clear_execution(
    scheduled: &ScheduledProgram,
    outputs: Vec<Vec<f64>>,
    reference: Vec<Vec<f64>>,
    wall: Duration,
) -> Execution {
    let program = &scheduled.program;
    let live = fhe_ir::analysis::live(program);
    let mut counts = [0usize; OpClass::ALL.len()];
    for id in program.ids() {
        if !live[id.index()] {
            continue;
        }
        if let Some(class) = CostModel::classify(program, id) {
            let slot = OpClass::ALL
                .iter()
                .position(|c| *c == class)
                .expect("class in ALL");
            counts[slot] += 1;
        }
    }
    let per_class: Vec<_> = OpClass::ALL
        .iter()
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .map(|(&c, n)| (c, Duration::ZERO, n))
        .collect();
    Execution {
        outputs,
        reference,
        trace: ExecTrace {
            total_time: wall,
            op_time: wall,
            ops_executed: per_class.iter().map(|&(_, _, n)| n).sum(),
            per_class,
            ..ExecTrace::default()
        },
    }
}

/// Exact plaintext reference execution (the semantics oracle).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainExec;

impl Executor for PlainExec {
    fn name(&self) -> &str {
        "plain"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        scheduled.validate()?;
        let t0 = Instant::now();
        let outputs = plain::execute(&scheduled.program, inputs);
        let wall = t0.elapsed();
        Ok(clear_execution(scheduled, outputs.clone(), outputs, wall))
    }
}

/// Plaintext execution with the scheme's scale-dependent noise injected
/// per op (drives the paper's Fig. 7 error comparison).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseSimExec {
    /// Noise magnitude and seed.
    pub model: NoiseModel,
}

impl Executor for NoiseSimExec {
    fn name(&self) -> &str {
        "noise-sim"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        let t0 = Instant::now();
        let run = noise_sim::simulate(scheduled, inputs, &self.model)?;
        let wall = t0.elapsed();
        Ok(clear_execution(scheduled, run.outputs, run.reference, wall))
    }
}

/// Real encrypted execution on the `fhe-ckks` backend, with per-op-class
/// wall-clock timing.
#[derive(Debug, Clone, Default)]
pub struct CkksExec {
    /// Backend configuration (polynomial degree, seed).
    pub options: ExecOptions,
}

impl Executor for CkksExec {
    fn name(&self) -> &str {
        "ckks"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        ckks_exec::execute(scheduled, inputs, &self.options).map(Execution::from)
    }
}

/// Real encrypted execution with the walk's parallel knobs
/// ([`ckks_exec::execute_parallel`]): op-level runners on scoped threads
/// and fused mul·relin·rescale. Outputs are
/// byte-identical to [`CkksExec`] at the same backend options.
#[derive(Debug, Clone, Default)]
pub struct ParCkksExec {
    /// Backend + walk configuration (workers, fusion toggle).
    pub options: ParOptions,
}

impl Executor for ParCkksExec {
    fn name(&self) -> &str {
        "ckks-par"
    }

    fn execute(
        &self,
        scheduled: &ScheduledProgram,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Execution, Vec<ScheduleError>> {
        ckks_exec::execute_parallel(scheduled, inputs, &self.options).map(Execution::from)
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

    fn fig2a_scheduled(slots: usize) -> ScheduledProgram {
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
    fn plain_executor_is_exact() {
        let s = fig2a_scheduled(8);
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        let run = PlainExec.execute(&s, &binds).unwrap();
        assert_eq!(run.max_abs_error(), 0.0);
        assert!(run.trace.ops_executed > 0);
        assert!(run
            .trace
            .per_class
            .iter()
            .any(|&(c, _, n)| c == OpClass::MulCipher && n > 0));
    }

    #[test]
    fn noise_sim_executor_is_close_but_not_exact() {
        let s = fig2a_scheduled(8);
        let binds = inputs(&[("x", vec![0.5; 8]), ("y", vec![0.25; 8])]);
        let run = NoiseSimExec::default().execute(&s, &binds).unwrap();
        assert!(run.max_abs_error() > 0.0);
        assert!(outputs_close(&run.outputs, &run.reference, 1e-2).is_ok());
    }

    #[test]
    fn all_executors_agree_through_the_shared_diff_check() {
        let s = fig2a_scheduled(128);
        let xs: Vec<f64> = (0..128).map(|i| ((i % 5) as f64 - 2.0) * 0.3).collect();
        let ys: Vec<f64> = (0..128).map(|i| ((i % 7) as f64) * 0.1).collect();
        let binds = inputs(&[("x", xs), ("y", ys)]);
        let executors: Vec<Box<dyn Executor>> = vec![
            Box::new(PlainExec),
            Box::new(NoiseSimExec::default()),
            Box::new(CkksExec {
                options: ExecOptions {
                    poly_degree: 256,
                    seed: 3,
                    ..ExecOptions::default()
                },
            }),
        ];
        for ex in &executors {
            let run = ex.execute(&s, &binds).unwrap();
            outputs_close(&run.outputs, &run.reference, 1e-2)
                .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
        }
    }

    #[test]
    fn ckks_executor_times_per_class() {
        let s = fig2a_scheduled(128);
        let binds = inputs(&[("x", vec![0.5; 128]), ("y", vec![0.25; 128])]);
        let run = CkksExec {
            options: ExecOptions {
                poly_degree: 256,
                seed: 3,
                ..ExecOptions::default()
            },
        }
        .execute(&s, &binds)
        .unwrap();
        let timed: Duration = run.trace.per_class.iter().map(|&(_, d, _)| d).sum();
        assert!(timed > Duration::ZERO);
        assert!(timed <= run.trace.op_time);
        // Memory accounting is live on the encrypted backend: a nonzero
        // peak, recycled buffers producing pool hits, and per-class stats
        // covering the timed classes.
        assert!(run.trace.mem.peak_bytes > 0);
        assert!(run.trace.mem.pool_hit_rate() > 0.0);
        assert_eq!(run.trace.per_class_mem.len(), run.trace.per_class.len());
    }

    #[test]
    fn per_class_mem_counters_sum_to_the_global_trace() {
        // Rotate-heavy program: four distinct steps drive the lazy
        // Galois-key cache, and the mul/rescale churn exercises the pool.
        let b = Builder::new("rotsum", 64);
        let x = b.input("x");
        let y = b.input("y");
        let mut acc = x.clone() * y.clone();
        for k in [1i64, 2, 4, 8] {
            acc = acc.rotate(k) + x.clone().rotate(-k) * y.clone();
        }
        let p = b.finish(vec![acc]);
        let s = reserve_core::compile(&p, &Options::new(30))
            .unwrap()
            .scheduled;
        let xs: Vec<f64> = (0..64).map(|i| ((i % 5) as f64 - 2.0) * 0.2).collect();
        let ys: Vec<f64> = (0..64).map(|i| ((i % 3) as f64) * 0.3).collect();
        let run = CkksExec {
            options: ExecOptions {
                poly_degree: 128,
                seed: 9,
                ..ExecOptions::default()
            },
        }
        .execute(&s, &inputs(&[("x", xs), ("y", ys)]))
        .unwrap();
        let t = &run.trace;
        assert!(t
            .per_class_mem
            .iter()
            .any(|&(c, m)| c == OpClass::Rotate && m.key_hits + m.key_misses > 0));
        // Counter fields are deltas attributed to the executing op, so the
        // per-class totals must reconstruct the whole-run counters exactly.
        let sum = |f: fn(&MemStats) -> u64| t.per_class_mem.iter().map(|(_, m)| f(m)).sum::<u64>();
        assert_eq!(sum(|m| m.pool_hits), t.mem.pool_hits);
        assert_eq!(sum(|m| m.pool_misses), t.mem.pool_misses);
        assert_eq!(sum(|m| m.key_hits), t.mem.key_hits);
        assert_eq!(sum(|m| m.key_misses), t.mem.key_misses);
        assert_eq!(sum(|m| m.key_evictions), t.mem.key_evictions);
        // Fresh input encryptions adopt buffers outside any op class, so
        // the global allocation count strictly exceeds the per-class sum.
        assert!(sum(|m| m.allocations) < t.mem.allocations);
        // Byte fields are high-water marks, bounded by the run's peak.
        for &(class, m) in &t.per_class_mem {
            assert!(m.peak_bytes <= t.mem.peak_bytes, "{class:?}");
            assert!(m.live_bytes <= m.peak_bytes, "{class:?}");
            assert!(m.key_bytes_peak <= t.mem.key_bytes_peak, "{class:?}");
        }
    }

    #[test]
    fn diff_check_reports_the_gap() {
        let err = outputs_close(&[vec![1.0, 2.0]], &[vec![1.0, 2.5]], 0.1).unwrap_err();
        assert!(err.contains("5.000e-1"), "got: {err}");
    }
}
