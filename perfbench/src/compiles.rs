//! Timed rounds of `text::parse` + `ReserveCompiler::full().compile` over
//! a workload's programs: the benchmark's view of the `ir`, `core` and
//! `analysis` layers. Workloads spread the rounds across the whole run, so
//! that a slow spell of the host touches only some of them.
//!
//! Compile time is wall time around the public calls. The compiler's own
//! `CompileReport::total_time` stops before `finish_compiled`, which runs
//! the memory model and a second `depgraph::analyze`; `ir.finish_ms`
//! (compile wall − parse − Σ pass walls) exposes that share.

use std::time::{Duration, Instant};

use fhe_ir::pipeline::ScaleCompiler;
use fhe_ir::{text, CompileParams};
use reserve_core::ReserveCompiler;

use crate::programs::Prog;
use crate::report::Report;
use crate::stats::median;
use crate::{alloc, trace};

/// Pass names as the pipeline records them, and the metric each feeds
/// (the empty name stands for the scale-management subtotal).
const PASSES: [(&str, &str); 10] = [
    ("cleanup", "ir.cleanup_ms"),
    ("order", "core.order_ms"),
    ("alloc", "core.alloc_ms"),
    ("typecheck", "core.typecheck_ms"),
    ("place", "core.place_ms"),
    ("hoist", "core.hoist_ms"),
    ("depgraph", "ir.depgraph_ms"),
    ("lint", "analysis.lint_ms"),
    ("translation-validate", "analysis.tv_ms"),
    ("", "core.sm_ms"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed parse + compile.
struct Sample {
    wall: f64,
    parse: f64,
    passes: [f64; PASSES.len()],
    finish: f64,
}

/// Structure counts of one program's compile (the same every round).
#[derive(Clone, Copy)]
struct Counts {
    ops_in: usize,
    ops_out: usize,
    hoists: usize,
    findings: usize,
}

pub struct CompileRounds {
    progs: Vec<(&'static str, String, CompileParams)>,
    samples: Vec<Vec<Sample>>,
    counts: Vec<Counts>,
    peak_bytes: u64,
    allocs: u64,
}

impl CompileRounds {
    /// Prepares the rounds and makes one untimed compile of each program
    /// under the counting allocator (heap peak and allocation count).
    pub fn new(progs: &[Prog], params: &[CompileParams]) -> Result<CompileRounds, String> {
        let mut rounds = CompileRounds {
            progs: progs
                .iter()
                .zip(params)
                .map(|(p, params)| (p.name, p.text(), *params))
                .collect(),
            samples: progs.iter().map(|_| Vec::new()).collect(),
            counts: Vec::new(),
            peak_bytes: 0,
            allocs: 0,
        };
        for (name, text, params) in &rounds.progs {
            let (compiled, heap) = alloc::measure(|| {
                let parsed = text::parse(text).map_err(|e| format!("{name}: parse: {e:?}"))?;
                let ops_in = parsed.num_ops();
                ReserveCompiler::full()
                    .compile(&parsed, params)
                    .map(|c| (ops_in, c))
                    .map_err(|e| format!("{name}: {e}"))
            });
            let (ops_in, c) = compiled?;
            rounds.peak_bytes = rounds.peak_bytes.max(heap.peak_bytes);
            rounds.allocs += heap.allocs;
            rounds.counts.push(Counts {
                ops_in,
                ops_out: c.report.ops_after,
                hoists: c.report.hoists,
                findings: c.report.findings.len(),
            });
        }
        Ok(rounds)
    }

    /// Parses and compiles every program once, timing each call.
    pub fn round(&mut self) -> Result<(), String> {
        let compiler = ReserveCompiler::full();
        for (i, (name, text, params)) in self.progs.iter().enumerate() {
            let t = Instant::now();
            let parsed = trace::span("text::parse", 0, || text::parse(text))
                .map_err(|e| format!("{name}: parse: {e:?}"))?;
            let parse = t.elapsed();
            let c = trace::span("ScaleCompiler::compile", 0, || {
                compiler.compile(&parsed, params)
            })
            .map_err(|e| format!("{name}: {e}"))?;
            let wall = t.elapsed();
            let trace = &c.report.trace;
            let mut passes = [0.0; PASSES.len()];
            for (k, (pass, _)) in PASSES.iter().enumerate() {
                passes[k] = if pass.is_empty() {
                    ms(c.report.scale_management_time)
                } else {
                    trace.pass(pass).map_or(0.0, |p| ms(p.wall))
                };
            }
            self.samples[i].push(Sample {
                wall: ms(wall),
                parse: ms(parse),
                passes,
                finish: ms(wall.saturating_sub(parse + trace.total_time())),
            });
        }
        Ok(())
    }

    /// Rounds timed so far.
    pub fn timed(&self) -> usize {
        self.samples[0].len()
    }

    /// Records `compile_ms` and `compile_peak_mb` and, with `layers`, the
    /// `ir`, `core` and `analysis` layer metrics (one workload reports
    /// them). Every time is a Σ over programs of per-program medians.
    pub fn report(&self, rep: &mut Report, layers: bool) {
        let sum = |f: &dyn Fn(&Sample) -> f64| -> f64 {
            self.samples
                .iter()
                .map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
                .sum()
        };
        let compile_ms = sum(&|s| s.wall);
        rep.e2e("compile_ms", compile_ms);
        rep.e2e("compile_peak_mb", self.peak_bytes as f64 / 1e6);
        rep.exact("compile_peak_bytes", self.peak_bytes as f64, false);
        for ((name, _, _), c) in self.progs.iter().zip(&self.counts) {
            rep.exact(format!("ir.ops_in.{name}"), c.ops_in as f64, true);
            rep.exact(format!("ir.ops_out.{name}"), c.ops_out as f64, true);
            rep.exact(format!("core.hoists.{name}"), c.hoists as f64, true);
            rep.exact(format!("analysis.findings.{name}"), c.findings as f64, true);
        }
        if !layers {
            return;
        }
        for ((name, _, _), s) in self.progs.iter().zip(&self.samples) {
            let walls: Vec<f64> = s.iter().map(|s| s.wall).collect();
            rep.layer(format!("compile_ms.{name}"), median(&walls));
        }
        let parse = sum(&|s| s.parse);
        rep.layer("ir.parse_ms", parse);
        let mut parts = parse;
        for (k, (pass, metric)) in PASSES.iter().enumerate() {
            let t = sum(&|s| s.passes[k]);
            if !pass.is_empty() {
                parts += t;
            }
            rep.layer(*metric, t);
        }
        let finish = sum(&|s| s.finish);
        rep.layer("ir.finish_ms", finish);
        rep.layer("attrib.compile_pct", 100.0 * (parts + finish) / compile_ms);
        let total = |f: &dyn Fn(&Counts) -> usize| self.counts.iter().map(f).sum::<usize>() as f64;
        for (metric, value) in [
            ("ir.ops_in", total(&|c| c.ops_in)),
            ("ir.ops_out", total(&|c| c.ops_out)),
            ("core.hoists", total(&|c| c.hoists)),
            ("analysis.findings", total(&|c| c.findings)),
            ("compile.allocs", self.allocs as f64),
        ] {
            rep.layer(metric, value);
        }
    }
}
