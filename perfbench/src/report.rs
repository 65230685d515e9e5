//! Metric registry and the result lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each one (`--trace 0`).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_ms", "ms"),
    ("compile_peak_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("precision_bits", "bits"),
];

/// Encrypted-suite program names (per-program rows).
pub const SUITE: [&str; 7] = ["SF", "HCD", "LR", "MR", "MLP", "Lenet-1ch", "Lenet-3ch"];
/// Serve-mix ladder rates (requests per second) run after the nominal rate.
pub const LADDER: [u32; 4] = [40, 50, 60, 70];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. Workloads that do
/// not reach a layer report its metrics as 0.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |names: &[&str], unit: &'static str| {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    };
    add(&["run_w1_ms", "run_w2_ms"], "ms");
    add(&["exec_peak_mb"], "MB");
    add(&["max_rps_slo"], "1/s");
    add(&["fail_rate"], "ratio");
    // Compile rounds (encrypted-suite): pass walls, finish residual, counts.
    add(
        &[
            "ir.parse_ms",
            "ir.cleanup_ms",
            "core.order_ms",
            "core.alloc_ms",
            "core.typecheck_ms",
            "core.place_ms",
            "core.hoist_ms",
            "core.sm_ms",
            "ir.depgraph_ms",
            "analysis.lint_ms",
            "analysis.tv_ms",
            "ir.finish_ms",
        ],
        "ms",
    );
    add(
        &[
            "ir.ops_in",
            "ir.ops_out",
            "core.hoists",
            "analysis.findings",
            "compile.allocs",
        ],
        "count",
    );
    add(&["attrib.compile_pct"], "%");
    // encrypted-suite: op classes, walk, kernels, pool.
    for c in [
        "rotate",
        "mul_cipher",
        "mul_plain",
        "rescale",
        "add",
        "modswitch",
    ] {
        add(&[&format!("ckks.{c}_ms")], "ms");
        add(&[&format!("ckks.{c}_n")], "count");
    }
    add(&["ckks.upscale_n"], "count");
    add(
        &["ckks.encrypt_in_ms", "runtime.op_ms", "runtime.overhead_ms"],
        "ms",
    );
    add(&["attrib.run_w1_pct"], "%");
    for k in [
        "ntt_fwd",
        "ntt_inv",
        "rotate",
        "rotate_hoisted",
        "mul_relin",
        "mul_plain",
        "encode",
        "encrypt",
        "decrypt",
    ] {
        add(&[&format!("ckks.{k}_us")], "us");
    }
    add(&["ckks.pool_hit_rate"], "ratio");
    add(&["ckks.pool_checkouts"], "count");
    add(
        &[
            "ckks.keygen_ms",
            "runtime.walk_w2_ms",
            "runtime.node_ms",
            "runtime.idle_w2_ms",
        ],
        "ms",
    );
    add(&["runtime.fused", "runtime.hoisted_groups"], "count");
    // serve-mix.
    add(
        &[
            "serve.exec_ms.p50",
            "serve.exec_ms.p99",
            "serve.op_ms.p50",
            "serve.op_ms.p99",
            "serve.wait_hit_ms",
            "serve.wait_miss_ms",
            "serve.client_ms",
            "serve.gen_lag_ms",
        ],
        "ms",
    );
    add(&["serve.busy", "serve.cache_hit_rate"], "ratio");
    add(&["serve.cache_misses", "serve.cache_evictions"], "count");
    add(&["serve.pool_hit_rate"], "ratio");
    add(&["serve.peak_mb"], "MB");
    add(&["serve.backlog_end"], "count");
    for r in LADDER {
        add(&[&format!("serve.p99_ms.at{r}")], "ms");
    }
    add(&["trace.spans"], "count");
    for p in SUITE {
        add(&[&format!("compile_ms.{p}")], "ms");
    }
    for p in SUITE {
        add(
            &[&format!("run_w1_ms.{p}"), &format!("run_w2_ms.{p}")],
            "ms",
        );
    }
    v
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<String, f64>,
    pub layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Counts that must repeat exactly for a given seed.
    pub exact: BTreeMap<String, f64>,
    /// Names in `exact` that must not move when only the seed changes.
    pub seed_invariant: Vec<String>,
    /// Free-form facts about the run (chosen parameters, rejections).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Records an exact count; `invariant` marks it as independent of the
    /// seed (program structure), otherwise it only repeats per seed.
    pub fn exact(&mut self, name: impl Into<String>, value: f64, invariant: bool) {
        let name = name.into();
        if invariant {
            self.seed_invariant.push(name.clone());
        }
        self.exact.insert(name, value);
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.insert(key.into(), value.into());
    }

    /// Records an attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(out: &mut String, list: &[(String, &str)], values: &BTreeMap<String, f64>) {
    out.push('{');
    for (i, (name, unit)) in list.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    out.push('}');
}

fn map_json(out: &mut String, m: &BTreeMap<String, f64>) {
    out.push('{');
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", esc(k), num(*v));
    }
    out.push('}');
}

impl Report {
    /// The detail line: every metric measured, exact counts and notes.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let e2e: Vec<(String, &str)> = E2E.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"detail\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
             \"attempted\": {}, \"failed\": {}, \"e2e\": ",
            u8::from(trace),
            self.attempted,
            self.failed
        );
        metrics_json(&mut out, &e2e, &self.e2e);
        out.push_str(", \"layer\": ");
        metrics_json(&mut out, &layer_metrics(), &self.layer);
        out.push_str(", \"exact\": ");
        map_json(&mut out, &self.exact);
        out.push_str(", \"seed_invariant\": [");
        for (i, n) in self.seed_invariant.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", esc(n));
        }
        out.push_str("], \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", esc(k), esc(v));
        }
        out.push_str("}}}");
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, trace: bool, correct: bool) -> String {
        let list: Vec<(String, &str)> = if trace {
            layer_metrics()
        } else {
            E2E.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        };
        let values = if trace { &self.layer } else { &self.e2e };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.attempted, self.failed
        );
        metrics_json(&mut out, &list, values);
        out.push('}');
        out
    }
}
