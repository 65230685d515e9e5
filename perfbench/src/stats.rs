//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of a closed loop's request latencies with each request
/// class represented by its median, weighted by its request count. Every
/// request of a class repeats the same deterministic work, so the spread
/// inside a class is host noise; the class median removes it.
pub fn class_quantile(classes: &[&[f64]], q: f64) -> f64 {
    let pooled: Vec<f64> = classes
        .iter()
        .flat_map(|c| std::iter::repeat_n(median(c), c.len()))
        .collect();
    quantile(&pooled, q)
}

/// Precision in bits of an output set against its reference: −log2 of the
/// largest absolute slot error, capped at 53 bits (an exact match).
pub fn precision_bits(max_abs_err: f64) -> f64 {
    -(max_abs_err.max(2f64.powi(-53))).log2()
}

pub fn max_abs_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            if x.len() < y.len() {
                return f64::INFINITY;
            }
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max)
        })
        .fold(0.0, f64::max)
}
