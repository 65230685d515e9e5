//! Reference plaintext executor: evaluates a program on clear `f64`
//! vectors. Scale-management ops are value-identities, so the same executor
//! runs both source programs and compiled schedules — compilation must not
//! change program semantics, and tests assert exactly that.

use std::collections::HashMap;

use fhe_ir::{Op, Program, ValueId};

/// Executes `program` on named input vectors (each padded/truncated to the
/// slot count).
///
/// Returns one vector per program output.
///
/// # Panics
///
/// Panics if an input binding is missing.
pub fn execute(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> Vec<Vec<f64>> {
    let values = values(program, inputs);
    program
        .outputs()
        .iter()
        .map(|&o| values[o.index()].clone().expect("output evaluated"))
        .collect()
}

/// Every live value of `program` in the clear, indexed by value id (`None`
/// for dead values). The encrypted walk reads its plaintext operands and
/// its reference outputs from here.
///
/// # Panics
///
/// Panics if an input binding is missing.
pub fn values(program: &Program, inputs: &HashMap<String, Vec<f64>>) -> Vec<Option<Vec<f64>>> {
    values_with(program, inputs, |_, _| {})
}

/// [`values`], calling `after(id, value)` on each live value as soon as it
/// is computed, in schedule order; later ops read the value as `after`
/// left it (the noise simulator injects noise here).
pub(crate) fn values_with(
    program: &Program,
    inputs: &HashMap<String, Vec<f64>>,
    mut after: impl FnMut(ValueId, &mut Vec<f64>),
) -> Vec<Option<Vec<f64>>> {
    let slots = program.slots();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; program.num_ops()];
    let live = fhe_ir::analysis::live(program);

    let fetch = |values: &Vec<Option<Vec<f64>>>, id: ValueId| -> Vec<f64> {
        values[id.index()]
            .clone()
            .expect("operand evaluated (topological order)")
    };

    for id in program.ids() {
        if !live[id.index()] {
            continue;
        }
        let mut result = match program.op(id) {
            Op::Input { name } => {
                let data = inputs
                    .get(name)
                    .unwrap_or_else(|| panic!("missing input binding `{name}`"));
                (0..slots)
                    .map(|i| data.get(i).copied().unwrap_or(0.0))
                    .collect()
            }
            Op::Const { value } => value.to_vec(slots),
            Op::Add(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x + y),
            Op::Sub(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x - y),
            Op::Mul(a, b) => binop(&fetch(&values, *a), &fetch(&values, *b), |x, y| x * y),
            Op::Neg(a) => fetch(&values, *a).iter().map(|x| -x).collect(),
            Op::Rotate(a, k) => rotate(&fetch(&values, *a), *k),
            Op::Rescale(a) | Op::ModSwitch(a) | Op::Upscale(a, _) => fetch(&values, *a),
        };
        after(id, &mut result);
        values[id.index()] = Some(result);
    }
    values
}

fn binop(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// Cyclic rotation by `k` (positive moves slot `k` to slot 0, matching the
/// CKKS Galois rotation convention).
pub fn rotate(a: &[f64], k: i64) -> Vec<f64> {
    let n = a.len() as i64;
    (0..n)
        .map(|i| a[((i + k).rem_euclid(n)) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::Builder;

    fn inputs(pairs: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn evaluates_fig2a() {
        let b = Builder::new("fig2a", 4);
        let x = b.input("x");
        let y = b.input("y");
        let q = x.clone() * x.clone() * x * (y.clone() * y.clone() + y);
        let p = b.finish(vec![q]);
        let out = execute(
            &p,
            &inputs(&[
                ("x", vec![2.0, 1.0, 0.5, -1.0]),
                ("y", vec![1.0, 2.0, 3.0, 4.0]),
            ]),
        );
        // x³·(y²+y)
        assert_eq!(out[0][0], 8.0 * 2.0);
        assert_eq!(out[0][1], 1.0 * 6.0);
        assert_eq!(out[0][3], -20.0);
    }

    #[test]
    fn rotation_convention() {
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotate(&[1.0, 2.0, 3.0, 4.0], -1), vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(rotate(&[1.0, 2.0], 0), vec![1.0, 2.0]);
    }

    #[test]
    fn scale_management_is_identity() {
        let mut p = fhe_ir::Program::new("sm", 2);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rescale(x));
        let m = p.push(Op::ModSwitch(r));
        let u = p.push(Op::Upscale(m, fhe_ir::Frac::from(20)));
        p.set_outputs(vec![u]);
        let out = execute(&p, &inputs(&[("x", vec![3.5, -1.0])]));
        assert_eq!(out[0], vec![3.5, -1.0]);
    }

    #[test]
    fn constants_and_padding() {
        let b = Builder::new("c", 4);
        let x = b.input("x");
        let k = b.constant(vec![10.0, 20.0]);
        let s = x + k;
        let p = b.finish(vec![s]);
        let out = execute(&p, &inputs(&[("x", vec![1.0])]));
        assert_eq!(out[0], vec![11.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn missing_input_panics() {
        let b = Builder::new("m", 2);
        let x = b.input("x");
        let p = b.finish(vec![x]);
        let _ = execute(&p, &HashMap::new());
    }
}
