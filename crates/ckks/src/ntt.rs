//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! Standard iterative Cooley–Tukey (forward, bit-reversed output) and
//! Gentleman–Sande (inverse) butterflies with the 2N-th root-of-unity twist
//! folded into the twiddle factors, so polynomial multiplication modulo
//! `X^N + 1` is pointwise in the transform domain.
//!
//! The hot kernels are Harvey butterflies: every twiddle carries a Shoup
//! precomputed quotient, products are two word multiplications, and values
//! stay *lazily* reduced — in `[0, 4q)` through the forward stages and
//! `[0, 2q)` through the inverse stages — with a single normalization pass
//! at the end (`q < 2^62` guarantees 64-bit headroom; see DESIGN.md
//! § Kernel optimization). [`NttTable::forward_reference`] /
//! [`NttTable::inverse_reference`] keep the original exact-reduction
//! `u128 %` kernels as the oracle for property tests and the `kernels`
//! bench baseline.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::modular::Modulus;

/// Precomputed NTT tables for one prime and one power-of-two degree.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    /// ψ^bitrev(i) for the forward transform (ψ a primitive 2N-th root).
    fwd_twiddles: Vec<u64>,
    /// Shoup companions of `fwd_twiddles`.
    fwd_shoup: Vec<u64>,
    /// ψ^{-bitrev(i)} for the inverse transform.
    inv_twiddles: Vec<u64>,
    /// Shoup companions of `inv_twiddles`.
    inv_shoup: Vec<u64>,
    /// N^{-1} mod q.
    n_inv: u64,
    /// Shoup companion of `n_inv`.
    n_inv_shoup: u64,
    /// ψ^{-bitrev(1)} · N^{-1}: the last inverse stage's twiddle with the
    /// `1/N` normalization folded in, so the inverse needs no separate
    /// normalization pass.
    inv_last_tw: u64,
    /// Shoup companion of `inv_last_tw`.
    inv_last_tw_shoup: u64,
}

/// `i` with its low `log_n` bits reversed — the NTT's output order.
pub(crate) fn bit_reverse(i: usize, log_n: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - log_n)
}

/// Finds a primitive `order`-th root of unity modulo `q` by trial scan
/// (requires `order | q − 1`).
fn primitive_root_uncached(m: Modulus, order: u64) -> u64 {
    let q = m.value();
    assert_eq!((q - 1) % order, 0, "order must divide q-1");
    let cofactor = (q - 1) / order;
    // Try small candidates; g^cofactor is an order-th root, primitive iff
    // its (order/2)-th power is not 1.
    for g in 2..q {
        let root = m.pow(g, cofactor);
        if m.pow(root, order / 2) != 1 {
            return root;
        }
    }
    unreachable!("no primitive root found (q not prime?)");
}

/// Found generators per `(q, order)`. The trial scan costs two full `pow`
/// calls per candidate; contexts for long modulus chains (and tests, which
/// rebuild contexts constantly) hit the same primes repeatedly, so the
/// result is memoized process-wide.
static ROOT_CACHE: OnceLock<Mutex<HashMap<(u64, u64), u64>>> = OnceLock::new();

/// Cached front-end of [`primitive_root_uncached`].
fn primitive_root(m: Modulus, order: u64) -> u64 {
    let cache = ROOT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (m.value(), order);
    if let Some(&root) = cache.lock().expect("root cache lock").get(&key) {
        return root;
    }
    let root = primitive_root_uncached(m, order);
    cache.lock().expect("root cache lock").insert(key, root);
    root
}

impl NttTable {
    /// Builds tables for degree `n` (a power of two ≥ 2) and prime `q ≡ 1
    /// (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `q` is not NTT-friendly.
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "degree must be a power of two >= 2"
        );
        let log_n = n.trailing_zeros();
        let q = modulus.value();
        assert_eq!((q - 1) % (2 * n as u64), 0, "q must be 1 mod 2N");
        let psi = primitive_root(modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi);
        let mut fwd = vec![0u64; n];
        let mut inv = vec![0u64; n];
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        let mut powers_f = vec![0u64; n];
        let mut powers_i = vec![0u64; n];
        for i in 0..n {
            powers_f[i] = pow_f;
            powers_i[i] = pow_i;
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, psi_inv);
        }
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            fwd[i] = powers_f[r];
            inv[i] = powers_i[r];
        }
        let fwd_shoup = fwd.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_shoup = inv.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64);
        let n_inv_shoup = modulus.shoup(n_inv);
        let inv_last_tw = modulus.mul(inv[1], n_inv);
        let inv_last_tw_shoup = modulus.shoup(inv_last_tw);
        NttTable {
            modulus,
            n,
            fwd_twiddles: fwd,
            fwd_shoup,
            inv_twiddles: inv,
            inv_shoup,
            n_inv,
            n_inv_shoup,
            inv_last_tw,
            inv_last_tw_shoup,
        }
    }

    /// The polynomial degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The prime modulus.
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// In-place forward negacyclic NTT (natural input order → transform
    /// domain). Input residues must be `< q`; output residues are `< q`.
    ///
    /// Harvey butterflies: intermediate values live in `[0, 4q)` and are
    /// normalized once after the last stage.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = self.modulus;
        let q = m.value();
        let two_q = 2 * q;
        let mut t = self.n;
        let mut stage = 1usize;
        while stage < self.n {
            t >>= 1;
            let tw = self.fwd_twiddles[stage..2 * stage].iter();
            let tws = self.fwd_shoup[stage..2 * stage].iter();
            for ((block, &w), &ws) in a.chunks_exact_mut(2 * t).zip(tw).zip(tws) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // u ∈ [0, 4q) on entry; fold to [0, 2q).
                    let mut u = *x;
                    if u >= two_q {
                        u -= two_q;
                    }
                    // v ∈ [0, 2q) for any 64-bit input.
                    let v = m.mul_shoup_lazy(*y, w, ws);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            stage <<= 1;
        }
        for x in a.iter_mut() {
            let mut v = *x;
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            *x = v;
        }
    }

    /// In-place inverse negacyclic NTT (transform domain → natural order),
    /// including the `1/N` normalization. Input residues must be `< q`;
    /// output residues are `< q`.
    ///
    /// Harvey butterflies: intermediate values live in `[0, 2q)`; the `1/N`
    /// normalization is folded into the last stage's butterflies (both
    /// output branches multiply there, so scaling the twiddle by `N^{-1}`
    /// costs half a multiply per element instead of a separate full pass).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = self.modulus;
        let two_q = 2 * m.value();
        let mut t = 1usize;
        let mut stage = self.n >> 1;
        while stage > 1 {
            let tw = self.inv_twiddles[stage..2 * stage].iter();
            let tws = self.inv_shoup[stage..2 * stage].iter();
            for ((block, &w), &ws) in a.chunks_exact_mut(2 * t).zip(tw).zip(tws) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // u, v ∈ [0, 2q).
                    let u = *x;
                    let v = *y;
                    let mut s = u + v;
                    if s >= two_q {
                        s -= two_q;
                    }
                    *x = s;
                    *y = m.mul_shoup_lazy(u + two_q - v, w, ws);
                }
            }
            t <<= 1;
            stage >>= 1;
        }
        // Last stage (single twiddle): scale both branches by N^{-1} and
        // normalize into [0, q). u + v < 4q and q < 2^62, so the lazy sums
        // stay inside 64 bits.
        let (w, ws) = (self.inv_last_tw, self.inv_last_tw_shoup);
        let (lo, hi) = a.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *x;
            let v = *y;
            *x = m.mul_shoup(u + v, self.n_inv, self.n_inv_shoup);
            *y = m.mul_shoup(u + two_q - v, w, ws);
        }
    }

    /// The forward transform with exact (`u128 %`) reduction at every
    /// butterfly — the pre-optimization kernel, kept as the correctness
    /// oracle for the Harvey path and the `kernels` bench baseline.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = self.modulus;
        let mut t = self.n;
        let mut stage = 1usize;
        while stage < self.n {
            t >>= 1;
            for i in 0..stage {
                let w = self.fwd_twiddles[stage + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    let u = a[j];
                    let v = m.mul_reference(a[j + t], w);
                    a[j] = m.add(u, v);
                    a[j + t] = m.sub(u, v);
                }
            }
            stage <<= 1;
        }
    }

    /// The inverse transform with exact (`u128 %`) reduction at every
    /// butterfly — counterpart of [`NttTable::forward_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let m = self.modulus;
        let mut t = 1usize;
        let mut stage = self.n >> 1;
        while stage >= 1 {
            let mut base = 0usize;
            for i in 0..stage {
                let w = self.inv_twiddles[stage + i];
                for j in base..base + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = m.add(u, v);
                    a[j + t] = m.mul_reference(m.sub(u, v), w);
                }
                base += 2 * t;
            }
            t <<= 1;
            stage >>= 1;
        }
        for x in a.iter_mut() {
            *x = m.mul_reference(*x, self.n_inv);
        }
    }
}

/// Schoolbook negacyclic multiplication, used as the test oracle.
#[cfg(test)]
pub fn negacyclic_mul_naive(m: Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = m.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = m.add(out[k], prod);
            } else {
                out[k - n] = m.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> NttTable {
        let q = crate::primes::ntt_primes(55, n, 1)[0];
        NttTable::new(Modulus::new(q), n)
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(64);
        let m = t.modulus();
        let mut a: Vec<u64> = (0..64u64).map(|i| m.reduce(i * i + 7)).collect();
        let orig = a.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "transform must change the data");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_matches_naive_negacyclic() {
        let t = table(32);
        let m = t.modulus();
        let a: Vec<u64> = (0..32u64).map(|i| m.reduce(i + 1)).collect();
        let b: Vec<u64> = (0..32u64).map(|i| m.reduce(3 * i + 2)).collect();
        let expect = negacyclic_mul_naive(m, &a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn x_times_x_pow_n_minus_1_wraps_negatively() {
        // X · X^(N−1) = X^N ≡ −1 (mod X^N + 1).
        let n = 16;
        let t = table(n);
        let m = t.modulus();
        let mut a = vec![0u64; n];
        a[1] = 1; // X
        let mut b = vec![0u64; n];
        b[n - 1] = 1; // X^(N−1)
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut c);
        let mut expect = vec![0u64; n];
        expect[0] = m.neg(1);
        assert_eq!(c, expect);
    }

    #[test]
    fn large_degree_roundtrip() {
        let t = table(1 << 12);
        let m = t.modulus();
        let mut a: Vec<u64> = (0..(1u64 << 12))
            .map(|i| m.reduce(i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn harvey_matches_reference_kernels() {
        let t = table(256);
        let m = t.modulus();
        let mut a: Vec<u64> = (0..256u64)
            .map(|i| m.reduce(i.wrapping_mul(0xD1B54A32D192ED03)))
            .collect();
        let mut b = a.clone();
        t.forward(&mut a);
        t.forward_reference(&mut b);
        assert_eq!(a, b, "forward");
        t.inverse(&mut a);
        t.inverse_reference(&mut b);
        assert_eq!(a, b, "inverse");
    }

    #[test]
    fn primitive_root_cache_agrees_with_uncached() {
        let q = crate::primes::ntt_primes(50, 1 << 6, 1)[0];
        let m = Modulus::new(q);
        let order = 2 * (1 << 6) as u64;
        let direct = primitive_root_uncached(m, order);
        // First call populates the cache, second hits it; both must agree
        // with the direct scan.
        assert_eq!(primitive_root(m, order), direct);
        assert_eq!(primitive_root(m, order), direct);
    }
}
