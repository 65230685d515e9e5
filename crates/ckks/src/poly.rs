//! RNS polynomials: elements of `Z_Q[X]/(X^N+1)` in residue representation.

use rand::Rng;

use crate::context::CkksContext;
use crate::modular::Modulus;
use crate::ntt::{bit_reverse, NttTable};
use crate::pool::PolyPool;

/// A polynomial in RNS form: one residue vector (length `N`) per active
/// modulus. The active basis is the first `level` chain primes, optionally
/// extended by the special prime `P` (used only inside key switching).
///
/// `ntt` records whether limbs are in the transform (evaluation) domain.
/// Ciphertext polys are kept in NTT domain, like SEAL, so additions and
/// multiplications are pointwise and `rescale` pays domain-conversion
/// costs — reproducing Table 3's latency shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RnsPoly {
    level: usize,
    special: bool,
    ntt: bool,
    limbs: Vec<Vec<u64>>,
}

impl RnsPoly {
    /// The all-zero polynomial over the given basis and domain.
    pub fn zero(ctx: &CkksContext, level: usize, special: bool, ntt: bool) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        let n = ctx.degree();
        let count = level + usize::from(special);
        RnsPoly {
            level,
            special,
            ntt,
            limbs: vec![vec![0u64; n]; count],
        }
    }

    /// The all-zero polynomial with limb buffers checked out of `pool`
    /// instead of freshly allocated — the hot-path twin of
    /// [`RnsPoly::zero`], which stays allocation-honest for the reference
    /// kernels.
    pub fn zero_in(
        pool: &PolyPool,
        ctx: &CkksContext,
        level: usize,
        special: bool,
        ntt: bool,
    ) -> Self {
        assert!(level >= 1 && level <= ctx.max_level(), "level out of range");
        assert_eq!(pool.degree(), ctx.degree(), "pool sized for this context");
        let count = level + usize::from(special);
        RnsPoly {
            level,
            special,
            ntt,
            limbs: pool.take_zeroed(count),
        }
    }

    /// A deep copy whose limb buffers come from `pool`.
    pub fn clone_in(&self, pool: &PolyPool) -> Self {
        let mut limbs = pool.take_raw(self.limbs.len());
        for (dst, src) in limbs.iter_mut().zip(&self.limbs) {
            dst.copy_from_slice(src);
        }
        RnsPoly {
            level: self.level,
            special: self.special,
            ntt: self.ntt,
            limbs,
        }
    }

    /// A pooled copy of the first `level` chain limbs, without the special
    /// limb (`modswitch`'s core): [`RnsPoly::clone_in`] then
    /// [`RnsPoly::drop_to_level`], but only the kept limbs are copied. The
    /// dropped limbs' buffers are still checked out and handed straight
    /// back, so the pool's hit and miss counts (which the runtime reports
    /// per op class, and `tests/golden/serial_exec.txt` records) match a
    /// full clone followed by a drop.
    pub fn clone_to_level_in(&self, level: usize, pool: &PolyPool) -> Self {
        assert!(level >= 1 && level <= self.level);
        let mut limbs = pool.take_raw(self.limbs.len());
        pool.put(limbs.drain(level..));
        for (dst, src) in limbs.iter_mut().zip(&self.limbs) {
            dst.copy_from_slice(src);
        }
        RnsPoly {
            level,
            special: false,
            ntt: self.ntt,
            limbs,
        }
    }

    /// Returns this polynomial's limb buffers to `pool`.
    pub fn recycle(self, pool: &PolyPool) {
        pool.put(self.limbs);
    }

    /// Heap bytes held by the limb buffers.
    pub fn byte_size(&self) -> usize {
        self.limbs.iter().map(|l| l.len() * 8).sum()
    }

    /// Number of active chain limbs.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether the special prime limb is attached.
    pub fn has_special(&self) -> bool {
        self.special
    }

    /// Whether the limbs are in NTT domain.
    pub fn is_ntt(&self) -> bool {
        self.ntt
    }

    /// The residues for chain limb `i`.
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// Mutable access to the residues for chain limb `i`.
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.limbs[i]
    }

    /// The special-prime limb.
    ///
    /// # Panics
    ///
    /// Panics if the poly has no special limb.
    pub fn special_limb(&self) -> &[u64] {
        assert!(self.special);
        self.limbs.last().expect("special limb present")
    }

    /// Mutable access to the special-prime limb.
    ///
    /// # Panics
    ///
    /// Panics if the poly has no special limb.
    pub fn special_limb_mut(&mut self) -> &mut [u64] {
        assert!(self.special);
        self.limbs.last_mut().expect("special limb present")
    }

    fn modulus_of(&self, ctx: &CkksContext, idx: usize) -> Modulus {
        if self.special && idx == self.limbs.len() - 1 {
            ctx.special()
        } else {
            ctx.moduli()[idx]
        }
    }

    /// Modulus for limb `idx` of a poly with `count` limbs, the last of
    /// which is the special prime iff `special` — the borrow-free twin of
    /// [`RnsPoly::modulus_of`] for use inside per-limb loops that hold
    /// `&mut` on the limb storage.
    fn modulus_at(ctx: &CkksContext, special: bool, count: usize, idx: usize) -> Modulus {
        if special && idx == count - 1 {
            ctx.special()
        } else {
            ctx.moduli()[idx]
        }
    }

    /// NTT table for limb `idx`; companion of [`RnsPoly::modulus_at`].
    fn table_at(ctx: &CkksContext, special: bool, count: usize, idx: usize) -> &NttTable {
        if special && idx == count - 1 {
            ctx.special_table()
        } else {
            ctx.table(idx)
        }
    }

    /// Builds a polynomial from signed coefficients (applied to every active
    /// modulus), in coefficient domain.
    pub fn from_signed_coeffs(
        ctx: &CkksContext,
        level: usize,
        special: bool,
        coeffs: &[i64],
    ) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let mut p = RnsPoly::zero(ctx, level, special, false);
        for idx in 0..p.limbs.len() {
            let m = p.modulus_of(ctx, idx);
            for (slot, &c) in p.limbs[idx].iter_mut().zip(coeffs) {
                *slot = m.reduce_i64(c);
            }
        }
        p
    }

    /// Builds a polynomial from real coefficients (rounded; magnitudes may
    /// exceed `2^63`), in coefficient domain.
    pub fn from_real_coeffs(
        ctx: &CkksContext,
        level: usize,
        special: bool,
        coeffs: &[f64],
    ) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let mut p = RnsPoly::zero(ctx, level, special, false);
        for idx in 0..p.limbs.len() {
            let m = p.modulus_of(ctx, idx);
            for (slot, &c) in p.limbs[idx].iter_mut().zip(coeffs) {
                *slot = m.reduce_f64(c.round());
            }
        }
        p
    }

    /// Uniformly random polynomial over the basis (NTT domain — uniform in
    /// either domain).
    pub fn uniform(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        let mut p = RnsPoly::zero(ctx, level, special, true);
        for idx in 0..p.limbs.len() {
            let m = p.modulus_of(ctx, idx);
            for slot in p.limbs[idx].iter_mut() {
                *slot = rng.gen_range(0..m.value());
            }
        }
        p
    }

    /// Random ternary polynomial (coefficients in {−1, 0, 1}), coefficient
    /// domain. Used for secret keys and encryption randomness.
    pub fn ternary(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        let coeffs: Vec<i64> = (0..ctx.degree()).map(|_| rng.gen_range(-1..=1)).collect();
        Self::from_signed_coeffs(ctx, level, special, &coeffs)
    }

    /// Random error polynomial with centered Gaussian coefficients of the
    /// context's standard deviation, coefficient domain.
    pub fn gaussian(ctx: &CkksContext, level: usize, special: bool, rng: &mut impl Rng) -> Self {
        let std = ctx.params().error_std;
        let coeffs: Vec<i64> = (0..ctx.degree())
            .map(|_| {
                // Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                ((-2.0 * u1.ln()).sqrt() * u2.cos() * std).round() as i64
            })
            .collect();
        Self::from_signed_coeffs(ctx, level, special, &coeffs)
    }

    /// Converts to NTT domain (no-op if already there).
    pub fn to_ntt(&mut self, ctx: &CkksContext) {
        if self.ntt {
            return;
        }
        let (special, count) = (self.special, self.limbs.len());
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            Self::table_at(ctx, special, count, idx).forward(limb);
        }
        self.ntt = true;
    }

    /// Converts to coefficient domain (no-op if already there).
    pub fn to_coeff(&mut self, ctx: &CkksContext) {
        if !self.ntt {
            return;
        }
        let (special, count) = (self.special, self.limbs.len());
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            Self::table_at(ctx, special, count, idx).inverse(limb);
        }
        self.ntt = false;
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.special, other.special, "basis mismatch");
        assert_eq!(self.ntt, other.ntt, "domain mismatch");
    }

    /// `self += other` (same basis and domain).
    pub fn add_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for (a, &b) in self.limbs[idx].iter_mut().zip(&other.limbs[idx]) {
                *a = m.add(*a, b);
            }
        }
    }

    /// `self -= other` (same basis and domain).
    pub fn sub_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for (a, &b) in self.limbs[idx].iter_mut().zip(&other.limbs[idx]) {
                *a = m.sub(*a, b);
            }
        }
    }

    /// `self *= m` for a scalar `m` (domain-agnostic: a scalar commutes
    /// with the NTT).
    pub fn mul_scalar_assign(&mut self, ctx: &CkksContext, scalar: u64) {
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            let s = m.reduce(scalar);
            let s_shoup = m.shoup(s);
            for a in self.limbs[idx].iter_mut() {
                *a = m.mul_shoup(*a, s, s_shoup);
            }
        }
    }

    /// `self = −self`.
    pub fn neg_assign(&mut self, ctx: &CkksContext) {
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            for a in self.limbs[idx].iter_mut() {
                *a = m.neg(*a);
            }
        }
    }

    /// Pointwise product (both operands in NTT domain, same basis).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn mul(&self, ctx: &CkksContext, other: &RnsPoly) -> RnsPoly {
        self.check_compatible(other);
        assert!(self.ntt, "polynomial product requires NTT domain");
        let mut out = self.clone();
        let (special, count) = (out.special, out.limbs.len());
        for (idx, limb) in out.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, special, count, idx);
            for (a, &b) in limb.iter_mut().zip(&other.limbs[idx]) {
                *a = m.mul(*a, b);
            }
        }
        out
    }

    /// Pointwise `self ∘= other` (both NTT, same basis) — the in-place
    /// twin of [`RnsPoly::mul`] used by the pooled evaluator paths to
    /// avoid materializing a product polynomial.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn mul_assign(&mut self, ctx: &CkksContext, other: &RnsPoly) {
        self.check_compatible(other);
        assert!(self.ntt, "polynomial product requires NTT domain");
        let (special, count) = (self.special, self.limbs.len());
        for (idx, limb) in self.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, special, count, idx);
            for (a, &b) in limb.iter_mut().zip(&other.limbs[idx]) {
                *a = m.mul(*a, b);
            }
        }
    }

    /// `self · other` accumulated into `acc` (`acc += self ∘ other`),
    /// fused into a single pass per limb — no temporary product polynomial
    /// is materialized.
    pub fn mul_acc(&self, ctx: &CkksContext, other: &RnsPoly, acc: &mut RnsPoly) {
        self.check_compatible(other);
        self.check_compatible(acc);
        assert!(self.ntt, "polynomial product requires NTT domain");
        let (special, count) = (acc.special, acc.limbs.len());
        for (idx, limb) in acc.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, special, count, idx);
            for ((a, &x), &y) in limb.iter_mut().zip(&self.limbs[idx]).zip(&other.limbs[idx]) {
                *a = m.add(*a, m.mul(x, y));
            }
        }
    }

    /// Like [`RnsPoly::mul_acc`], with `key` a full-basis key polynomial
    /// (all `L` chain limbs plus `P`): `self`'s chain limbs pair with
    /// `key`'s first limbs and `self`'s special limb with `key`'s last.
    /// This lets key switching skip the per-digit
    /// [`RnsPoly::restrict_for_keyswitch`] clone of every key polynomial.
    pub fn mul_acc_restricted(&self, ctx: &CkksContext, key: &RnsPoly, acc: &mut RnsPoly) {
        self.check_compatible(acc);
        assert!(
            self.ntt && key.ntt,
            "polynomial product requires NTT domain"
        );
        assert!(
            self.special && key.special,
            "key switching runs on the extended basis"
        );
        assert_eq!(key.level, ctx.max_level(), "key polys carry the full basis");
        assert!(self.level <= key.level);
        let (special, count) = (acc.special, acc.limbs.len());
        for (idx, limb) in acc.limbs.iter_mut().enumerate() {
            let m = Self::modulus_at(ctx, special, count, idx);
            let key_limb = if special && idx == count - 1 {
                key.limbs.last().expect("special limb")
            } else {
                &key.limbs[idx]
            };
            for ((a, &x), &y) in limb.iter_mut().zip(&self.limbs[idx]).zip(key_limb) {
                *a = m.add(*a, m.mul(x, y));
            }
        }
    }

    /// Drops the basis down to `new_level` chain limbs (and drops the
    /// special limb if present) **without** scaling — this is `modswitch`'s
    /// core, and is also used to align key limbs with a ciphertext's basis.
    pub fn drop_to_level(&mut self, new_level: usize) {
        assert!(new_level >= 1 && new_level <= self.level);
        self.limbs.truncate(new_level);
        self.level = new_level;
        self.special = false;
    }

    /// Restricts a full-basis key polynomial to the first `level` chain
    /// limbs plus the special limb (key polys always carry `P`).
    pub fn restrict_for_keyswitch(&self, level: usize) -> RnsPoly {
        assert!(self.special, "key polynomials carry the special limb");
        assert!(level <= self.level);
        let mut limbs: Vec<Vec<u64>> = self.limbs[..level].to_vec();
        limbs.push(self.limbs.last().expect("special limb").clone());
        RnsPoly {
            level,
            special: true,
            ntt: self.ntt,
            limbs,
        }
    }

    /// Exact RNS rescale: divides by the last chain prime `q_{l-1}` with
    /// rounding, dropping one level. Input and output in NTT domain.
    ///
    /// Computes `(x − [x]_{q_last}) · q_last^{-1} mod q_i` per remaining limb.
    ///
    /// # Panics
    ///
    /// Panics if the poly is at level 1, carries the special limb, or is in
    /// coefficient domain.
    pub fn rescale_last(&mut self, ctx: &CkksContext) {
        self.rescale_last_impl(ctx, None);
    }

    /// [`RnsPoly::rescale_last`] with the dropped limb buffer returned to
    /// `pool` instead of freed.
    pub fn rescale_last_in(&mut self, ctx: &CkksContext, pool: &PolyPool) {
        self.rescale_last_impl(ctx, Some(pool));
    }

    fn rescale_last_impl(&mut self, ctx: &CkksContext, pool: Option<&PolyPool>) {
        assert!(self.level >= 2, "cannot rescale below level 1");
        assert!(!self.special, "rescale before dropping the special limb");
        assert!(self.ntt, "ciphertext polys live in NTT domain");
        let j = self.level - 1;
        // Bring the dropped limb to coefficient domain to read residues.
        let mut last = self.limbs.pop().expect("limb");
        ctx.table(j).inverse(&mut last);
        let qj = ctx.moduli()[j];
        let half = qj.value() / 2;
        let mut corr = Vec::with_capacity(last.len());
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let mi = ctx.moduli()[i];
            // Centered lift of [x]_{q_j} reduced mod q_i, then NTT under
            // q_i (built in one scratch buffer reused across limbs).
            corr.clear();
            corr.extend(last.iter().map(|&v| {
                // center to (−q_j/2, q_j/2] to keep the subtraction small
                if v > half {
                    mi.sub(0, mi.reduce(qj.value() - v))
                } else {
                    mi.reduce(v)
                }
            }));
            ctx.table(i).forward(&mut corr);
            let (inv, inv_shoup) = ctx.rescale_inv(j, i);
            for (a, &c) in limb.iter_mut().zip(&corr) {
                *a = mi.mul_shoup(mi.sub(*a, c), inv, inv_shoup);
            }
        }
        if let Some(pool) = pool {
            pool.put([last]);
        }
        self.level = j;
    }

    /// Divides by the special prime `P` with rounding, dropping the special
    /// limb (the final step of key switching). Input NTT, output NTT.
    ///
    /// # Panics
    ///
    /// Panics if the poly lacks the special limb or is in coefficient domain.
    pub fn rescale_special(&mut self, ctx: &CkksContext) {
        self.rescale_special_impl(ctx, None);
    }

    /// [`RnsPoly::rescale_special`] with the dropped limb buffer returned
    /// to `pool` instead of freed.
    pub fn rescale_special_in(&mut self, ctx: &CkksContext, pool: &PolyPool) {
        self.rescale_special_impl(ctx, Some(pool));
    }

    fn rescale_special_impl(&mut self, ctx: &CkksContext, pool: Option<&PolyPool>) {
        assert!(self.special, "no special limb to drop");
        assert!(self.ntt, "ciphertext polys live in NTT domain");
        let mut last = self.limbs.pop().expect("limb");
        ctx.special_table().inverse(&mut last);
        let p = ctx.special();
        let half = p.value() / 2;
        let mut corr = Vec::with_capacity(last.len());
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let mi = ctx.moduli()[i];
            corr.clear();
            corr.extend(last.iter().map(|&v| {
                if v > half {
                    mi.sub(0, mi.reduce(p.value() - v))
                } else {
                    mi.reduce(v)
                }
            }));
            ctx.table(i).forward(&mut corr);
            let (inv, inv_shoup) = ctx.special_inv(i);
            for (a, &c) in limb.iter_mut().zip(&corr) {
                *a = mi.mul_shoup(mi.sub(*a, c), inv, inv_shoup);
            }
        }
        if let Some(pool) = pool {
            pool.put([last]);
        }
        self.special = false;
    }

    /// Applies the Galois automorphism `X ↦ X^g` (odd `g`) in the current
    /// domain, without a transform: a slot permutation
    /// ([`galois_ntt_index`]) in NTT domain, a signed coefficient
    /// permutation in coefficient domain.
    pub fn automorphism(&mut self, ctx: &CkksContext, g: usize) {
        if self.ntt {
            self.automorphism_impl(&galois_ntt_index(ctx.degree(), g), None);
        } else {
            self.permute_coeffs(ctx, g);
        }
    }

    /// The NTT-domain automorphism for the index table `index` of
    /// [`galois_ntt_index`], with the per-limb target buffers checked out
    /// of `pool` and the replaced source buffers returned to it. One table
    /// serves every limb and every polynomial rotated by the same `g`.
    ///
    /// # Panics
    ///
    /// Panics if the poly is in coefficient domain or `index` is not of
    /// length `N`.
    pub fn automorphism_in(&mut self, index: &[u32], pool: &PolyPool) {
        self.automorphism_impl(index, Some(pool));
    }

    fn automorphism_impl(&mut self, index: &[u32], pool: Option<&PolyPool>) {
        assert!(self.ntt, "the Galois index table permutes NTT slots");
        for limb in &mut self.limbs {
            assert_eq!(index.len(), limb.len(), "index table sized for N");
            // `index` is a permutation, so every slot of `dst` is written
            // exactly once and an unzeroed pooled buffer is safe.
            let mut dst = match pool {
                Some(p) => p.take_raw(1).pop().expect("one buffer"),
                None => vec![0u64; limb.len()],
            };
            for (d, &src) in dst.iter_mut().zip(index) {
                *d = limb[src as usize];
            }
            let old = std::mem::replace(limb, dst);
            if let Some(p) = pool {
                p.put([old]);
            }
        }
    }

    /// The automorphism through the coefficient domain: inverse NTT,
    /// signed coefficient permutation, forward NTT (preserving the input
    /// domain). Kept as the oracle for the NTT-slot permutation.
    pub fn automorphism_reference(&mut self, ctx: &CkksContext, g: usize) {
        let was_ntt = self.ntt;
        self.to_coeff(ctx);
        self.permute_coeffs(ctx, g);
        if was_ntt {
            self.to_ntt(ctx);
        }
    }

    /// `X ↦ X^g` on coefficients: coefficient `i` moves to `i·g mod 2N`,
    /// negated when that wraps past `N` (`X^N = −1`).
    fn permute_coeffs(&mut self, ctx: &CkksContext, g: usize) {
        let n = ctx.degree();
        assert!(g % 2 == 1, "Galois element must be odd");
        assert!(
            !self.ntt,
            "coefficient permutation needs coefficient domain"
        );
        for idx in 0..self.limbs.len() {
            let m = self.modulus_of(ctx, idx);
            // For odd g the map i ↦ (i·g mod 2N) folded into 0..N is a
            // bijection, so every slot of `dst` is written exactly once.
            let mut dst = vec![0u64; n];
            for (i, &coeff) in self.limbs[idx].iter().enumerate() {
                let target = (i * g) % (2 * n);
                if target < n {
                    dst[target] = coeff;
                } else {
                    dst[target - n] = m.neg(coeff);
                }
            }
            self.limbs[idx] = dst;
        }
    }

    /// The exact residues of coefficient `k` across the chain limbs
    /// (coefficient domain required).
    pub fn coeff_residues(&self, k: usize) -> Vec<u64> {
        assert!(!self.ntt, "need coefficient domain");
        self.limbs[..self.level].iter().map(|l| l[k]).collect()
    }
}

/// The NTT-domain index table of the Galois automorphism `X ↦ X^g` at
/// degree `n`: the automorphism maps NTT slots as `out[i] = in[index[i]]`.
///
/// The forward NTT leaves slot `i` holding `a(ψ^(2·brv(i)+1))` (`ψ` the
/// prime's primitive 2N-th root, `brv` the bit reversal of `log2 n` bits),
/// and `a(X^g)` evaluated there is `a(ψ^((2·brv(i)+1)·g mod 2N))`, another
/// slot of the same transform. The table depends only on `n` and `g`, not
/// on the prime, so one `u32` table serves every limb.
///
/// # Panics
///
/// Panics if `n` is not a power of two `≥ 2` or `g` is even.
pub fn galois_ntt_index(n: usize, g: usize) -> Vec<u32> {
    assert!(
        n.is_power_of_two() && n >= 2,
        "degree must be a power of two >= 2"
    );
    assert!(g % 2 == 1, "Galois element must be odd");
    let log_n = n.trailing_zeros();
    // Exponents live mod 2N, a power of two: a mask, not a division.
    let mask = 2 * n - 1;
    let g = g & mask;
    (0..n)
        .map(|i| {
            let exp = ((2 * bit_reverse(i, log_n) + 1) * g) & mask;
            bit_reverse(exp >> 1, log_n) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 64,
            max_level: 3,
            modulus_bits: 40,
            special_bits: 41,
            error_std: 3.2,
        })
    }

    #[test]
    fn ntt_roundtrip_preserves_poly() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let orig = p.clone();
        p.to_coeff(&ctx);
        p.to_ntt(&ctx);
        assert_eq!(p, orig);
    }

    #[test]
    fn add_neg_cancels() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let p = RnsPoly::uniform(&ctx, 3, true, &mut rng);
        let mut q = p.clone();
        q.neg_assign(&ctx);
        q.add_assign(&ctx, &p);
        assert_eq!(q, RnsPoly::zero(&ctx, 3, true, true));
    }

    #[test]
    fn mul_matches_coefficient_convolution() {
        let ctx = tiny_ctx();
        // (1 + X) · (1 − X) = 1 − X².
        let mut a = vec![0i64; 64];
        a[0] = 1;
        a[1] = 1;
        let mut b = vec![0i64; 64];
        b[0] = 1;
        b[1] = -1;
        let mut pa = RnsPoly::from_signed_coeffs(&ctx, 1, false, &a);
        let mut pb = RnsPoly::from_signed_coeffs(&ctx, 1, false, &b);
        pa.to_ntt(&ctx);
        pb.to_ntt(&ctx);
        let mut prod = pa.mul(&ctx, &pb);
        prod.to_coeff(&ctx);
        let m = ctx.moduli()[0];
        assert_eq!(prod.limb(0)[0], 1);
        assert_eq!(prod.limb(0)[1], 0);
        assert_eq!(prod.limb(0)[2], m.neg(1));
    }

    #[test]
    fn mul_scalar_matches_per_coefficient_multiply() {
        let ctx = tiny_ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| (i as i64 % 17) - 8).collect();
        let mut p = RnsPoly::from_signed_coeffs(&ctx, 2, false, &coeffs);
        p.mul_scalar_assign(&ctx, 12345);
        for (i, &c) in coeffs.iter().enumerate() {
            for limb in 0..2 {
                let m = ctx.moduli()[limb];
                assert_eq!(
                    m.center(p.limb(limb)[i]),
                    c * 12345,
                    "limb {limb} coefficient {i}"
                );
            }
        }
        // A scalar commutes with the NTT: multiplying in evaluation form
        // then returning to coefficients gives the same polynomial.
        let mut q = RnsPoly::from_signed_coeffs(&ctx, 2, false, &coeffs);
        q.to_ntt(&ctx);
        q.mul_scalar_assign(&ctx, 12345);
        q.to_coeff(&ctx);
        assert_eq!(q, p);
    }

    #[test]
    fn rescale_divides_by_dropped_prime() {
        let ctx = tiny_ctx();
        // Constant polynomial with value q_1 · 12345 rescales to ≈ 12345.
        let q1 = ctx.moduli()[1].value();
        let v = q1 as f64 * 12345.0;
        let coeffs: Vec<f64> = std::iter::once(v)
            .chain(std::iter::repeat(0.0))
            .take(64)
            .collect();
        let mut p = RnsPoly::from_real_coeffs(&ctx, 2, false, &coeffs);
        p.to_ntt(&ctx);
        p.rescale_last(&ctx);
        p.to_coeff(&ctx);
        assert_eq!(p.level(), 1);
        let got = ctx.moduli()[0].center(p.limb(0)[0]);
        assert!((got - 12345).abs() <= 1, "rescale rounding off by {got}");
    }

    #[test]
    fn automorphism_identity_and_inverse() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let p = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let mut q = p.clone();
        q.automorphism(&ctx, 1);
        assert_eq!(q, p);
        // g · g⁻¹ ≡ 1 (mod 2N): applying both returns the original.
        let n2 = 2 * ctx.degree();
        let g = 5usize;
        // Find inverse of 5 mod 128.
        let g_inv = (1..n2).step_by(2).find(|&h| (g * h) % n2 == 1).unwrap();
        let mut r = p.clone();
        r.automorphism(&ctx, g);
        r.automorphism(&ctx, g_inv);
        assert_eq!(r, p);
    }

    #[test]
    fn automorphism_cubes_monomial_with_sign() {
        let ctx = tiny_ctx();
        let n = ctx.degree();
        // p = X^(N−1); X ↦ X^3 gives X^(3N−3) = X^(2N) · X^(N−3) = X^(N−3)
        // (X^N ≡ −1 twice cancels) — check sign bookkeeping.
        let mut coeffs = vec![0i64; n];
        coeffs[n - 1] = 1;
        let mut p = RnsPoly::from_signed_coeffs(&ctx, 1, false, &coeffs);
        p.automorphism(&ctx, 3);
        let m = ctx.moduli()[0];
        for (i, &c) in p.limb(0).iter().enumerate() {
            if i == n - 3 {
                assert_eq!(c, 1, "X^(N−3) coefficient");
            } else {
                assert_eq!(m.center(c), 0, "coefficient {i}");
            }
        }
    }

    #[test]
    fn ntt_automorphism_matches_coefficient_reference() {
        let ctx = tiny_ctx();
        let n2 = 2 * ctx.degree();
        let pool = PolyPool::new(ctx.degree());
        let mut rng = StdRng::seed_from_u64(9);
        // Random odd elements plus the extremes: identity, the rotation
        // generator 5 and conjugation 2N − 1.
        let mut elements = vec![1usize, 5, n2 - 1];
        elements.extend((0..12).map(|_| 2 * rng.gen_range(0..n2 / 2) + 1));
        for g in elements {
            for special in [false, true] {
                let p = RnsPoly::uniform(&ctx, 2, special, &mut rng);
                let mut expect = p.clone();
                expect.automorphism_reference(&ctx, g);
                let mut unpooled = p.clone();
                unpooled.automorphism(&ctx, g);
                assert_eq!(unpooled, expect, "g={g} special={special} unpooled");
                let mut pooled = p.clone_in(&pool);
                pooled.automorphism_in(&galois_ntt_index(ctx.degree(), g), &pool);
                assert_eq!(pooled, expect, "g={g} special={special} pooled");
                pooled.recycle(&pool);
                // Coefficient-domain input permutes coefficients directly.
                let mut coeff = p.clone();
                coeff.to_coeff(&ctx);
                let mut coeff_expect = expect.clone();
                coeff_expect.to_coeff(&ctx);
                coeff.automorphism(&ctx, g);
                assert_eq!(coeff, coeff_expect, "g={g} special={special} coeff");
            }
        }
    }

    #[test]
    fn galois_ntt_index_is_a_permutation() {
        for log_n in 1..=13u32 {
            let n = 1usize << log_n;
            for g in [1usize, 3, 5, 2 * n - 1] {
                let mut seen = vec![false; n];
                for &i in &galois_ntt_index(n, g) {
                    assert!(!seen[i as usize], "n={n} g={g}: slot {i} twice");
                    seen[i as usize] = true;
                }
            }
        }
    }

    #[test]
    fn mul_acc_is_fused_and_allocation_free() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let a = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let b = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        let mut acc = RnsPoly::uniform(&ctx, 2, false, &mut rng);
        // Reference: materialize the product, then add.
        let mut expect = acc.clone();
        expect.add_assign(&ctx, &a.mul(&ctx, &b));
        // The fused path must write into the existing limb storage — record
        // each limb's data pointer and capacity and check nothing moved.
        let before: Vec<(*const u64, usize)> = (0..acc.limbs.len())
            .map(|i| (acc.limbs[i].as_ptr(), acc.limbs[i].capacity()))
            .collect();
        a.mul_acc(&ctx, &b, &mut acc);
        let after: Vec<(*const u64, usize)> = (0..acc.limbs.len())
            .map(|i| (acc.limbs[i].as_ptr(), acc.limbs[i].capacity()))
            .collect();
        assert_eq!(acc, expect, "fused mul_acc result");
        assert_eq!(before, after, "mul_acc reallocated limb storage");
    }

    #[test]
    fn mul_acc_restricted_matches_restrict_then_mul_acc() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(8);
        // Key poly on the full basis (all L chain limbs + P); operand and
        // accumulator on a lower level plus the special limb.
        let key = RnsPoly::uniform(&ctx, 3, true, &mut rng);
        let x = RnsPoly::uniform(&ctx, 2, true, &mut rng);
        let mut direct = RnsPoly::uniform(&ctx, 2, true, &mut rng);
        let mut via_restrict = direct.clone();
        x.mul_acc(&ctx, &key.restrict_for_keyswitch(2), &mut via_restrict);
        x.mul_acc_restricted(&ctx, &key, &mut direct);
        assert_eq!(direct, via_restrict);
    }

    #[test]
    fn restrict_keeps_special_limb() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let p = RnsPoly::uniform(&ctx, 3, true, &mut rng);
        let r = p.restrict_for_keyswitch(2);
        assert_eq!(r.level(), 2);
        assert!(r.has_special());
        assert_eq!(r.special_limb(), p.special_limb());
        assert_eq!(r.limb(1), p.limb(1));
    }

    #[test]
    fn gaussian_coeffs_are_small() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let p = RnsPoly::gaussian(&ctx, 1, false, &mut rng);
        let m = ctx.moduli()[0];
        for &c in p.limb(0) {
            assert!(m.center(c).abs() < 40, "gaussian sample too large");
        }
    }
}
