//! Binary (de)serialization of ciphertexts and plaintexts.
//!
//! In a deployed privacy-preserving service the client encrypts inputs and
//! ships them to the evaluation server; this module provides the wire
//! format (little-endian, versioned, length-checked).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::cipher::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Plaintext;
use crate::keys::{GaloisKeys, KswKey, RelinKey, SecretKey};
use crate::poly::RnsPoly;

const MAGIC: u32 = 0x52_4E_53_43; // "RNSC"
const VERSION: u8 = 1;

/// A malformed or incompatible serialized blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(msg.into()))
}

fn put_poly(buf: &mut BytesMut, poly: &RnsPoly, n: usize) {
    buf.put_u32_le(poly.level() as u32);
    buf.put_u8(u8::from(poly.has_special()));
    buf.put_u8(u8::from(poly.is_ntt()));
    for i in 0..poly.level() {
        for &v in poly.limb(i) {
            buf.put_u64_le(v);
        }
    }
    if poly.has_special() {
        for &v in poly.special_limb() {
            buf.put_u64_le(v);
        }
    }
    debug_assert_eq!(poly.limb(0).len(), n);
}

fn get_poly(buf: &mut Bytes, ctx: &CkksContext) -> Result<RnsPoly, DecodeError> {
    if buf.remaining() < 6 {
        return err("truncated polynomial header");
    }
    let level = buf.get_u32_le() as usize;
    let special = buf.get_u8() != 0;
    let ntt = buf.get_u8() != 0;
    if level == 0 || level > ctx.max_level() {
        return err(format!("level {level} out of range"));
    }
    let n = ctx.degree();
    let limbs = level + usize::from(special);
    if buf.remaining() < limbs * n * 8 {
        return err("truncated polynomial body");
    }
    let mut poly = RnsPoly::zero(ctx, level, special, ntt);
    for i in 0..level {
        let modulus = ctx.moduli()[i].value();
        for v in poly.limb_mut(i) {
            let raw = buf.get_u64_le();
            if raw >= modulus {
                return err(format!("residue {raw} not reduced mod {modulus}"));
            }
            *v = raw;
        }
    }
    if special {
        let modulus = ctx.special().value();
        for v in poly.special_limb_mut() {
            let raw = buf.get_u64_le();
            if raw >= modulus {
                return err(format!("special residue {raw} not reduced mod {modulus}"));
            }
            *v = raw;
        }
    }
    Ok(poly)
}

/// Serializes a ciphertext.
pub fn ciphertext_to_bytes(ctx: &CkksContext, ct: &Ciphertext) -> Bytes {
    let n = ctx.degree();
    let mut buf = BytesMut::with_capacity(16 + 2 * (ct.level + 1) * n * 8);
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(0); // kind: ciphertext
    buf.put_u32_le(n as u32);
    buf.put_f64_le(ct.scale);
    put_poly(&mut buf, &ct.c0, n);
    put_poly(&mut buf, &ct.c1, n);
    buf.freeze()
}

/// Deserializes a ciphertext.
///
/// # Errors
///
/// Fails on wrong magic/version, degree mismatch, truncation, or
/// unreduced residues.
pub fn ciphertext_from_bytes(ctx: &CkksContext, data: &[u8]) -> Result<Ciphertext, DecodeError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 18 {
        return err("truncated header");
    }
    if buf.get_u32_le() != MAGIC {
        return err("bad magic");
    }
    if buf.get_u8() != VERSION {
        return err("unsupported version");
    }
    if buf.get_u8() != 0 {
        return err("not a ciphertext blob");
    }
    if buf.get_u32_le() as usize != ctx.degree() {
        return err("polynomial degree mismatch");
    }
    let scale = buf.get_f64_le();
    if !(scale.is_finite() && scale > 0.0) {
        return err("invalid scale");
    }
    let c0 = get_poly(&mut buf, ctx)?;
    let c1 = get_poly(&mut buf, ctx)?;
    if c0.level() != c1.level() || c0.has_special() || c1.has_special() {
        return err("inconsistent ciphertext components");
    }
    let level = c0.level();
    Ok(Ciphertext {
        c0,
        c1,
        level,
        scale,
    })
}

/// Serializes a plaintext.
pub fn plaintext_to_bytes(ctx: &CkksContext, pt: &Plaintext) -> Bytes {
    let n = ctx.degree();
    let mut buf = BytesMut::with_capacity(16 + (pt.level + 1) * n * 8);
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(1); // kind: plaintext
    buf.put_u32_le(n as u32);
    buf.put_f64_le(pt.scale);
    put_poly(&mut buf, &pt.poly, n);
    buf.freeze()
}

/// Deserializes a plaintext.
///
/// # Errors
///
/// Fails on wrong magic/version, degree mismatch, truncation, or
/// unreduced residues.
pub fn plaintext_from_bytes(ctx: &CkksContext, data: &[u8]) -> Result<Plaintext, DecodeError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 18 {
        return err("truncated header");
    }
    if buf.get_u32_le() != MAGIC {
        return err("bad magic");
    }
    if buf.get_u8() != VERSION {
        return err("unsupported version");
    }
    if buf.get_u8() != 1 {
        return err("not a plaintext blob");
    }
    if buf.get_u32_le() as usize != ctx.degree() {
        return err("polynomial degree mismatch");
    }
    let scale = buf.get_f64_le();
    if !(scale.is_finite() && scale > 0.0) {
        return err("invalid scale");
    }
    let poly = get_poly(&mut buf, ctx)?;
    let level = poly.level();
    Ok(Plaintext { poly, scale, level })
}

/// Serializes a secret key. The key lives over the full `Q·P` basis in
/// NTT form; the blob is for client-side persistence — it must never
/// travel to the evaluation server.
pub fn secret_key_to_bytes(ctx: &CkksContext, sk: &SecretKey) -> Bytes {
    let n = ctx.degree();
    let mut buf = BytesMut::with_capacity(16 + (ctx.max_level() + 1) * n * 8);
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(2); // kind: secret key
    buf.put_u32_le(n as u32);
    put_poly(&mut buf, &sk.s, n);
    buf.freeze()
}

/// Deserializes a secret key.
///
/// # Errors
///
/// Fails on wrong magic/version/kind, degree mismatch, truncation,
/// unreduced residues, or a polynomial not over the full `Q·P` basis in
/// NTT form (any partial-basis key would decrypt nothing).
pub fn secret_key_from_bytes(ctx: &CkksContext, data: &[u8]) -> Result<SecretKey, DecodeError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 10 {
        return err("truncated header");
    }
    if buf.get_u32_le() != MAGIC {
        return err("bad magic");
    }
    if buf.get_u8() != VERSION {
        return err("unsupported version");
    }
    if buf.get_u8() != 2 {
        return err("not a secret-key blob");
    }
    if buf.get_u32_le() as usize != ctx.degree() {
        return err("polynomial degree mismatch");
    }
    let s = get_poly(&mut buf, ctx)?;
    if s.level() != ctx.max_level() || !s.has_special() || !s.is_ntt() {
        return err("secret key must cover the full Q·P basis in NTT form");
    }
    Ok(SecretKey { s })
}

fn put_ksw(buf: &mut BytesMut, key: &KswKey, n: usize) {
    buf.put_u32_le(key.k0.len() as u32);
    for p in &key.k0 {
        put_poly(buf, p, n);
    }
    for p in &key.k1 {
        put_poly(buf, p, n);
    }
}

fn get_ksw(buf: &mut Bytes, ctx: &CkksContext) -> Result<KswKey, DecodeError> {
    if buf.remaining() < 4 {
        return err("truncated key-switch key header");
    }
    let digits = buf.get_u32_le() as usize;
    if digits != ctx.max_level() {
        return err(format!(
            "key-switch key has {digits} digits, context needs {}",
            ctx.max_level()
        ));
    }
    let mut half = |name: &str| -> Result<Vec<RnsPoly>, DecodeError> {
        let mut polys = Vec::with_capacity(digits);
        for _ in 0..digits {
            let p = get_poly(buf, ctx)?;
            if p.level() != ctx.max_level() || !p.has_special() || !p.is_ntt() {
                return err(format!(
                    "{name} digit must cover the full Q·P basis in NTT form"
                ));
            }
            polys.push(p);
        }
        Ok(polys)
    };
    let k0 = half("k0")?;
    let k1 = half("k1")?;
    Ok(KswKey { k0, k1 })
}

/// Serializes a relinearization key. Evaluation keys are public material:
/// the server needs them to run cipher×cipher multiplications.
pub fn relin_key_to_bytes(ctx: &CkksContext, key: &RelinKey) -> Bytes {
    let n = ctx.degree();
    let mut buf = BytesMut::with_capacity(16 + key.byte_size());
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(3); // kind: relinearization key
    buf.put_u32_le(n as u32);
    put_ksw(&mut buf, &key.0, n);
    buf.freeze()
}

/// Deserializes a relinearization key.
///
/// # Errors
///
/// Fails on wrong magic/version/kind, degree mismatch, truncation,
/// unreduced residues, or key polynomials not over the full `Q·P` basis
/// in NTT form.
pub fn relin_key_from_bytes(ctx: &CkksContext, data: &[u8]) -> Result<RelinKey, DecodeError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 10 {
        return err("truncated header");
    }
    if buf.get_u32_le() != MAGIC {
        return err("bad magic");
    }
    if buf.get_u8() != VERSION {
        return err("unsupported version");
    }
    if buf.get_u8() != 3 {
        return err("not a relinearization-key blob");
    }
    if buf.get_u32_le() as usize != ctx.degree() {
        return err("polynomial degree mismatch");
    }
    Ok(RelinKey(get_ksw(&mut buf, ctx)?))
}

/// Serializes a Galois key set. Entries are written sorted by Galois
/// element so equal sets produce identical bytes.
pub fn galois_keys_to_bytes(ctx: &CkksContext, keys: &GaloisKeys) -> Bytes {
    let n = ctx.degree();
    let mut buf = BytesMut::with_capacity(16 + keys.byte_size());
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(4); // kind: Galois key set
    buf.put_u32_le(n as u32);
    let mut elements: Vec<usize> = keys.keys.keys().copied().collect();
    elements.sort_unstable();
    buf.put_u32_le(elements.len() as u32);
    for g in elements {
        buf.put_u64_le(g as u64);
        put_ksw(&mut buf, &keys.keys[&g], n);
    }
    buf.freeze()
}

/// Deserializes a Galois key set.
///
/// # Errors
///
/// Fails on wrong magic/version/kind, degree mismatch, truncation,
/// unreduced residues, an invalid or duplicate Galois element, or key
/// polynomials not over the full `Q·P` basis in NTT form.
pub fn galois_keys_from_bytes(ctx: &CkksContext, data: &[u8]) -> Result<GaloisKeys, DecodeError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 14 {
        return err("truncated header");
    }
    if buf.get_u32_le() != MAGIC {
        return err("bad magic");
    }
    if buf.get_u8() != VERSION {
        return err("unsupported version");
    }
    if buf.get_u8() != 4 {
        return err("not a Galois-key blob");
    }
    if buf.get_u32_le() as usize != ctx.degree() {
        return err("polynomial degree mismatch");
    }
    let count = buf.get_u32_le() as usize;
    let mut keys = std::collections::HashMap::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 8 {
            return err("truncated Galois element");
        }
        let g = buf.get_u64_le() as usize;
        // Valid automorphism exponents are odd and in (1, 2N).
        if g.is_multiple_of(2) || g <= 1 || g >= 2 * ctx.degree() {
            return err(format!("invalid Galois element {g}"));
        }
        let key = get_ksw(&mut buf, ctx)?;
        if keys.insert(g, key).is_some() {
            return err(format!("duplicate Galois element {g}"));
        }
    }
    Ok(GaloisKeys { keys })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::{decrypt, encrypt_symmetric};
    use crate::context::CkksParams;
    use crate::encoding::Encoder;
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams {
            poly_degree: 128,
            max_level: 2,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
        })
    }

    #[test]
    fn ciphertext_roundtrips_and_still_decrypts() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let enc = Encoder::new(&ctx);
        let values = vec![1.25, -0.5, 3.0];
        let pt = enc.encode(&values, 2f64.powi(30), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let blob = ciphertext_to_bytes(&ctx, &ct);
        let back = ciphertext_from_bytes(&ctx, &blob).expect("roundtrip");
        assert_eq!(back.level, ct.level);
        assert_eq!(back.scale, ct.scale);
        let decoded = enc.decode(&decrypt(&ctx, &sk, &back));
        assert!((decoded[0] - 1.25).abs() < 1e-4);
        assert!((decoded[2] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn plaintext_roundtrips() {
        let ctx = ctx();
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&[0.75; 10], 2f64.powi(25), 1);
        let blob = plaintext_to_bytes(&ctx, &pt);
        let back = plaintext_from_bytes(&ctx, &blob).expect("roundtrip");
        let decoded = enc.decode(&back);
        assert!((decoded[9] - 0.75).abs() < 1e-5);
        assert!(decoded[10].abs() < 1e-5);
    }

    #[test]
    fn secret_key_roundtrips_and_decrypts() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let blob = secret_key_to_bytes(&ctx, &sk);
        let back = secret_key_from_bytes(&ctx, &blob).expect("roundtrip");
        assert_eq!(back.s, sk.s);
        // The deserialized key decrypts a ciphertext made with the original.
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&[0.625, -1.5], 2f64.powi(30), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let decoded = enc.decode(&decrypt(&ctx, &back, &ct));
        assert!((decoded[0] - 0.625).abs() < 1e-4);
        assert!((decoded[1] + 1.5).abs() < 1e-4);
        // Kind bytes are checked: a key blob is not a ciphertext and vice
        // versa.
        assert!(ciphertext_from_bytes(&ctx, &blob).is_err());
        let cblob = ciphertext_to_bytes(&ctx, &ct);
        assert!(secret_key_from_bytes(&ctx, &cblob).is_err());
    }

    #[test]
    fn ciphertext_roundtrips_at_rescaled_level() {
        // The wire format must carry non-fresh ciphertexts too: after a
        // multiply + rescale the level has dropped and the scale is no
        // longer a clean power of two (chain primes are only ≈ 2^45).
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(8);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let ev = crate::eval::Evaluator::new(&ctx, Some(relin), crate::keys::GaloisKeys::default());
        let values: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) * 0.2).collect();
        let pt = ev.encoder().encode(&values, 2f64.powi(40), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let rescaled = ev.rescale(&ev.square(&ct));
        assert_eq!(rescaled.level, 1);
        let blob = ciphertext_to_bytes(&ctx, &rescaled);
        let back = ciphertext_from_bytes(&ctx, &blob).expect("roundtrip");
        assert_eq!(back.level, 1);
        assert_eq!(back.scale, rescaled.scale);
        assert_eq!(back.c0, rescaled.c0);
        assert_eq!(back.c1, rescaled.c1);
        let decoded = ev.encoder().decode(&decrypt(&ctx, &sk, &back));
        for (i, &v) in values.iter().enumerate() {
            assert!(
                (decoded[i] - v * v).abs() < 1e-3,
                "slot {i}: {} vs {}",
                decoded[i],
                v * v
            );
        }
    }

    #[test]
    fn relin_key_roundtrips_and_multiplies() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(21);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let blob = relin_key_to_bytes(&ctx, &relin);
        let back = relin_key_from_bytes(&ctx, &blob).expect("roundtrip");
        assert_eq!(back.0, relin.0);
        // The deserialized key relinearizes: square at the fresh level,
        // rescale, and square again at the dropped level — both products
        // must decode correctly.
        let ev = crate::eval::Evaluator::new(&ctx, Some(back), crate::keys::GaloisKeys::default());
        let values: Vec<f64> = (0..8).map(|i| (i as f64 - 3.0) * 0.2).collect();
        // Scale 2^30 leaves headroom for a second square at level 1
        // (rescaled scale ≈ 2^15, squared ≈ 2^30 < q0 ≈ 2^45).
        let pt = ev.encoder().encode(&values, 2f64.powi(30), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let fresh_sq = ev.rescale(&ev.square(&ct));
        assert_eq!(fresh_sq.level, 1);
        let decoded = ev.encoder().decode(&decrypt(&ctx, &sk, &fresh_sq));
        for (i, &v) in values.iter().enumerate() {
            assert!(
                (decoded[i] - v * v).abs() < 1e-2,
                "fresh slot {i}: {} vs {}",
                decoded[i],
                v * v
            );
        }
        // At the rescaled level the key's full-basis digits are consumed
        // through the restricted inner product — exercise that path too.
        let low_sq = ev.square(&fresh_sq);
        let d = ev.encoder().decode(&decrypt(&ctx, &sk, &low_sq));
        for (i, &v) in values.iter().take(4).enumerate() {
            let expect = (v * v) * (v * v);
            assert!(
                (d[i] - expect).abs() < 1e-2,
                "rescaled slot {i}: {} vs {expect}",
                d[i]
            );
        }
        // Kind bytes cross-reject against the other key kinds.
        assert!(secret_key_from_bytes(&ctx, &blob).is_err());
        assert!(galois_keys_from_bytes(&ctx, &blob).is_err());
    }

    #[test]
    fn galois_keys_roundtrip_and_rotate() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(22);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let relin = kg.relin_key(&mut rng);
        let gk = kg.galois_keys([1i64, 5], &mut rng);
        let blob = galois_keys_to_bytes(&ctx, &gk);
        let back = galois_keys_from_bytes(&ctx, &blob).expect("roundtrip");
        let mut want: Vec<usize> = gk.elements().collect();
        let mut got: Vec<usize> = back.elements().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        for g in want {
            assert_eq!(back.get(g), gk.get(g));
        }
        // Serialization is canonical: equal sets → identical bytes.
        assert_eq!(blob, galois_keys_to_bytes(&ctx, &back));
        // The deserialized set rotates at the fresh level...
        let ev = crate::eval::Evaluator::new(&ctx, Some(relin), back);
        let values: Vec<f64> = (0..ctx.slots()).map(|i| i as f64 * 0.1).collect();
        let pt = ev.encoder().encode(&values, 2f64.powi(40), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let r = ev.rotate(&ct, 1);
        let d = ev.encoder().decode(&decrypt(&ctx, &sk, &r));
        let slots = ctx.slots();
        for i in 0..8 {
            let expect = values[(i + 1) % slots];
            assert!(
                (d[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                d[i]
            );
        }
        // ...and at a rescaled level, where the restricted key inner
        // product runs over fewer limbs than the serialized full basis.
        let low = ev.rescale(&ev.square(&ct));
        assert_eq!(low.level, 1);
        let rl = ev.rotate(&low, 5);
        let dl = ev.encoder().decode(&decrypt(&ctx, &sk, &rl));
        for i in 0..8 {
            let v = values[(i + 5) % slots];
            let expect = v * v;
            assert!(
                (dl[i] - expect).abs() < 1e-2,
                "rescaled slot {i}: {} vs {expect}",
                dl[i]
            );
        }
        // Kind bytes cross-reject.
        assert!(relin_key_from_bytes(&ctx, &blob).is_err());
        assert!(ciphertext_from_bytes(&ctx, &blob).is_err());
    }

    #[test]
    fn key_blobs_reject_corruption() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(23);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let relin = kg.relin_key(&mut rng);
        let blob = relin_key_to_bytes(&ctx, &relin).to_vec();
        // Wrong magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(relin_key_from_bytes(&ctx, &bad).is_err());
        // Truncated mid-polynomial.
        assert!(relin_key_from_bytes(&ctx, &blob[..blob.len() / 2]).is_err());
        // Unreduced residue in the last limb word.
        let mut bad = blob.clone();
        let off = blob.len() - 8;
        bad[off..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(relin_key_from_bytes(&ctx, &bad).is_err());
        // A Galois set with a tampered (even) element is rejected.
        let gk = kg.galois_keys([2i64], &mut rng);
        let gblob = galois_keys_to_bytes(&ctx, &gk).to_vec();
        let mut bad = gblob.clone();
        // Element is the u64 right after the 14-byte header.
        bad[14] &= 0xFE;
        assert!(galois_keys_from_bytes(&ctx, &bad).is_err());
    }

    #[test]
    fn rejects_corruption() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encoder::new(&ctx);
        let pt = enc.encode(&[1.0], 2f64.powi(30), 1);
        let ct = encrypt_symmetric(&ctx, &kg.secret_key(), &pt, &mut rng);
        let blob = ciphertext_to_bytes(&ctx, &ct).to_vec();
        // Wrong magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(ciphertext_from_bytes(&ctx, &bad).is_err());
        // Truncated.
        assert!(ciphertext_from_bytes(&ctx, &blob[..blob.len() - 9]).is_err());
        // Unreduced residue: set one limb word to u64::MAX.
        let mut bad = blob.clone();
        let off = blob.len() - 8;
        bad[off..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ciphertext_from_bytes(&ctx, &bad).is_err());
        // Plaintext blob fed to ciphertext decoder.
        let pblob = plaintext_to_bytes(&ctx, &pt);
        assert!(ciphertext_from_bytes(&ctx, &pblob).is_err());
    }

    #[test]
    fn rejects_wrong_context() {
        let ctx_a = ctx();
        let ctx_b = CkksContext::new(CkksParams {
            poly_degree: 256,
            max_level: 2,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
        });
        let enc = Encoder::new(&ctx_a);
        let pt = enc.encode(&[1.0], 2f64.powi(30), 1);
        let blob = plaintext_to_bytes(&ctx_a, &pt);
        assert!(plaintext_from_bytes(&ctx_b, &blob).is_err());
    }
}
