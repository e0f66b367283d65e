//! Ed25519 signatures (RFC 8032), built on [`crate::fe25519`].
//!
//! Implements scalar arithmetic mod the group order `L`, the edwards25519
//! group in extended coordinates, point compression/decompression, and the
//! `sign`/`verify` operations. Verified against the RFC 8032 §7.1 test
//! vectors. Variable-time throughout (simulation grade).

use crate::fe25519::{curve_d, sqrt_m1, Fe};
use crate::sha2::Sha512;

/// The group order L = 2^252 + 27742317777372353535851937790883648493,
/// little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar mod L, kept fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

#[allow(clippy::should_implement_trait)] // explicit arithmetic names, as in fe25519
#[allow(clippy::needless_range_loop)] // limb loops read more clearly indexed
impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);

    /// Reduce a 512-bit little-endian value mod L (binary long division;
    /// slow but obviously correct, and off the hot path).
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        Scalar(mod_l_wide(&limbs))
    }

    /// Reduce a 256-bit little-endian value mod L.
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Parse a canonical scalar: rejects values ≥ L (required when
    /// verifying signatures, RFC 8032 §5.1.7).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        if geq4(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Serialize to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Scalar addition mod L.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        // Both inputs < L < 2^253, so no carry out of 256 bits.
        debug_assert!(!carry);
        if geq4(&out, &L) {
            out = sub4(&out, &L);
        }
        Scalar(out)
    }

    /// Scalar multiplication mod L.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = (self.0[i] as u128) * (rhs.0[j] as u128) + wide[i + j] as u128 + carry;
                wide[i + j] = v as u64;
                carry = v >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(mod_l_wide(&wide))
    }

    /// True if the scalar is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Bit `i` (little-endian) of the scalar.
    fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }
}

fn geq4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

fn sub4(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[i] = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow);
    out
}

/// Remainder of a 512-bit value mod L via bitwise long division.
fn mod_l_wide(x: &[u64; 8]) -> [u64; 4] {
    // Working remainder with one spare limb of headroom.
    let mut rem = [0u64; 5];
    let l5 = [L[0], L[1], L[2], L[3], 0u64];
    for i in (0..512).rev() {
        // rem <<= 1
        for j in (1..5).rev() {
            rem[j] = (rem[j] << 1) | (rem[j - 1] >> 63);
        }
        rem[0] <<= 1;
        // rem |= bit i of x
        if (x[i / 64] >> (i % 64)) & 1 == 1 {
            rem[0] |= 1;
        }
        // rem -= L if rem >= L
        let mut ge = true;
        for j in (0..5).rev() {
            if rem[j] > l5[j] {
                break;
            }
            if rem[j] < l5[j] {
                ge = false;
                break;
            }
        }
        if ge {
            let mut borrow = false;
            for j in 0..5 {
                let (d1, b1) = rem[j].overflowing_sub(l5[j]);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                rem[j] = d2;
                borrow = b1 || b2;
            }
            debug_assert!(!borrow);
        }
    }
    [rem[0], rem[1], rem[2], rem[3]]
}

/// A point on edwards25519 in extended twisted-Edwards coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Point {
    /// The neutral element.
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (y = 4/5, x even... the RFC 8032 basepoint).
    pub fn base() -> Point {
        // x(B), y(B) as little-endian limb constants.
        const BX: [u64; 4] = [
            0xc956_2d60_8f25_d51a,
            0x692c_c760_9525_a7b2,
            0xc0a4_e231_fdd6_dc5c,
            0x2169_36d3_cd6e_53fe,
        ];
        const BY: [u64; 4] = [
            0x6666_6666_6666_6658,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
        ];
        let x = Fe(BX);
        let y = Fe(BY);
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        }
    }

    /// Unified point addition ("add-2008-hwcd-3" for a = −1 twisted
    /// Edwards curves; valid for doubling too).
    pub fn add(&self, other: &Point) -> Point {
        let two_d = curve_d().add(curve_d());
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(two_d).mul(other.t);
        let d = self.z.add(self.z).mul(other.z);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling (dbl-2008-hwcd).
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        // For a = −1: D = −A.
        let d = a.neg();
        let e = self.x.add(self.y).square().sub(a).sub(b);
        let g = d.add(b);
        let f = g.sub(c);
        let h = d.sub(b);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Variable-time scalar multiplication (MSB-first double-and-add).
    pub fn mul_scalar(&self, s: &Scalar) -> Point {
        let mut acc = Point::identity();
        let mut started = false;
        for i in (0..253).rev() {
            if started {
                acc = acc.double();
            }
            if s.bit(i) {
                acc = if started { acc.add(self) } else { *self };
                started = true;
            }
        }
        if started {
            acc
        } else {
            Point::identity()
        }
    }

    /// Compress to the 32-byte RFC 8032 wire format.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress from the 32-byte wire format; `None` if not on the curve.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes); // masks the sign bit
                                       // Canonicality: re-encoding must give the same y bits.
        let mut y_bytes = y.to_bytes();
        y_bytes[31] |= (bytes[31] & 0x80) & 0x80;
        if y_bytes != *bytes {
            return None;
        }
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = curve_d().mul(yy).add(Fe::ONE);
        // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx != u {
            if vxx == u.neg() {
                x = x.mul(sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_zero() && sign {
            // −0 is not a valid encoding.
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Constant comparison in affine coordinates.
    pub fn equals(&self, other: &Point) -> bool {
        // x1 z2 == x2 z1 and y1 z2 == y2 z1
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }

    /// Check the curve equation −x² + y² = 1 + d x² y² holds.
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(curve_d().mul(x.square()).mul(y.square()));
        lhs == rhs
    }
}

/// An Ed25519 signing key (the 32-byte seed plus derived state).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// Clamped secret scalar, reduced mod L.
    a: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl SigningKey {
    /// Derive a signing key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize();
        let mut a_bytes = [0u8; 32];
        a_bytes.copy_from_slice(&digest[..32]);
        a_bytes[0] &= 248;
        a_bytes[31] &= 127;
        a_bytes[31] |= 64;
        let a = Scalar::from_bytes(&a_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);
        let public_point = Point::base().mul_scalar(&a);
        let public = VerifyingKey {
            bytes: public_point.compress(),
            point: Some(public_point),
        };
        SigningKey {
            seed: *seed,
            a,
            prefix,
            public,
        }
    }

    /// The corresponding verifying (public) key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public.clone()
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Sign `msg`, producing a 64-byte signature (R ‖ s).
    pub fn sign(&self, msg: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = Point::base().mul_scalar(&r).compress();

        let mut h2 = Sha512::new();
        h2.update(&r_point);
        h2.update(&self.public.bytes);
        h2.update(msg);
        let k = Scalar::from_bytes_wide(&h2.finalize());
        let s = r.add(k.mul(self.a));

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the seed.
        write!(
            f,
            "SigningKey(pub={})",
            crate::hex::encode(&self.public.bytes)
        )
    }
}

/// An Ed25519 verifying (public) key.
///
/// The curve point A is decompressed once, when the key is built, so a
/// verifier that checks many signatures under one key (JWKS keys, the SSH
/// user-CA key, federation metadata keys) pays for it once. Equality,
/// hashing and `Debug` are defined on the 32-byte encoding alone.
#[derive(Clone)]
pub struct VerifyingKey {
    bytes: [u8; 32],
    /// `None` when the bytes do not decode to a curve point; such a key
    /// rejects every signature.
    point: Option<Point>,
}

impl VerifyingKey {
    /// Wrap 32 public-key bytes, decompressing the curve point once.
    pub fn from_bytes(bytes: [u8; 32]) -> VerifyingKey {
        VerifyingKey {
            bytes,
            point: Point::decompress(&bytes),
        }
    }

    /// The raw 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Verify `sig` over `msg` (RFC 8032 §5.1.7, cofactorless equation).
    pub fn verify(&self, msg: &[u8], sig: &[u8; 64]) -> bool {
        let a = match &self.point {
            Some(a) => a,
            None => return false,
        };
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&sig[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);

        let s = match Scalar::from_canonical_bytes(&s_bytes) {
            Some(s) => s,
            None => return false,
        };
        let r = match Point::decompress(&r_bytes) {
            Some(r) => r,
            None => return false,
        };

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.bytes);
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());

        // Check s·B == R + k·A.
        let lhs = Point::base().mul_scalar(&s);
        let rhs = r.add(&a.mul_scalar(&k));
        lhs.equals(&rhs)
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &VerifyingKey) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for VerifyingKey {}

impl std::hash::Hash for VerifyingKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn base_point_on_curve() {
        assert!(Point::base().is_on_curve());
        assert!(Point::identity().is_on_curve());
    }

    #[test]
    fn base_point_has_order_l() {
        // L · B == identity, (L-1) · B == -B
        let l_minus_1 = Scalar(sub4(&L, &[1, 0, 0, 0]));
        let p = Point::base().mul_scalar(&l_minus_1);
        let sum = p.add(&Point::base());
        assert!(sum.equals(&Point::identity()));
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert!(b.double().equals(&b.add(&b)));
        let four = b.double().double();
        let four_via_add = b.add(&b).add(&b).add(&b);
        assert!(four.equals(&four_via_add));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = Point::base();
        for _ in 0..16 {
            let c = p.compress();
            let q = Point::decompress(&c).expect("valid point");
            assert!(q.equals(&p));
            assert!(q.is_on_curve());
            p = p.add(&Point::base());
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        // A y with no corresponding x.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        // y=2: x^2 = 3/(4d+1); whether this is square is fixed — test both
        // this and a known-bad high-bit pattern.
        let _ = Point::decompress(&bad); // must not panic either way
        let all_ff = [0xffu8; 32];
        assert!(Point::decompress(&all_ff).is_none());
    }

    #[test]
    fn scalar_mod_l() {
        // L reduces to zero.
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_bytes(&bytes).is_zero());
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
        // L - 1 is canonical.
        let lm1 = sub4(&L, &[1, 0, 0, 0]);
        let mut b2 = [0u8; 32];
        for i in 0..4 {
            b2[i * 8..i * 8 + 8].copy_from_slice(&lm1[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&b2).unwrap();
        assert_eq!(s.add(Scalar([1, 0, 0, 0])), Scalar::ZERO);
    }

    #[test]
    fn scalar_mul_small() {
        let a = Scalar([7, 0, 0, 0]);
        let b = Scalar([6, 0, 0, 0]);
        assert_eq!(a.mul(b), Scalar([42, 0, 0, 0]));
    }

    // RFC 8032 §7.1 TEST 1: empty message.
    #[test]
    fn rfc8032_test1() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sk.sign(b"");
        assert_eq!(
            hex::encode(&sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(sk.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2: one-byte message.
    #[test]
    fn rfc8032_test2() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = sk.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(sk.verifying_key().verify(&[0x72], &sig));
    }

    // RFC 8032 §7.1 TEST 3: two-byte message.
    #[test]
    fn rfc8032_test3() {
        let seed = hex::decode_array::<32>(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xaf, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(&sig),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn verify_rejects_tampering() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let pk = sk.verifying_key();
        let sig = sk.sign(b"an RBAC token body");
        assert!(pk.verify(b"an RBAC token body", &sig));
        // Flip message
        assert!(!pk.verify(b"an RBAC token bodY", &sig));
        // Flip each half of the signature
        let mut bad = sig;
        bad[0] ^= 1;
        assert!(!pk.verify(b"an RBAC token body", &bad));
        let mut bad2 = sig;
        bad2[40] ^= 1;
        assert!(!pk.verify(b"an RBAC token body", &bad2));
        // Wrong key
        let other = SigningKey::from_seed(&[43u8; 32]).verifying_key();
        assert!(!other.verify(b"an RBAC token body", &sig));
    }

    #[test]
    fn prepared_key_with_invalid_point_rejects_everything() {
        // all-0xff is not a curve point, so the key rejects every signature.
        let bogus = VerifyingKey::from_bytes([0xffu8; 32]);
        let sig = SigningKey::from_seed(&[1u8; 32]).sign(b"msg");
        assert!(!bogus.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_non_canonical_s() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let sig = sk.sign(b"msg");
        // Add L to s: same value mod L but non-canonical encoding.
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);
        let s = Scalar::from_bytes(&s_bytes);
        let mut malleated = sig;
        // s + L as a 256-bit integer
        let mut carry = 0u128;
        let mut out = [0u64; 4];
        for i in 0..4 {
            let v = s.0[i] as u128 + L[i] as u128 + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        if carry == 0 {
            for i in 0..4 {
                malleated[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&out[i].to_le_bytes());
            }
            assert!(!sk.verifying_key().verify(b"msg", &malleated));
        }
    }
}
