//! A batched lognormal noise kernel: `exp(σ·√(−2 ln u1)·cos(τ·u2))`,
//! the multiplier [`CostModel`](crate::CostModel) draws per cell, for a
//! whole slice of `(u1, u2)` pairs at once.
//!
//! The scalar path makes three libm calls per cell, one after another.
//! Here each of `ln`, `cos` and `exp` is straight-line `f64` code built
//! from multiplies, adds, one division, one square root and bit
//! operations on the IEEE-754 representation: no branch, no table, no
//! float↔integer conversion. That is the shape LLVM vectorises at the
//! baseline x86-64 (SSE2) target, two lanes per instruction, with no
//! `unsafe`, intrinsics or target flags.
//!
//! The kernel is sized to its one caller's need. Only whole milliseconds
//! leave the cost sampler, and a cell whose millisecond the kernel cannot
//! decide is recomputed exactly, so its polynomials stop once the
//! kernel is within [`REL_ERROR_BOUND`] (5e-8) of the libm chain: `ln` at
//! its `s⁵/11` term, `cos` at `y¹⁰`, `sin` at `y⁹` and `exp` at `r⁸`. Each
//! is evaluated in Estrin's form (Estrin, 1960): powers of the argument
//! are formed once and independent pairs of terms combine in parallel,
//! so each dependency chain is about half as long as Horner's.
//!
//! The result is therefore not bit-identical to the libm chain. Each
//! function's doc comment states its truncation bound, and
//! [`REL_ERROR_BOUND`] combines them. Callers that need the libm value
//! exactly keep the inputs and recompute with
//! [`CostModel::lognormal_from_uniforms`](crate::CostModel::lognormal_from_uniforms)
//! whenever the bound cannot decide their result.

use std::f64::consts::{FRAC_2_PI, LN_2, LOG2_E, TAU};

/// The kernel's domain: it evaluates a cell only when
/// `|σ|·√(−2 ln u1) ≤ DOMAIN`, which bounds `|σz|` for every angle.
/// Outside it the cell's noise is NaN. Cost-model draws stay well inside:
/// `u1 > 2⁻⁵²` keeps `√(−2 ln u1) ≤ 8.5`, and the largest default sigma
/// (0.37, minimal fill) gives `|σ|·√(−2 ln u1) ≤ 3.2`.
pub const DOMAIN: f64 = 8.0;

/// Upper bound on the relative distance between a kernel value and the
/// libm chain's value for the same `(u1, u2, σ)` inside [`DOMAIN`].
///
/// Derivation, from the truncation bounds stated on the kernel's `ln`,
/// `cos` and `exp`:
/// - `ln u1` is within 5.2e-11 relative, so `r = √(−2 ln u1)` is within
///   2.6e-11 relative.
/// - `cos(τ·u2)` is within 1.76e-9 absolute (the `sin` branch's bound;
///   the `cos` branch's is 1.2e-10).
/// - So `w = σ·r·cos` is within `|σ|·r·(1.76e-9 + 2.6e-11) ≤ 8 × 1.79e-9
///   = 1.43e-8` absolute, which is the relative error it puts into
///   `exp(w)`. `exp` adds at most 2.9e-10 relative, and rounding in the
///   kernel adds under 1e-14.
/// - libm's own chain (each call within one ulp) is within 4e-15 of the
///   true value.
///
/// The two differ by at most 1.5e-8; this bound rounds that up threefold.
pub const REL_ERROR_BOUND: f64 = 5e-8;

/// Fill `out[i]` with `exp(σ·√(−2 ln u1[i])·cos(τ·u2[i]))` for each `i`
/// up to the shortest of the three slices: the value is within
/// [`REL_ERROR_BOUND`] of the libm chain's when
/// `|σ|·√(−2 ln u1[i]) ≤ DOMAIN`, and NaN otherwise. Every `u1[i]` must
/// be a positive normal `f64` no greater than 1, as the cost model's
/// `u1 > ε` draws are.
pub fn lognormal_batch(sigma: f64, u1: &[f64], u2: &[f64], out: &mut [f64]) {
    for ((o, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *o = lognormal(sigma, a, b);
    }
}

/// One cell of [`lognormal_batch`], in the libm chain's order of
/// operations.
#[inline(always)]
fn lognormal(sigma: f64, u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * ln(u1)).sqrt();
    let z = r * cos(TAU * u2);
    let noise = exp(z * sigma);
    if sigma.abs() * r <= DOMAIN {
        noise
    } else {
        f64::NAN
    }
}

/// `1.5·2⁵²`: adding it to a float of magnitude below 2⁵¹ rounds that
/// float to an integer, which then sits in the sum's low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// Natural log of a positive normal `x`.
///
/// The bits split `x = 2^k·m` with `m ∈ [√2/2, √2)`; `k` becomes a float
/// by planting `k + 1024` in the mantissa of 2⁵² and subtracting. Then
/// `ln m = 2·atanh(f)` with `f = (m − 1)/(m + 1)`, `|f| ≤ 3 − 2√2 ≈
/// 0.1716`, summed to the `f¹¹/11` term (`s⁵/11` in `s = f²`, after the
/// leading `f`). Truncation bound: the omitted tail is below its first
/// term over `1 − f²`, `2|f|¹³/13 / 0.97`, which is at most `5.2e-11` of
/// `|ln m| ≥ 2|f|`. For `k ≠ 0`, `|ln x| ≥ |ln m|`, so the bound holds
/// relative to `ln x` too.
#[inline(always)]
fn ln(x: f64) -> f64 {
    /// The bits of √2/2, rounded down.
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    /// The bits of 2⁵².
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    /// 2⁵² + 1024, as a float.
    const TWO_52_PLUS_1024: f64 = 4_503_599_627_371_520.0;
    let bits = x.to_bits();
    // The top 12 bits of `tmp` hold `k` in two's complement.
    let tmp = bits.wrapping_sub(SQRT_HALF);
    let m = f64::from_bits(bits.wrapping_sub(tmp & 0xfff0_0000_0000_0000));
    let k_biased = ((tmp >> 52) + 1024) & 0xfff;
    let k = f64::from_bits(TWO_52 | k_biased) - TWO_52_PLUS_1024;
    let f = (m - 1.0) / (m + 1.0);
    let s = f * f;
    let s2 = s * s;
    // 1/3 + s/5 + s²/7 + s³/9 + s⁴/11, in Estrin's form.
    let p =
        (1.0 / 3.0 + s * (1.0 / 5.0)) + s2 * ((1.0 / 7.0 + s * (1.0 / 9.0)) + s2 * (1.0 / 11.0));
    let t = 2.0 * f;
    k * LN_2 + (t + t * (s * p))
}

/// Cosine of `t`, for `|t| < 2¹⁹` (the cost model passes `τ·u2 ∈ [0, τ)`).
///
/// Reduction takes `n`, the integer nearest `t·2/π`, and
/// `y = t − n·(π/2)` with fdlibm's split of π/2: a 33-bit head whose
/// product with `n` is exact, then its 53-bit tail, so
/// `|y| ≤ π/4 + 1e-15`. The quadrant `n mod 4` picks `±cos y` or
/// `±sin y` through bit masks. Truncation bound: both Taylor
/// polynomials alternate with shrinking terms, so the error is below the
/// first omitted term, absolute: `y¹¹/11! ≤ 1.76e-9` for sin (to `y⁹`),
/// `y¹²/12! ≤ 1.2e-10` for cos (to `y¹⁰`).
#[inline(always)]
fn cos(t: f64) -> f64 {
    /// π/2's first 33 bits.
    const PIO2_HI: f64 = 1.570_796_326_734_125_6;
    /// The next 53 bits of π/2.
    const PIO2_LO: f64 = 6.077_100_506_506_192e-11;
    let nb = t * FRAC_2_PI + ROUND;
    let n = nb - ROUND;
    let y = (t - n * PIO2_HI) - n * PIO2_LO;
    let y2 = y * y;
    let y4 = y2 * y2;
    let y8 = y4 * y4;
    // 1 − y²/2! + y⁴/4! − y⁶/6! + y⁸/8! − y¹⁰/10!, in Estrin's form.
    let cos_y = (1.0 - y2 * 0.5)
        + y4 * (1.0 / 24.0 - y2 * (1.0 / 720.0))
        + y8 * (1.0 / 40_320.0 - y2 * (1.0 / 3_628_800.0));
    // y·(1 − y²/3! + y⁴/5! − y⁶/7! + y⁸/9!), in Estrin's form.
    let sin_y = y
        * ((1.0 - y2 * (1.0 / 6.0))
            + y4 * (1.0 / 120.0 - y2 * (1.0 / 5_040.0))
            + y8 * (1.0 / 362_880.0));
    // Quadrants 0..3 give cos y, −sin y, −cos y, sin y.
    let q = nb.to_bits();
    let odd = (q & 1).wrapping_neg();
    let picked = (sin_y.to_bits() & odd) | (cos_y.to_bits() & !odd);
    let negate = (q.wrapping_add(1) & 2) << 62;
    f64::from_bits(picked ^ negate)
}

/// `e^w` for `|w| ≤ 700`.
///
/// Reduction takes `k`, the integer nearest `w/ln 2`, and
/// `r = w − k·ln 2` with fdlibm's split of ln 2 (the head's product with
/// `k` is exact), so `|r| ≤ ln 2/2 + 1e-16`. `e^r` is its Taylor
/// polynomial to `r⁸/8!`; `2^k` is built by writing `k + 1023` into an
/// exponent field. Truncation bound: the Lagrange remainder
/// `e^ξ·r⁹/9!` with `ξ` between 0 and `r`, at most `e^|r|·|r|⁹/9! ≤
/// 2.9e-10` of `e^r`.
#[inline(always)]
fn exp(w: f64) -> f64 {
    /// ln 2's first 32 bits.
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    /// The next 53 bits of ln 2.
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let kb = w * LOG2_E + ROUND;
    let k = kb - ROUND;
    let r = (w - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    // Σ rʲ/j! for j = 0..=8, in Estrin's form.
    let p = ((1.0 + r) + r2 * (0.5 + r * (1.0 / 6.0)))
        + r4 * ((1.0 / 24.0 + r * (1.0 / 120.0)) + r2 * (1.0 / 720.0 + r * (1.0 / 5_040.0)))
        + r8 * (1.0 / 40_320.0);
    // The low 12 bits of `kb`'s pattern are `k` mod 4096.
    let scale = f64::from_bits(kb.to_bits().wrapping_add(1023) << 52);
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `ln`'s relative error: its truncation bound, `f¹²/(13·(1 − f²))`
    /// at `|f| = 3 − 2√2`, is 5.16e-11; rounding adds under 1e-15.
    const LN_REL: f64 = 5.2e-11;

    /// `cos`'s absolute error: the `sin` branch's truncation bound,
    /// `(π/4)¹¹/11!`, is 1.7573e-9 (the `cos` branch's, `(π/4)¹²/12!`, is
    /// 1.2e-10); reduction and rounding add under 1e-15.
    const COS_ABS: f64 = 1.76e-9;

    /// `exp`'s relative error: its truncation bound,
    /// `e^|r|·|r|⁹/9!` at `|r| = ln 2/2`, is 2.82e-10; rounding adds
    /// under 1e-15.
    const EXP_REL: f64 = 2.9e-10;

    fn rel(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs()
    }

    /// A cost-model `u1` for draw `i`: uniform on even `i`, and on odd `i`
    /// a sweep of binades down to 2⁻⁵², clamped above ε as the cost
    /// model's draws are.
    fn u1(rng: &mut ChaCha8Rng, i: usize) -> f64 {
        let u = if i.is_multiple_of(2) {
            rng.gen::<f64>()
        } else {
            rng.gen::<f64>() * 2f64.powi(-((i / 2 % 53) as i32))
        };
        if u > f64::EPSILON {
            u
        } else {
            f64::EPSILON * 1.5
        }
    }

    #[test]
    fn ln_tracks_libm_across_the_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..200_000 {
            // Uniform draws, plus a sweep of binades down to 2⁻⁵².
            let x = if i % 2 == 0 {
                rng.gen::<f64>().max(f64::EPSILON)
            } else {
                rng.gen::<f64>() * 2f64.powi(-(i % 53))
            }
            .max(f64::MIN_POSITIVE);
            let want = x.ln();
            let got = ln(x);
            let err = if want == 0.0 {
                got.abs()
            } else {
                rel(got, want)
            };
            assert!(err < LN_REL, "ln({x:e}) = {got:e}, libm {want:e}");
        }
        assert_eq!(ln(1.0), 0.0);
    }

    #[test]
    fn cos_tracks_libm_over_a_turn() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for i in 0..200_000 {
            let t = if i < 8 {
                // Quadrant edges, where the reduction cancels most and
                // the truncation is largest.
                i as f64 * std::f64::consts::FRAC_PI_4
            } else {
                TAU * rng.gen::<f64>()
            };
            let (got, want) = (cos(t), t.cos());
            assert!(
                (got - want).abs() < COS_ABS,
                "cos({t}) = {got:e}, libm {want:e}"
            );
        }
        assert_eq!(cos(0.0), 1.0);
    }

    #[test]
    fn exp_tracks_libm_over_the_domain() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in 0..200_000 {
            let w = if i < 3 {
                [-DOMAIN, 0.0, DOMAIN][i]
            } else {
                rng.gen_range(-DOMAIN..DOMAIN)
            };
            let (got, want) = (exp(w), w.exp());
            assert!(
                rel(got, want) < EXP_REL,
                "exp({w}) = {got:e}, libm {want:e}"
            );
        }
        assert_eq!(exp(0.0), 1.0);
    }

    /// 2²⁰ uniform pairs, half of them sweeping `u1`'s binades, at the
    /// cost model's sigmas (cells 0.12 and 0.37, hand-offs 0.20), at the
    /// sigmas that reach the domain's edge (`±DOMAIN/8.5`, as `u1 → 2⁻⁵²`
    /// gives `r → 8.5`), and at 0, where the noise must be exactly 1.
    #[test]
    fn batch_stays_within_its_bound_of_the_libm_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 1 << 20;
        let u1: Vec<f64> = (0..n).map(|i| u1(&mut rng, i)).collect();
        let u2: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let mut out = vec![0.0; n];
        let mut worst = 0.0f64;
        for sigma in [0.12, 0.37, 0.20, DOMAIN / 8.5, -DOMAIN / 8.5] {
            lognormal_batch(sigma, &u1, &u2, &mut out);
            for ((&a, &b), &got) in u1.iter().zip(&u2).zip(&out) {
                let want = ((-2.0 * a.ln()).sqrt() * (TAU * b).cos() * sigma).exp();
                let err = rel(got, want);
                assert!(
                    err < REL_ERROR_BOUND,
                    "σ {sigma}, u1 {a}, u2 {b}: {got:e} vs libm {want:e}"
                );
                worst = worst.max(err);
            }
        }
        // The edge sigmas use most of the derived 1.5e-8.
        assert!(worst > 1e-9, "worst {worst:e}");
        lognormal_batch(0.0, &u1[..4096], &u2[..4096], &mut out[..4096]);
        assert!(out[..4096].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn cells_outside_the_domain_are_nan() {
        // r = √(−2 ln u1) is 1 at u1 = e^−½, so σ sets |σ|·r directly.
        let u1 = [(-0.5f64).exp(); 3];
        let u2 = [0.0, 0.25, 0.5];
        let mut out = [0.0; 3];
        lognormal_batch(DOMAIN * 1.01, &u1, &u2, &mut out);
        assert!(out.iter().all(|x| x.is_nan()), "{out:?}");
        lognormal_batch(-DOMAIN * 1.01, &u1, &u2, &mut out);
        assert!(out.iter().all(|x| x.is_nan()), "{out:?}");
        lognormal_batch(f64::NAN, &u1, &u2, &mut out);
        assert!(out.iter().all(|x| x.is_nan()), "{out:?}");
        lognormal_batch(DOMAIN * 0.99, &u1, &u2, &mut out);
        assert!(out.iter().all(|x| x.is_finite()), "{out:?}");
    }
}
