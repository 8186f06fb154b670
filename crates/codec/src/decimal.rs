//! Exact fixed-precision decimal formatting for `f64` and `u64`.
//!
//! [`push_fixed`] writes the same bytes as `format!("{:.*}", digits, v)`
//! without going through `std::fmt`. A finite `f64` is exactly `m·2^e`
//! for integers `m < 2^53` and `-1074 ≤ e ≤ 971`, so `|v|·10^digits` is
//! the rational `m·10^digits·2^e`. For `digits ≤ 9` the numerator
//! `m·10^digits` is below `2^83`, so `u128` arithmetic holds it and
//! rounds the quotient by `2^-e` to an integer exactly, ties to even,
//! which is the rounding `std` applies. That integer is written with the
//! point inserted `digits` places from the right and a `-` for a set
//! sign bit (so `-0.0` is `-0.000`, as in `std`). NaN, ±inf, precisions
//! above 9 and values whose scaled integer exceeds `u64::MAX` go
//! through `std::fmt` unchanged.

use std::fmt::Write as _;

/// Largest precision [`push_fixed`] encodes without `std::fmt`.
const MAX_FAST_DIGITS: usize = 9;

const POW10: [u64; MAX_FAST_DIGITS + 1] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Bytes for a sign, the 20 digits of `u64::MAX` and a point.
const BUF_LEN: usize = 24;

/// Append `v` with exactly `digits` decimals: the bytes of
/// `format!("{:.*}", digits, v)`.
pub fn push_fixed(out: &mut String, v: f64, digits: usize) {
    let Some(n) = scaled(v, digits) else {
        // fmt::Write for String never fails.
        let _ = write!(out, "{v:.digits$}");
        return;
    };
    let mut buf = [0u8; BUF_LEN];
    // Leave the last byte free: the fraction shifts right into it to
    // make room for the point.
    let mut end = BUF_LEN - 1;
    let mut start = write_digits(&mut buf, end, n, digits + 1);
    if digits > 0 {
        buf.copy_within(end - digits..end, end - digits + 1);
        buf[end - digits] = b'.';
        end += 1;
    }
    if v.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..end]);
}

/// Append `n` in decimal: the bytes of `n.to_string()`.
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; BUF_LEN];
    let start = write_digits(&mut buf, BUF_LEN, n, 1);
    push_ascii(out, &buf[start..]);
}

/// `round(|v|·10^digits)`, ties to even, when `v` is finite, `digits`
/// is at most [`MAX_FAST_DIGITS`] and the result fits a `u64`.
fn scaled(v: f64, digits: usize) -> Option<u64> {
    if digits > MAX_FAST_DIGITS || !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = mantissa · 2^exp; subnormals share the smallest exponent.
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased as i32 - 1075)
    };
    let num = u128::from(mantissa) * u128::from(POW10[digits]);
    if exp >= 0 {
        // A normal mantissa is at least 2^52, so from 2^12 on the
        // product is at least 2^64.
        return if exp >= 12 {
            None
        } else {
            u64::try_from(num << exp).ok()
        };
    }
    let shift = exp.unsigned_abs();
    if shift >= 128 {
        // num < 2^83, so num·2^-shift < 2^-45 rounds to zero.
        return Some(0);
    }
    let quotient = num >> shift;
    let rem = num - (quotient << shift);
    let half = 1u128 << (shift - 1);
    let round_up = rem > half || (rem == half && quotient & 1 == 1);
    u64::try_from(quotient + u128::from(round_up)).ok()
}

/// Write `n` with at least `min_digits` digits (zero-padded on the
/// left) into `buf`, ending just before `end`; return where it starts.
fn write_digits(buf: &mut [u8; BUF_LEN], mut end: usize, mut n: u64, min_digits: usize) -> usize {
    let floor = end - min_digits;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    while end > floor {
        end -= 1;
        buf[end] = b'0';
    }
    end
}

/// Append bytes that are all ASCII.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.extend(bytes.iter().copied().map(char::from));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(v: f64, digits: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, v, digits);
        s
    }

    /// `push_fixed` against `std` at one value and every precision.
    fn assert_all_precisions(v: f64) {
        for digits in 0..=MAX_FAST_DIGITS + 1 {
            assert_eq!(
                fixed(v, digits),
                format!("{v:.digits$}"),
                "{v:e} at .{digits}"
            );
        }
    }

    #[test]
    fn exact_ties_round_to_even() {
        assert_eq!(fixed(1.0625, 3), "1.062");
        assert_eq!(fixed(1.0635, 3), "1.063");
        assert_eq!(fixed(0.25, 1), "0.2");
        assert_eq!(fixed(0.75, 1), "0.8");
        assert_eq!(fixed(2.5, 0), "2");
        assert_eq!(fixed(3.5, 0), "4");
        // Odd multiples of 2^-k are exact ties at precision k - 1.
        for k in 1..=40 {
            let ulp = (-(k as f64)).exp2();
            for odd in [1u64, 3, 5, 7, 99, 12_345, 1 << 20 | 1] {
                for sign in [1.0, -1.0] {
                    assert_all_precisions(sign * odd as f64 * ulp);
                }
            }
        }
    }

    #[test]
    fn zeros_subnormals_and_non_finite() {
        assert_eq!(fixed(-0.0, 3), "-0.000");
        assert_eq!(fixed(0.0, 0), "0");
        assert_eq!(fixed(-0.0001, 3), "-0.000");
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(3),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ] {
            assert_all_precisions(v);
        }
    }

    #[test]
    fn both_sides_of_the_u64_edge() {
        // |v|·10^digits just below and just above 2^64, and the
        // neighbouring doubles of each.
        for (digits, &scale) in POW10.iter().enumerate() {
            let edge = 18_446_744_073_709_551_616.0 / scale as f64;
            let mut v = edge;
            for _ in 0..64 {
                v = f64::from_bits(v.to_bits() - 1);
            }
            for _ in 0..128 {
                assert_eq!(
                    fixed(v, digits),
                    format!("{v:.digits$}"),
                    "{v:e} at .{digits}"
                );
                assert_eq!(
                    fixed(-v, digits),
                    format!("{:.digits$}", -v),
                    "{v:e} at .{digits}"
                );
                v = f64::from_bits(v.to_bits() + 1);
            }
        }
        // Integers where the left-shift path starts (2^52) and where it
        // overflows (2^64).
        for v in [
            4503599627370496.0f64,
            4503599627370497.0,
            9223372036854775808.0,
            18446744073709549568.0,
            18446744073709551616.0,
        ] {
            assert_all_precisions(v);
        }
    }

    #[test]
    fn push_u64_matches_to_string() {
        let mut cases = vec![0, 1, 9, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            p = next;
            cases.extend([p - 1, p, p + 1]);
        }
        for n in cases {
            let mut s = String::new();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        #[test]
        fn random_bit_patterns_match_std(hi in 0u64..=u32::MAX as u64, lo in 0u64..=u32::MAX as u64) {
            let v = f64::from_bits(hi << 32 | lo);
            for digits in 0..=MAX_FAST_DIGITS {
                prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
            }
        }

        #[test]
        fn curve_scale_values_match_std(v in -1.0e12f64..1.0e12, digits in 0usize..=MAX_FAST_DIGITS) {
            prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
        }

        #[test]
        fn dyadic_ties_match_std(odd in 0u64..1 << 30, k in 1i32..60, digits in 0usize..=MAX_FAST_DIGITS) {
            let v = (2 * odd + 1) as f64 * (-f64::from(k)).exp2();
            prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
        }

        #[test]
        fn push_u64_matches_to_string_everywhere(hi in 0u64..=u32::MAX as u64, lo in 0u64..=u32::MAX as u64, shift in 0u32..64) {
            let n = (hi << 32 | lo) >> shift;
            let mut s = String::new();
            push_u64(&mut s, n);
            prop_assert_eq!(s, n.to_string());
        }
    }

    /// Deep sweep, run by CI in release mode with `--ignored`: ten
    /// million random values at the curve's precisions and every tie on
    /// a dyadic grid.
    #[test]
    #[ignore = "deep sweep; run with `cargo test --release -p mnemo-codec -- --ignored`"]
    fn deep_sweep_matches_std() {
        let mut state = 0x5eed_dec1_u64;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut s = String::new();
        for i in 0..10_000_000u64 {
            let bits = next();
            // Mostly a random sign and mantissa under an exponent within
            // 2^±80, which spans the fast path, both sides of its u64
            // edge and rounding to zero; one in 16 a raw bit pattern.
            let v = if i % 16 == 0 {
                f64::from_bits(bits)
            } else {
                let biased = 1023 - 80 + (bits >> 52) % 161;
                f64::from_bits(bits & (1 << 63 | ((1 << 52) - 1)) | biased << 52)
            };
            for digits in [3, 6] {
                s.clear();
                push_fixed(&mut s, v, digits);
                assert_eq!(s, format!("{v:.digits$}"), "{v:e} at .{digits}");
            }
        }
        // Every odd multiple of 2^-k below 2^10 for k = 1..=10: each is
        // a tie at precision k - 1, which covers every fast precision.
        for k in 1..=10u32 {
            for odd in (1..1u64 << (k + 10)).step_by(2) {
                let v = odd as f64 * (-f64::from(k)).exp2();
                for digits in 0..=MAX_FAST_DIGITS {
                    s.clear();
                    push_fixed(&mut s, v, digits);
                    assert_eq!(s, format!("{v:.digits$}"), "{v:e} at .{digits}");
                }
            }
        }
    }
}
