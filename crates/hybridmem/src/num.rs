//! Checked numeric conversions for byte-size and nanosecond arithmetic.
//!
//! The simulator mixes `u64` byte counts, `u128` virtual nanoseconds,
//! `f64` model outputs, and `usize` indices. A bare `as` cast between
//! them silently truncates or drops sign — which is why the R002 lint
//! bans `as`-to-integer in this crate. These helpers make the intended
//! semantics explicit: lossless where the platform guarantees it,
//! *saturating* where the source can exceed the target (an off-scale
//! byte count clamps instead of wrapping into a plausible-looking
//! small number).

/// `u64` → `usize`, saturating (lossless on 64-bit targets).
#[inline]
pub fn usize_from_u64(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// `usize` → `u64`, saturating (lossless on every supported target).
#[inline]
pub fn u64_from_usize(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// `u32` → `usize` (lossless on every supported target).
#[inline]
pub fn usize_from_u32(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Non-negative `f64` → `u64`, truncating toward zero and saturating at
/// the ends; NaN maps to 0. Used for nanosecond values that were
/// computed in the float domain.
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // audited: saturation is the contract
pub fn u64_from_f64(v: f64) -> u64 {
    // mnemo-lint: allow(R002, "float-to-int `as` is the checked primitive: it saturates and maps NaN to 0 by language definition")
    v as u64
}

/// 2^52: from here up every `f64` is an integer, so rounding is the
/// identity.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Non-negative `f64` nanoseconds → `u128`, rounding to the nearest
/// integer (halves away from zero), saturating, NaN → 0.
///
/// Every simulated request advances a clock through here, so the common
/// range `0 <= v < 2^52` skips the `round` and float-to-`u128` library
/// calls: the truncation `t` and the fraction `v - t` are both exact in
/// that range, and rounding up when the fraction is at least one half is
/// exactly `v.round()`. Everything else (negatives, NaN, infinities,
/// values already integral) takes the general path.
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // audited: saturation is the contract
pub fn u128_from_f64(v: f64) -> u128 {
    if (0.0..TWO_POW_52).contains(&v) {
        // mnemo-lint: allow(R002, "in range by the guard above: truncation of a value below 2^52 is exact")
        let t = v as u64;
        return u128::from(t + u64::from(v - t as f64 >= 0.5));
    }
    // mnemo-lint: allow(R002, "float-to-int `as` is the checked primitive: it saturates and maps NaN to 0 by language definition")
    v.round() as u128
}

/// `u64` → `i32` exponent, saturating. For power-of-two bucket math
/// (`2f64.powi(...)`), where saturation turns an absurd exponent into
/// `inf` rather than wrapping into a negative power.
#[inline]
pub fn i32_exp_from_u64(v: u64) -> i32 {
    i32::try_from(v).unwrap_or(i32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_u64_round_trip_is_lossless_in_range() {
        for v in [0u64, 1, 255, 1 << 32, u64::from(u32::MAX)] {
            assert_eq!(u64_from_usize(usize_from_u64(v)), v);
        }
    }

    #[test]
    fn f64_conversions_truncate_saturate_and_absorb_nan() {
        assert_eq!(u64_from_f64(0.0), 0);
        assert_eq!(u64_from_f64(1.9), 1);
        assert_eq!(u64_from_f64(-5.0), 0);
        assert_eq!(u64_from_f64(f64::NAN), 0);
        assert_eq!(u64_from_f64(f64::INFINITY), u64::MAX);
        assert_eq!(u128_from_f64(100.4), 100);
        assert_eq!(u128_from_f64(100.6), 101);
        assert_eq!(u128_from_f64(f64::NAN), 0);
    }

    /// The fast path is exactly `v.round() as u128`, on the edges where
    /// a truncate-and-compare shortcut usually goes wrong.
    #[test]
    fn u128_rounding_matches_round_on_edges() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            0.499_999_999_999_999_94,
            below(0.5),
            above(0.5),
            TWO_POW_52,
            below(TWO_POW_52),
            above(TWO_POW_52),
            below(TWO_POW_52) - 0.5,
            2.0 * TWO_POW_52,
            -0.4,
            -0.5,
            -1.5,
            -1e9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            u64::MAX as f64,
        ];
        edges.extend((0..64).map(|i| i as f64 + 0.5));
        for v in edges {
            assert_eq!(u128_from_f64(v), v.round() as u128, "{v:e}");
        }
    }

    proptest::proptest! {
        #[test]
        fn u128_rounding_matches_round(bits in 0u64..u64::MAX, v in 0.0f64..1e12) {
            let any = f64::from_bits(bits);
            proptest::prop_assert_eq!(u128_from_f64(any), any.round() as u128);
            proptest::prop_assert_eq!(u128_from_f64(v), v.round() as u128);
            let half = v.trunc() + 0.5;
            proptest::prop_assert_eq!(u128_from_f64(half), half.round() as u128);
        }
    }

    #[test]
    fn exponent_saturates() {
        assert_eq!(i32_exp_from_u64(31), 31);
        assert_eq!(i32_exp_from_u64(u64::MAX), i32::MAX);
    }
}
