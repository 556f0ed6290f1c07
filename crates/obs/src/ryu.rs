//! Shortest round-trip digits of an `f64`, after Ryū (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018), with exact ties rounded up.
//!
//! [`shortest`] answers the fewest decimal digits that read back as the
//! given float and, of several candidates that short, the one closest to
//! it. Where the float lies exactly halfway between two such candidates it
//! takes the larger one, as std's float formatting does; reference Ryū
//! rounds those ties to even.
//!
//! The power-of-5 tables are computed at compile time from exact
//! multi-word integers instead of being pasted in.

/// Bits of an `f64`'s stored mantissa.
const MANTISSA_BITS: u32 = 52;
/// The `f64` exponent bias.
const BIAS: i32 = 1023;
/// Bits kept of each power of 5 ([`POW5_SPLIT`]).
const POW5_BITCOUNT: i32 = 125;
/// Bits kept of each inverse power of 5 ([`POW5_INV_SPLIT`]).
const POW5_INV_BITCOUNT: i32 = 125;

/// 64-bit words in the table builder's integers: enough for `2^832`, the
/// dividend of the inverse table, and for `5^325`.
const WORDS: usize = 14;
/// The inverse table's dividend is `2^INV_SHIFT`.
const INV_SHIFT: usize = 832;

/// `5^i` cut to its top [`POW5_BITCOUNT`] bits, for `i` up to the largest
/// power a subnormal needs.
static POW5_SPLIT: [u128; 326] = pow5_split();
/// `⌊2^j / 5^i⌋ + 1` with `j = pow5bits(i) - 1 + POW5_INV_BITCOUNT`, for
/// `i` up to the largest power `f64::MAX` needs.
static POW5_INV_SPLIT: [u128; 292] = pow5_inv_split();

/// The bit length of `5^e` for `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Word `k` of the little-endian integer `n`, zero past its end.
const fn word(n: &[u64; WORDS], k: usize) -> u64 {
    if k < WORDS {
        n[k]
    } else {
        0
    }
}

/// Bits `shift..shift + 128` of `n`.
const fn bits_from(n: &[u64; WORDS], shift: usize) -> u128 {
    let (k, offset) = (shift / 64, shift % 64);
    let low = (word(n, k) as u128 | (word(n, k + 1) as u128) << 64) >> offset;
    if offset == 0 {
        low
    } else {
        low | (word(n, k + 2) as u128) << (128 - offset)
    }
}

const fn pow5_split() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow = [0u64; WORDS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5bits(i as i32);
        table[i] = if bits > POW5_BITCOUNT {
            bits_from(&pow, (bits - POW5_BITCOUNT) as usize)
        } else {
            bits_from(&pow, 0) << (POW5_BITCOUNT - bits)
        };
        // pow *= 5
        let mut carry = 0u64;
        let mut k = 0;
        while k < WORDS {
            let product = pow[k] as u128 * 5 + carry as u128;
            pow[k] = product as u64;
            carry = (product >> 64) as u64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; 292] {
    let mut table = [0; 292];
    // quotient = ⌊2^INV_SHIFT / 5^i⌋; dividing it by 5 steps i, and its
    // top bits are ⌊2^j / 5^i⌋ for every j <= INV_SHIFT.
    let mut quotient = [0u64; WORDS];
    quotient[INV_SHIFT / 64] = 1 << (INV_SHIFT % 64);
    let mut i = 0;
    while i < table.len() {
        let j = pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT;
        table[i] = bits_from(&quotient, INV_SHIFT - j as usize) + 1;
        // quotient /= 5
        let mut remainder = 0u128;
        let mut k = WORDS;
        while k > 0 {
            k -= 1;
            let dividend = remainder << 64 | quotient[k] as u128;
            quotient[k] = (dividend / 5) as u64;
            remainder = dividend % 5;
        }
        i += 1;
    }
    table
}

/// `⌊m × mul / 2^j⌋` for `j >= 64`, of a 64-bit `m` and a 125-bit `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Whether `value` (not zero) is a multiple of `5^p`.
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut factor = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        factor += 1;
    }
    factor >= p
}

/// The shortest `(digits, exponent)` such that `digits × 10^exponent`
/// reads back as `value`, which must be finite and positive; `(0, 0)` for
/// zero. Of two equally short candidates equally close to `value`, the
/// larger.
pub(crate) fn shortest(value: f64) -> (u64, i32) {
    let bits = value.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        return (0, 0);
    }
    // Two extra bits, so the interval bounds below are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-to-even reading puts an even mantissa's bounds inside its
    // interval.
    let accept_bounds = m2.is_multiple_of(2);
    // The interval is [mm, mp] around mv, scaled by 4; the gap below a
    // power of two is half the gap above it.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    // The interval scaled by 10^-e10, truncated to integers. `vm` is
    // exact (accepting it is safe) if the truncation dropped only zeros.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let i = -e2 + q as i32 + POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, i),
            mul_shift(mp, mul, i),
            mul_shift(mm, mul, i),
        );
        // At most one of mm, mv and mp is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5bits(i) - POW5_BITCOUNT);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mm has a trailing zero bit iff mm_shift is 1; mp always does.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: vm stays a candidate only while every digit cut off it is 0.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // An exact tie has last_removed == 5 and rounds up.
        let out_of_bounds = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        vr + u64::from(out_of_bounds || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_reference_entries() {
        // Entries of the published Ryū tables (low word, high word).
        let split = |low: u64, high: u64| u128::from(high) << 64 | u128::from(low);
        assert_eq!(POW5_SPLIT[0], split(0, 1_152_921_504_606_846_976));
        assert_eq!(POW5_SPLIT[1], split(0, 1_441_151_880_758_558_720));
        assert_eq!(POW5_INV_SPLIT[0], split(1, 2_305_843_009_213_693_952));
        assert_eq!(
            POW5_INV_SPLIT[1],
            split(11_068_046_444_225_730_970, 1_844_674_407_370_955_161)
        );
    }

    #[test]
    fn pow5bits_is_the_bit_length_of_every_tabled_power() {
        let mut pow = [0u64; WORDS];
        pow[0] = 1;
        for e in 0..POW5_SPLIT.len() as i32 {
            let top = (0..WORDS).rev().find(|&k| pow[k] != 0).unwrap();
            let bits = 64 * top as i32 + 64 - pow[top].leading_zeros() as i32;
            assert_eq!(pow5bits(e), bits, "5^{e}");
            let mut carry = 0u128;
            for w in &mut pow {
                let product = u128::from(*w) * 5 + carry;
                *w = product as u64;
                carry = product >> 64;
            }
        }
    }

    #[test]
    fn digits_and_exponents() {
        assert_eq!(shortest(0.0), (0, 0));
        assert_eq!(shortest(1.0), (1, 0));
        assert_eq!(shortest(0.3), (3, -1));
        assert_eq!(shortest(1e21), (1, 21));
        assert_eq!(shortest(5e-324), (5, -324));
        assert_eq!(shortest(f64::MAX), (17_976_931_348_623_157, 292));
        assert_eq!(shortest(f64::MIN_POSITIVE), (22_250_738_585_072_014, -324));
        // 1658206780088562.25, an exact tie: reference Ryū would round
        // it to ...562 (even).
        assert_eq!(
            shortest(f64::from_bits(0x4317_9085_685d_83c9)),
            (16_582_067_800_885_623, -1)
        );
    }
}
