//! `push_f64` against std's float `Display` on ten million values.
//!
//! The journal, the state fingerprints and the WAL records spell a float
//! as its shortest round-trip digits, exact ties rounded up, never in
//! exponent form, with `.0` when integral and `null` when not finite.
//! std's `format!("{v}")` prints the same digits in the same layout, save
//! the `.0` and the `null`, so it is the reference here. The sample draws
//! random bit patterns, subnormals, every power of two, the powers of ten
//! from 1e-323 to 1e308, integers near 2^53 and values in [0, 1e6), each
//! with both signs where the sign is drawn.
//!
//! Ignored by default (a few seconds in a debug build); CI runs it with
//! `cargo test -p etrain-obs -- --include-ignored`.

use std::fmt::Write;

use etrain_obs::json::push_f64;

/// SplitMix64: a fixed, dependency-free stream of 64-bit values.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The sample, one category after another.
fn sample() -> Vec<f64> {
    let mut rng = SplitMix(0x5eed_f10a7);
    let mut values = Vec::with_capacity(10_300_000);
    // Random bit patterns, NaNs and infinities included.
    values.extend((0..4_000_000).map(|_| f64::from_bits(rng.next())));
    // Subnormals of either sign.
    values.extend((0..1_000_000).map(|_| {
        let bits = rng.next();
        f64::from_bits(bits & (1 << 63 | ((1 << 52) - 1)))
    }));
    // Every power of two, 2^-1074 to 2^1023, and the floats one ulp away.
    for e in -1074..=1023 {
        let power = power_of_two(e);
        values.extend([power, next_up(power), next_down(power)]);
    }
    // The powers of ten as literals read them, and their neighbours.
    for e in -323..=308 {
        let power: f64 = format!("1e{e}").parse().unwrap();
        values.extend([power, next_up(power), next_down(power)]);
    }
    // Integers within 100,000 of 2^53, where whole floats stop being
    // every integer.
    let two_pow_53 = (1u64 << 53) as f64;
    values.extend((0..100_000).flat_map(|k| [two_pow_53 - k as f64, two_pow_53 + 2.0 * k as f64]));
    // Everyday magnitudes, mostly 16 or 17 significant digits.
    values.extend((0..5_000_000).map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6));
    values
}

/// 2^e, built from its bits: subnormal below 2^-1022.
fn power_of_two(e: i32) -> f64 {
    if e < -1022 {
        f64::from_bits(1 << (e + 1074))
    } else {
        f64::from_bits(((e + 1023) as u64) << 52)
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// The contract's spelling of `v`, built from std's `Display`.
fn reference(v: f64, out: &mut String) {
    out.clear();
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    write!(out, "{v}").unwrap();
    if !out.contains('.') {
        out.push_str(".0");
    }
}

#[test]
#[ignore = "ten million values; CI runs it with --include-ignored"]
fn push_f64_spells_ten_million_floats_as_std_display_does() {
    let values = sample();
    assert!(values.len() >= 10_000_000, "{}", values.len());
    let (mut ours, mut std) = (String::new(), String::new());
    let mut mismatches = Vec::new();
    for &v in &values {
        ours.clear();
        push_f64(&mut ours, v);
        reference(v, &mut std);
        if ours != std && mismatches.len() < 10 {
            mismatches.push(format!("{:#018x}: {ours} != {std}", v.to_bits()));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
