//! Canonical JSON scalars: the one place that decides how an integer, a
//! float, a boolean and a string are spelled.
//!
//! "Canonical" means the bytes the serde shim's `serde_json::to_string`
//! writes. Three persisted formats are made of them: the
//! `etrain-journal-v1` event journal, the per-request sections of the
//! state fingerprints that WAL checkpoints store, and the daemon's WAL
//! records. The `push_*` writers append those bytes to a [`Sink`] (a
//! `String`, or a byte line checked as UTF-8 once) directly, without
//! building a `Value` tree or going through `std::fmt`, and allocate
//! nothing into a buffer with room.
//!
//! The spelling is a contract:
//!
//! - an integer is its decimal digits, without sign or leading zero;
//! - a finite float is its shortest round-trip decimal digits (of two
//!   equally near candidates, an exact tie, the larger in magnitude:
//!   `1658206780088562.25` is `1658206780088562.3`), preceded by `-`
//!   when its sign bit is set (`-0.0` included), never in exponent form
//!   (`1e21` is `1000000000000000000000.0`, `5e-324` is `0.` then 323
//!   zeros then `5`), with `.0` appended when no fraction remains;
//! - a NaN or an infinity is `null`;
//! - a string is quoted, with `"`, `\\`, `\n`, `\r`, `\t`, backspace and
//!   form feed escaped by name, other control characters as `\u00xx` in
//!   lowercase hex, everything else raw UTF-8.
//!
//! The float digits come from an in-crate Ryū (Adams, PLDI 2018) that
//! rounds ties up instead of to even.
//!
//! [`Reader`] goes the other way for hand-written record readers. It
//! accepts only the canonical spelling of each scalar and answers `None`
//! for anything else (whitespace, an integer where a float belongs, an
//! escape the writer never emits, ...). A caller then falls back to
//! `serde_json::from_str`, which accepts every spelling; whatever the
//! reader does accept, it decodes to the value serde would.

use crate::ryu;

/// A buffer the writers append to: a `String`, or the bytes of a line a
/// caller turns into one with a single UTF-8 check (every writer appends
/// whole UTF-8, so a valid buffer stays valid).
pub trait Sink {
    /// Appends `s`.
    fn push_text(&mut self, s: &str);
    /// Appends `bytes`, which are ASCII.
    fn push_ascii(&mut self, bytes: &[u8]);
}

impl Sink for String {
    fn push_text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn push_ascii(&mut self, bytes: &[u8]) {
        // ASCII, so the check always passes.
        self.push_str(std::str::from_utf8(bytes).unwrap_or_default());
    }
}

impl Sink for Vec<u8> {
    fn push_text(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn push_ascii(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Appends `true` or `false`.
pub fn push_bool(out: &mut impl Sink, value: bool) {
    out.push_text(if value { "true" } else { "false" });
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut impl Sink, n: u64) {
    let mut buf = [0; 20];
    out.push_ascii(decimal(n, &mut buf));
}

/// Appends `n` in decimal, or `null` for `None`.
pub fn push_u64_or_null(out: &mut impl Sink, n: Option<u64>) {
    match n {
        Some(n) => push_u64(out, n),
        None => out.push_text("null"),
    }
}

/// Appends a float as its shortest round-trip digits (exact ties rounded
/// up), never in exponent form, with `.0` added when no fraction remains;
/// non-finite values are `null`.
pub fn push_f64(out: &mut impl Sink, value: f64) {
    if !value.is_finite() {
        out.push_text("null");
        return;
    }
    if value.is_sign_negative() {
        out.push_text("-");
    }
    let value = value.abs();
    let mut buf = [0; 20];
    // Below 2^53 every integral float is an exact integer whose shortest
    // digits are its decimal digits; most persisted times are whole.
    if value < TWO_POW_53 && (value as u64) as f64 == value {
        out.push_ascii(decimal(value as u64, &mut buf));
        out.push_text(".0");
        return;
    }
    let (mantissa, exponent) = ryu::shortest(value);
    let digits = decimal(mantissa, &mut buf);
    // Digits before the decimal point.
    let point = digits.len() as i32 + exponent;
    if exponent >= 0 {
        out.push_ascii(digits);
        push_zeros(out, exponent as usize);
        out.push_text(".0");
    } else if point > 0 {
        let (whole, fraction) = digits.split_at(point as usize);
        out.push_ascii(whole);
        out.push_text(".");
        out.push_ascii(fraction);
    } else {
        out.push_text("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_ascii(digits);
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\\`, `\n`, `\r`, `\t`,
/// backspace and form feed escaped by name, other control characters as
/// `\u00xx`, everything else as raw UTF-8.
pub fn push_str(out: &mut impl Sink, s: &str) {
    out.push_text("\"");
    // Copy the runs between escapes whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        out.push_text(&s[run..i]);
        run = i + 1;
        if named.is_empty() {
            out.push_text("\\u00");
            out.push_ascii(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xF)]]);
        } else {
            out.push_text(named);
        }
    }
    out.push_text(&s[run..]);
    out.push_text("\"");
}

/// 2^53: below it every integer is exactly representable as an `f64`.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// Lowercase hexadecimal digits.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// `"00"`, `"01"`, ..., `"99"`, back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `n`'s decimal digits, written two at a time into the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + n as u8;
    }
    &buf[start..]
}

/// Appends `n` zeros.
fn push_zeros(out: &mut impl Sink, mut n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.push_text(&ZEROS[..run]);
        n -= run;
    }
}

/// A cursor over canonical JSON bytes (see the [module docs](self)).
///
/// Every method either consumes exactly one canonical token and returns
/// it, or returns `None`; after a `None` the position is unspecified and
/// the reader should be dropped.
///
/// # Examples
///
/// ```
/// use etrain_obs::json::Reader;
///
/// let mut r = Reader::new(br#"{"now_s":12.5}"#);
/// assert!(r.eat(br#"{"now_s":"#));
/// assert_eq!(r.f64(), Some(12.5));
/// assert!(r.eat(b"}") && r.is_at_end());
///
/// // An integer where a float belongs is valid JSON, but not canonical.
/// assert_eq!(Reader::new(b"12").f64(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Consumes `literal` if the input continues with it.
    pub fn eat(&mut self, literal: &[u8]) -> bool {
        match self.bytes.get(self.pos..self.pos + literal.len()) {
            Some(next) if next == literal => {
                self.pos += literal.len();
                true
            }
            _ => false,
        }
    }

    /// Consumes `literal`, or answers `None`.
    pub fn expect(&mut self, literal: &[u8]) -> Option<()> {
        self.eat(literal).then_some(())
    }

    /// A run of ASCII digits, at least one long.
    fn digits(&mut self) -> Option<&'a [u8]> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.bytes[start..self.pos])
    }

    /// A non-negative integer written without sign, exponent or leading
    /// zero, that fits a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let digits = self.digits()?;
        if digits.len() > 1 && digits[0] == b'0' {
            return None;
        }
        digits.iter().try_fold(0u64, |n, &d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })
    }

    /// A float as [`push_f64`] writes a finite one: an optional `-`,
    /// integer digits without a leading zero, `.`, fraction digits.
    pub fn f64(&mut self) -> Option<f64> {
        let start = self.pos;
        let negative = self.eat(b"-");
        let whole = self.digits()?;
        if whole.len() > 1 && whole[0] == b'0' {
            return None;
        }
        self.expect(b".")?;
        let fraction = self.digits()?;
        // Shortest digits never end in a zero, save the `.0` of a whole.
        if fraction.len() > 1 && fraction.ends_with(b"0") {
            return None;
        }
        if fraction == b"0" && whole.len() <= 15 {
            // Fewer than 16 digits stay below 2^53, so the integer is the
            // float exactly: the same value `str::parse` rounds to.
            let n = whole
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            let value = n as f64;
            return Some(if negative { -value } else { value });
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// A quoted string with only the escapes [`push_str`] writes.
    pub fn string(&mut self) -> Option<String> {
        self.expect(b"\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    let escape = *self.bytes.get(self.pos + 1)?;
                    self.pos += 2;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'u' => self.control_escape()?,
                        _ => return None,
                    });
                }
                _ => return None, // a raw control character
            }
        }
    }

    /// The `00xx` after `\u`, with `xx` two lowercase hex digits naming a
    /// control character that has no named escape.
    fn control_escape(&mut self) -> Option<char> {
        let hex = self.bytes.get(self.pos..self.pos + 4)?;
        let nibble = |b: u8| match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        };
        if &hex[..2] != b"00" {
            return None;
        }
        let code = nibble(hex[2])? << 4 | nibble(hex[3])?;
        if code >= 0x20 || matches!(code, 0x08 | 0x09 | 0x0A | 0x0C | 0x0D) {
            return None;
        }
        self.pos += 4;
        Some(char::from(code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(push: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        push(&mut out);
        out
    }

    #[test]
    fn writers_match_the_serde_shim() {
        for n in [0, 1, 9, 10, 12_345, u64::MAX] {
            assert_eq!(
                written(|o| push_u64(o, n)),
                serde_json::to_string(&n).unwrap()
            );
        }
        for n in [None, Some(0), Some(u64::MAX)] {
            assert_eq!(
                written(|o| push_u64_or_null(o, n)),
                serde_json::to_string(&n).unwrap()
            );
        }
        for b in [true, false] {
            assert_eq!(
                written(|o| push_bool(o, b)),
                serde_json::to_string(&b).unwrap()
            );
        }
        for x in [
            0.0,
            -0.0,
            0.1,
            1e-7,
            -2.5,
            123_456.789,
            TWO_POW_53,
            TWO_POW_53 + 2.0,
            -1e20,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(
                written(|o| push_f64(o, x)),
                serde_json::to_string(&x).unwrap()
            );
        }
        let s = "q\"b\\n\nr\rt\tb\u{8}f\u{c}c\u{1}\u{1f}\u{7f}é雪🚂".to_string();
        assert_eq!(
            written(|o| push_str(o, &s)),
            serde_json::to_string(&s).unwrap()
        );
    }

    #[test]
    fn float_spelling_edges_are_pinned() {
        let zeros = |n: usize| "0".repeat(n);
        for (x, text) in [
            // Exact ties between two shortest candidates round up: these
            // are 1658206780088562.25 and 233115890514796.125, which a
            // half-to-even port would print as ...562.2 and ...796.12.
            (
                f64::from_bits(0x4317_9085_685d_83c9),
                "1658206780088562.3".to_string(),
            ),
            (
                f64::from_bits(0x42ea_8090_bb0f_6d84),
                "233115890514796.13".to_string(),
            ),
            (5e-324, format!("0.{}5", zeros(323))),
            (
                f64::MIN_POSITIVE,
                format!("0.{}22250738585072014", zeros(307)),
            ),
            (TWO_POW_53, "9007199254740992.0".to_string()),
            (TWO_POW_53 - 1.0, "9007199254740991.0".to_string()),
            (TWO_POW_53 + 2.0, "9007199254740994.0".to_string()),
            // Never exponent form, however large.
            (1e21, format!("1{}.0", zeros(21))),
            (1e300, format!("1{}.0", zeros(300))),
            (-0.0, "-0.0".to_string()),
        ] {
            assert_eq!(written(|o| push_f64(o, x)), text, "{:#x}", x.to_bits());
        }
    }

    #[test]
    fn reader_takes_back_what_the_writers_write() {
        for n in [0, 7, 10, 4_000, u64::MAX] {
            let text = written(|o| push_u64(o, n));
            let mut r = Reader::new(text.as_bytes());
            assert_eq!(r.u64(), Some(n));
            assert!(r.is_at_end());
        }
        for x in [
            0.0,
            -0.0,
            0.1,
            1e-7,
            -2.5,
            123_456.789,
            TWO_POW_53 + 2.0,
            1e300,
        ] {
            let text = written(|o| push_f64(o, x));
            let mut r = Reader::new(text.as_bytes());
            assert_eq!(r.f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
            assert!(r.is_at_end());
        }
        let s = "q\"b\\\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}é雪🚂";
        let text = written(|o| push_str(o, s));
        let mut r = Reader::new(text.as_bytes());
        assert_eq!(r.string().as_deref(), Some(s));
        assert!(r.is_at_end());
    }

    #[test]
    fn reader_refuses_spellings_the_writers_never_use() {
        for text in ["007", "-1", "18446744073709551616", "", "1e3"] {
            let mut r = Reader::new(text.as_bytes());
            assert!(r.u64().is_none() || !r.is_at_end(), "{text}");
        }
        for text in ["1", "01.5", ".5", "1.", "1.50", "-", "1e3", "null"] {
            let mut r = Reader::new(text.as_bytes());
            assert!(r.f64().is_none() || !r.is_at_end(), "{text}");
        }
        for text in [
            "\"\\/\"",
            "\"\\u0041\"",
            "\"\\u000A\"",
            "\"\\u000a\"",
            "\"raw\ttab\"",
            "\"open",
            "\"\\",
        ] {
            assert_eq!(Reader::new(text.as_bytes()).string(), None, "{text}");
        }
        assert_eq!(Reader::new(b"\"\xff\"").string(), None);
    }

    #[test]
    fn a_mismatched_literal_consumes_nothing() {
        let mut r = Reader::new(br#"{"a":1}"#);
        assert!(!r.eat(br#"{"b":"#));
        assert!(!r.eat(br#"{"a":1}, more"#), "past the end");
        assert_eq!(r.expect(b"["), None);
        assert!(r.eat(br#"{"a":"#));
        assert_eq!(r.u64(), Some(1));
        assert!(r.eat(b"}") && r.is_at_end());
        assert!(r.eat(b""), "the empty literal always matches");
    }

    #[test]
    fn whole_floats_of_sixteen_digits_or_more_read_back_exactly() {
        // Fifteen digits take the integer fast path, more go through
        // `str::parse`; both must land on the float that was written.
        for x in [
            999_999_999_999_999.0,
            1_000_000_000_000_000.0,
            TWO_POW_53 - 1.0,
            TWO_POW_53,
            -TWO_POW_53,
            1e20,
            -1e20,
            f64::MAX,
        ] {
            let text = written(|o| push_f64(o, x));
            assert!(text.ends_with(".0"), "{text}");
            let mut r = Reader::new(text.as_bytes());
            assert_eq!(r.f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn writers_append_to_what_the_buffer_holds() {
        let mut out = String::from("{\"k\":");
        push_f64(&mut out, 2.5);
        out.push(',');
        push_u64_or_null(&mut out, None);
        out.push(',');
        push_str(&mut out, "v");
        out.push(',');
        push_bool(&mut out, false);
        out.push('}');
        assert_eq!(out, r#"{"k":2.5,null,"v",false}"#);

        let mut r = Reader::new(out.as_bytes());
        assert!(r.eat(br#"{"k":"#));
        assert_eq!(r.f64(), Some(2.5));
        assert!(r.eat(b",null,"));
        assert_eq!(r.string().as_deref(), Some("v"));
        assert!(r.eat(b",false}") && r.is_at_end());
    }
}
