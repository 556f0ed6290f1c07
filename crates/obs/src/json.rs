//! Canonical JSON scalars: the one place that decides how an integer, a
//! float, a boolean and a string are spelled.
//!
//! "Canonical" means the bytes the serde shim's `serde_json::to_string`
//! writes. Three persisted formats are made of them: the
//! `etrain-journal-v1` event journal, the per-request sections of the
//! state fingerprints that WAL checkpoints store, and the daemon's WAL
//! records. The `push_*` writers append those bytes to a `String`
//! directly, without building a `Value` tree first.
//!
//! [`Reader`] goes the other way for hand-written record readers. It
//! accepts only the canonical spelling of each scalar and answers `None`
//! for anything else (whitespace, an integer where a float belongs, an
//! escape the writer never emits, ...). A caller then falls back to
//! `serde_json::from_str`, which accepts every spelling; whatever the
//! reader does accept, it decodes to the value serde would.

use std::fmt::Write;

/// Appends `true` or `false`.
pub fn push_bool(out: &mut String, value: bool) {
    out.push_str(if value { "true" } else { "false" });
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Appends `n` in decimal, or `null` for `None`.
pub fn push_u64_or_null(out: &mut String, n: Option<u64>) {
    match n {
        Some(n) => push_u64(out, n),
        None => out.push_str("null"),
    }
}

/// Appends a float as its shortest round-trip digits, never in exponent
/// form, with `.0` added when no fraction remains; non-finite values are
/// `null`.
pub fn push_f64(out: &mut String, value: f64) {
    if !value.is_finite() {
        out.push_str("null");
        return;
    }
    // Below 2^53 every integral float is an exact integer whose shortest
    // digits are its decimal digits; most persisted times are whole.
    if value.fract() == 0.0 && value.abs() < TWO_POW_53 {
        if value.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, value.abs() as u64);
        out.push_str(".0");
        return;
    }
    let start = out.len();
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "{value}");
    if !out[start..].contains('.') {
        out.push_str(".0");
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\\`, `\n`, `\r`, `\t`,
/// backspace and form feed escaped by name, other control characters as
/// `\u00xx`, everything else as raw UTF-8.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// 2^53: below it every integer is exactly representable as an `f64`.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

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
