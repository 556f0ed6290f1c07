//! The stable 64-bit FNV-1a hash behind every persisted state fingerprint.
//!
//! The daemon's WAL checkpoints store a digest of the core and service
//! state that a later process must recompute bit for bit, so the hash
//! cannot be [`std::hash::DefaultHasher`] (randomly seeded per process)
//! and must encode integers in a fixed byte order.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// [`Fnv1a::write_u64`] and [`Fnv1a::write_f64`] hash fixed-width
/// little-endian words. [`Fnv1a::field`] hashes a variable-length field
/// followed by a `0xff` separator, so `("ab", "c")` and `("a", "bc")`
/// hash differently.
///
/// # Examples
///
/// ```
/// use etrain_obs::Fnv1a;
///
/// let mut a = Fnv1a::new();
/// a.field(b"ab");
/// a.field(b"c");
/// let mut b = Fnv1a::new();
/// b.field(b"a");
/// b.field(b"bc");
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Hashes `bytes` as they are.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Hashes `bytes` and then the `0xff` field separator.
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0xff]);
    }

    /// Hashes `v` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Hashes the bit pattern of `v` as 8 little-endian bytes.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn field_is_bytes_then_separator_and_words_are_little_endian() {
        let mut field = Fnv1a::new();
        field.field(b"xy");
        let mut raw = Fnv1a::new();
        raw.write(b"xy\xff");
        assert_eq!(field, raw);

        let mut word = Fnv1a::new();
        word.write_u64(0x0102_0304_0506_0708);
        let mut bytes = Fnv1a::new();
        bytes.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word, bytes);
    }

    #[test]
    fn floats_hash_their_bit_pattern() {
        let digest = |write: &dyn Fn(&mut Fnv1a)| {
            let mut h = Fnv1a::new();
            write(&mut h);
            h.finish()
        };
        let bits = digest(&|h| h.write_u64(1.5f64.to_bits()));
        assert_eq!(digest(&|h| h.write_f64(1.5)), bits);
        assert_ne!(
            digest(&|h| h.write_f64(0.0)),
            digest(&|h| h.write_f64(-0.0))
        );
    }
}
