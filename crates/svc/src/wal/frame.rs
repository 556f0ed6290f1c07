//! The checksummed on-disk frame format of a WAL segment.
//!
//! A *segment* is a byte stream beginning with [`WAL_MAGIC`] followed by
//! zero or more *frames*; each frame is
//!
//! ```text
//! [payload length: u32 LE][CRC-32 of payload: u32 LE][payload bytes]
//! ```
//!
//! The format is deliberately dumb: no compression, no index, no
//! self-describing schema — the payload is one serialized command. What
//! the framing *does* buy is crash safety: a reader can always classify
//! the tail of a segment as clean, torn (an append that died partway),
//! or corrupt (bit rot or a misdirected write), and truncate to the last
//! frame whose checksum verifies. Recovery never trusts bytes past that
//! point.
//!
//! The writer only ever writes whole frames. The damaged tails the
//! reader must classify (a short header, a torn payload, a flipped
//! checksum) are made by the tests themselves, as byte surgery on
//! segments the writer produced.

use std::io::Write;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Magic bytes opening every WAL segment (8 bytes, versioned).
pub const WAL_MAGIC: [u8; 8] = *b"ETWAL01\n";

/// Size of one frame header: payload length + CRC-32, both `u32` LE.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on a single frame's payload. A length field above this is
/// treated as corruption rather than an allocation request: no legitimate
/// record (a JSON-serialized command) comes anywhere close.
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table of the
/// reflected IEEE polynomial, and `CRC_TABLES[k][i]` is the CRC of byte
/// `i` followed by `k` zero bytes, so eight table lookups advance the
/// CRC over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the checksum every frame
/// carries. Table-driven (slicing-by-8), no dependencies.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Writes one frame of `payload` to `sink`: header and payload through
/// one `write_all` each. Returns the bytes written, so a caller can track
/// a segment's size. Durability (fsync) is the caller's policy, and so is
/// the segment's leading [`WAL_MAGIC`].
///
/// # Errors
///
/// Propagates the sink's write error; after one the segment tail must be
/// considered torn.
pub fn write_frame(sink: &mut impl Write, payload: &[u8]) -> std::io::Result<u64> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    sink.write_all(&header)?;
    sink.write_all(payload)?;
    Ok((FRAME_HEADER_BYTES + payload.len()) as u64)
}

/// Verdict on the tail of a scanned segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TailStatus {
    /// Every byte belongs to a verified frame.
    Clean,
    /// The segment does not start with [`WAL_MAGIC`]; nothing was read.
    BadMagic,
    /// The final frame is incomplete — a header or payload cut short by
    /// a crash. Everything before `valid_bytes` verified.
    Torn {
        /// Prefix length (bytes) covering all verified frames.
        valid_bytes: u64,
    },
    /// The final frame is complete but fails its checksum (or declares
    /// an impossible length). Everything before `valid_bytes` verified.
    Corrupt {
        /// Prefix length (bytes) covering all verified frames.
        valid_bytes: u64,
    },
}

/// Result of scanning one segment without copying it: where each
/// verified payload lies in the scanned bytes, and the verdict on the
/// tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Byte ranges of every payload whose checksum verified, oldest
    /// first.
    pub frames: Vec<Range<usize>>,
    /// What the scan found at the end of the segment.
    pub tail: TailStatus,
}

impl FrameScan {
    /// Byte length of the verified prefix (magic + verified frames).
    pub fn valid_bytes(&self) -> u64 {
        match self.tail {
            TailStatus::BadMagic => 0,
            _ => self.frames.last().map_or(WAL_MAGIC.len(), |r| r.end) as u64,
        }
    }
}

/// Scans a segment's bytes, verifying every frame checksum.
///
/// Never fails: damage is reported through [`TailStatus`], and the
/// verified prefix is always usable. A frame with a length field above
/// 16 MiB is classified as corrupt (an absurd length is
/// indistinguishable from bit rot in the header).
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return FrameScan {
            frames: Vec::new(),
            tail: TailStatus::BadMagic,
        };
    }
    let mut frames = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let tail = loop {
        if pos == bytes.len() {
            break TailStatus::Clean;
        }
        let valid_bytes = pos as u64;
        if bytes.len() - pos < FRAME_HEADER_BYTES {
            break TailStatus::Torn { valid_bytes };
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_FRAME_BYTES {
            break TailStatus::Corrupt { valid_bytes };
        }
        let body_start = pos + FRAME_HEADER_BYTES;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            break TailStatus::Torn { valid_bytes };
        }
        if crc32(&bytes[body_start..body_end]) != crc {
            break TailStatus::Corrupt { valid_bytes };
        }
        frames.push(body_start..body_end);
        pos = body_end;
    };
    FrameScan { frames, tail }
}

/// A damaged tail for the tests to write: the part of one frame that a
/// failure mid-append, or damage after it, leaves on disk.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Damage {
    /// The header and the first half of the payload (rounded down): a
    /// process killed mid-`write`.
    TornPayload,
    /// The first 4 header bytes (the length field) alone: the cut landed
    /// inside the header.
    ShortHeader,
    /// The whole frame with its checksum bitwise inverted: the payload is
    /// there but provably untrustworthy (bit rot, a misdirected write).
    FlipChecksum,
}

#[cfg(test)]
impl Damage {
    /// The bytes of a frame of `payload` with this damage done to it.
    pub(crate) fn frame(self, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload).expect("a Vec takes every write");
        match self {
            Damage::TornPayload => frame.truncate(FRAME_HEADER_BYTES + payload.len() / 2),
            Damage::ShortHeader => frame.truncate(4),
            Damage::FlipChecksum => {
                for b in &mut frame[4..FRAME_HEADER_BYTES] {
                    *b = !*b;
                }
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan of `bytes`, with its verified payloads copied out.
    fn scan_segment(bytes: &[u8]) -> (FrameScan, Vec<Vec<u8>>) {
        let scan = scan_frames(bytes);
        let payloads = scan
            .frames
            .iter()
            .map(|r| bytes[r.clone()].to_vec())
            .collect();
        (scan, payloads)
    }

    /// A segment: the magic, then one clean frame per payload.
    fn frame_up(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for p in payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        bytes
    }

    /// The plain bytewise table loop, as the reference the sliced one
    /// must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        let buf: Vec<u8> = (0..4_096).map(|_| noise()).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len={len}");
        }
        // Unaligned starts and lengths over the 8-byte stride.
        for _ in 0..200 {
            let start = usize::from(noise()) % 61;
            let len = usize::from(noise()) * 13 % 3_000;
            let slice = &buf[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}+{len}");
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_scan_ranges_locate_the_payloads_in_place() {
        let mut bytes = frame_up(&[b"alpha", b"", b"gamma"]);
        bytes.extend(Damage::TornPayload.frame(b"delta"));
        let scan = scan_frames(&bytes);
        let payloads: Vec<&[u8]> = scan.frames.iter().map(|r| &bytes[r.clone()]).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], b"", b"gamma"]);
        assert_eq!(scan.valid_bytes(), scan.frames[2].end as u64);
        assert_eq!(scan_frames(b"nope").valid_bytes(), 0);
        assert_eq!(
            scan_frames(&WAL_MAGIC).valid_bytes(),
            WAL_MAGIC.len() as u64
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn frame_is_length_then_crc_little_endian_then_payload() {
        let bytes = frame_up(&[b"abc"]);
        let mut want = WAL_MAGIC.to_vec();
        want.extend_from_slice(&3u32.to_le_bytes());
        want.extend_from_slice(&crc32(b"abc").to_le_bytes());
        want.extend_from_slice(b"abc");
        assert_eq!(bytes, want);
    }

    #[test]
    fn clean_segment_round_trips() {
        let bytes = frame_up(&[b"alpha", b"", b"gamma-longer-payload"]);
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(
            payloads,
            vec![
                b"alpha".to_vec(),
                Vec::new(),
                b"gamma-longer-payload".to_vec()
            ]
        );
        assert_eq!(scan.valid_bytes(), bytes.len() as u64);
    }

    #[test]
    fn empty_segment_is_clean() {
        let bytes = frame_up(&[]);
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert!(payloads.is_empty());
    }

    #[test]
    fn bad_magic_is_detected() {
        let (scan, payloads) = scan_segment(b"NOTAWAL!rest");
        assert_eq!(scan.tail, TailStatus::BadMagic);
        assert!(payloads.is_empty());
        assert_eq!(scan.valid_bytes(), 0);
    }

    #[test]
    fn torn_payload_truncates_at_last_valid_frame() {
        let mut bytes = frame_up(&[b"first"]);
        let valid = bytes.len() as u64;
        bytes.extend(Damage::TornPayload.frame(b"second-payload"));
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Torn { valid_bytes: valid });
        assert_eq!(payloads, vec![b"first".to_vec()]);
        assert_eq!(scan.valid_bytes(), valid);
    }

    #[test]
    fn torn_payload_keeps_half_the_payload_rounded_down() {
        for len in [1usize, 7, 14, 80] {
            let payload = vec![0x5a; len];
            let mut bytes = frame_up(&[b"first"]);
            let valid = bytes.len();
            bytes.extend(Damage::TornPayload.frame(&payload));
            assert_eq!(
                bytes.len(),
                valid + FRAME_HEADER_BYTES + len / 2,
                "len={len}"
            );
            // The header still promises the whole payload.
            let promised = u32::from_le_bytes(bytes[valid..valid + 4].try_into().unwrap());
            assert_eq!(promised as usize, len, "len={len}");
            assert_eq!(&bytes[valid + FRAME_HEADER_BYTES..], &payload[..len / 2]);
        }
    }

    #[test]
    fn faulty_writes_return_their_bytes_but_add_no_frame() {
        for damage in [
            Damage::TornPayload,
            Damage::ShortHeader,
            Damage::FlipChecksum,
        ] {
            let mut bytes = frame_up(&[b"first"]);
            let before = bytes.len() as u64;
            bytes.extend(damage.frame(b"second-payload"));
            let scan = scan_frames(&bytes);
            assert_eq!(scan.frames.len(), 1, "{damage:?}");
            assert_eq!(scan.valid_bytes(), before, "{damage:?}");
        }
    }

    #[test]
    fn short_header_is_torn() {
        let mut bytes = frame_up(&[b"first"]);
        let valid = bytes.len() as u64;
        bytes.extend(Damage::ShortHeader.frame(b"second"));
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Torn { valid_bytes: valid });
        assert_eq!(payloads.len(), 1);
    }

    #[test]
    fn flipped_checksum_is_corrupt() {
        let mut bytes = frame_up(&[b"first"]);
        let valid = bytes.len() as u64;
        bytes.extend(Damage::FlipChecksum.frame(b"second"));
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Corrupt { valid_bytes: valid });
        assert_eq!(payloads, vec![b"first".to_vec()]);
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let mut bytes = frame_up(&[b"ok"]);
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Corrupt { valid_bytes: valid });
        assert_eq!(payloads.len(), 1);
    }

    #[test]
    fn flipped_payload_bit_is_corrupt() {
        let mut bytes = frame_up(&[b"first", b"second"]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let (scan, payloads) = scan_segment(&bytes);
        assert!(matches!(scan.tail, TailStatus::Corrupt { .. }));
        assert_eq!(payloads, vec![b"first".to_vec()]);
    }

    #[test]
    fn writing_into_a_scanned_segment_continues_it() {
        let mut bytes = frame_up(&[b"one"]);
        assert_eq!(scan_frames(&bytes).valid_bytes(), bytes.len() as u64);
        write_frame(&mut bytes, b"two").unwrap();
        let (scan, payloads) = scan_segment(&bytes);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(payloads, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn a_clean_write_returns_the_frame_length() {
        let mut bytes = Vec::new();
        assert_eq!(
            write_frame(&mut bytes, b"abc").unwrap(),
            (FRAME_HEADER_BYTES + 3) as u64
        );
        assert_eq!(
            write_frame(&mut bytes, b"").unwrap(),
            FRAME_HEADER_BYTES as u64
        );
        assert_eq!(bytes.len(), 2 * FRAME_HEADER_BYTES + 3);
    }

    /// A sink that takes `room` bytes and then fails every write.
    struct FullDisk {
        bytes: Vec<u8>,
        room: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.room - self.bytes.len());
            if n == 0 && !buf.is_empty() {
                return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"));
            }
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_errors_and_leaves_a_torn_tail() {
        let clean = frame_up(&[b"first"]);
        // Out of room inside the header, then inside the payload.
        for room in [clean.len() + 3, clean.len() + FRAME_HEADER_BYTES + 2] {
            let mut disk = FullDisk {
                bytes: clean.clone(),
                room,
            };
            let err = write_frame(&mut disk, b"second").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
            assert_eq!(disk.bytes.len(), room);
            let (scan, payloads) = scan_segment(&disk.bytes);
            assert_eq!(
                scan.tail,
                TailStatus::Torn {
                    valid_bytes: clean.len() as u64
                },
                "room={room}"
            );
            assert_eq!(payloads, vec![b"first".to_vec()]);
        }
    }

    #[test]
    fn a_length_at_the_limit_is_a_torn_frame_not_a_corrupt_one() {
        // The limit is inclusive: a header promising exactly 16 MiB is a
        // frame whose payload never arrived, one byte more is bit rot.
        for (len, torn) in [(MAX_FRAME_BYTES, true), (MAX_FRAME_BYTES + 1, false)] {
            let mut bytes = frame_up(&[b"ok"]);
            let valid_bytes = bytes.len() as u64;
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(b"partial");
            let want = if torn {
                TailStatus::Torn { valid_bytes }
            } else {
                TailStatus::Corrupt { valid_bytes }
            };
            assert_eq!(scan_frames(&bytes).tail, want, "len={len}");
        }
    }

    #[test]
    fn damage_in_an_early_frame_distrusts_every_later_one() {
        let payloads: [&[u8]; 3] = [b"first", b"second", b"third"];
        let bytes = frame_up(&payloads);
        let first_end = (WAL_MAGIC.len() + FRAME_HEADER_BYTES + payloads[0].len()) as u64;
        let mut damaged = bytes.clone();
        // The first byte of the second payload.
        damaged[first_end as usize + FRAME_HEADER_BYTES] ^= 0x80;
        let (scan, kept) = scan_segment(&damaged);
        assert_eq!(
            scan.tail,
            TailStatus::Corrupt {
                valid_bytes: first_end
            }
        );
        // The third frame still verifies on its own, but follows the
        // damage, so the scan never reaches it.
        assert_eq!(kept, vec![b"first".to_vec()]);
        assert_eq!(scan.valid_bytes(), first_end);
    }

    #[test]
    fn only_the_exact_magic_opens_a_segment() {
        let mut other_version = frame_up(&[b"x"]);
        other_version[6] = b'2';
        for bytes in [&b""[..], &WAL_MAGIC[..7], &other_version] {
            let scan = scan_frames(bytes);
            assert_eq!(scan.tail, TailStatus::BadMagic, "{bytes:?}");
            assert!(scan.frames.is_empty());
        }
    }

    #[test]
    fn each_fault_writes_the_bytes_it_names() {
        let payload = b"payload!";
        let mut clean = Vec::new();
        write_frame(&mut clean, payload).unwrap();

        let short = Damage::ShortHeader.frame(payload);
        assert_eq!(short, clean[..4].to_vec(), "the length field alone");

        let flipped = Damage::FlipChecksum.frame(payload);
        assert_eq!(flipped.len(), clean.len());
        assert_eq!(flipped[..4], clean[..4]);
        assert_eq!(
            u32::from_le_bytes(flipped[4..8].try_into().unwrap()),
            !crc32(payload)
        );
        assert_eq!(flipped[FRAME_HEADER_BYTES..], payload[..]);

        let torn = Damage::TornPayload.frame(payload);
        assert_eq!(
            torn,
            clean[..FRAME_HEADER_BYTES + payload.len() / 2].to_vec()
        );
    }
}
