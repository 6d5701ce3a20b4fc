//! Binary serialization for the multi-process transport.
//!
//! Payloads cross process boundaries as a compact binary encoding of
//! the serde data model, **not** as JSON text:
//! the JSON writer renders non-finite floats as `null` and round-trips
//! doubles through decimal strings, either of which would break the
//! byte-identity contract (log-score payloads legitimately carry
//! `-inf`, and every bit of every `f64` must survive the wire). Here
//! floats travel as raw IEEE-754 bit patterns and integers as
//! fixed-width little-endian words, so `decode(encode(x)) == x`
//! exactly, for every value the vendored serde can represent.
//!
//! Encoding is a [`Serializer`] sink: a value's serialization events
//! go straight into the frame, one tag per event, so no value tree is
//! built on the way out. Decoding builds a [`serde::Content`] tree and
//! lifts the target type out of it.
//!
//! Layout: one tag byte, then the payload —
//!
//! | tag | variant | payload |
//! |-----|---------|---------|
//! | 0 | `Null`  | — |
//! | 1 | `Bool(false)` | — |
//! | 2 | `Bool(true)`  | — |
//! | 3 | `U64`   | 8 bytes LE |
//! | 4 | `I64`   | 8 bytes LE |
//! | 5 | `F64`   | 8 bytes LE (`to_bits`) |
//! | 6 | `Str`   | u32 LE length + UTF-8 bytes |
//! | 7 | `Seq`   | u32 LE count + encoded items |
//! | 8 | `Map`   | u32 LE count + (u32 LE key length + key, value)* |
//!
//! # Hostile-input hardening
//!
//! Length and count fields arrive from the wire and are therefore
//! corruption- (or attacker-) controlled. Every declared length is
//! validated against what the frame can actually contain *before* any
//! allocation ([`MAX_WIRE_LEN`], and a count can never exceed the
//! remaining bytes — each encoded element occupies at least one), and
//! nesting depth is capped at [`MAX_WIRE_DEPTH`] so a pathological
//! `Seq`-of-`Seq` frame cannot overflow the decoder's stack. Failures
//! surface as the typed [`WireError`], never as an abort or OOM.

use serde::{Content, Deserialize, Serialize, Serializer};
use std::fmt;

/// Upper bound on any single declared length or element count in a
/// frame (strings, sequences, maps). Matches the transport's maximum
/// frame size ([`crate::msg::proc`]'s `MAX_FRAME`, 1 GiB): no honest
/// payload can exceed it, so anything larger is corruption by
/// definition and is rejected before allocation.
pub const MAX_WIRE_LEN: usize = 1 << 30;

/// Maximum nesting depth of the encoded value tree. The workspace's
/// payloads nest a handful of levels; 96 leaves two orders of
/// magnitude of headroom while keeping the recursive decoder's stack
/// use bounded against `Seq`-bomb frames (5 bytes per level).
pub const MAX_WIRE_DEPTH: usize = 96;

/// A frame that could not be decoded. Every variant carries the
/// coordinates a post-mortem needs; none of them allocates
/// proportionally to attacker-controlled input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A declared length ran past the end of the frame.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Offset at which it needed them.
        offset: usize,
        /// Total frame length.
        len: usize,
    },
    /// A declared length or element count exceeds [`MAX_WIRE_LEN`] or
    /// the bytes remaining in the frame (each element needs ≥ 1 byte).
    LengthOutOfBounds {
        /// The declared length/count.
        declared: usize,
        /// The most the frame could still hold.
        available: usize,
        /// Offset of the length field.
        offset: usize,
    },
    /// Value tree nested deeper than [`MAX_WIRE_DEPTH`].
    TooDeep {
        /// Offset at which the limit was exceeded.
        offset: usize,
    },
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8 {
        /// Offset of the string payload.
        offset: usize,
    },
    /// Unknown tag byte.
    UnknownTag {
        /// The tag found.
        tag: u8,
        /// Its offset.
        offset: usize,
    },
    /// Bytes remained after the one expected value.
    TrailingBytes {
        /// Bytes consumed by the value.
        decoded: usize,
        /// Total frame length.
        len: usize,
    },
    /// The tree decoded, but does not deserialize as the target type.
    Type(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                wanted,
                offset,
                len,
            } => write!(
                f,
                "truncated frame: wanted {wanted} bytes at offset {offset} of {len}"
            ),
            WireError::LengthOutOfBounds {
                declared,
                available,
                offset,
            } => write!(
                f,
                "length {declared} at offset {offset} exceeds the {available} \
                 bytes the frame can hold"
            ),
            WireError::TooDeep { offset } => write!(
                f,
                "value nested deeper than {MAX_WIRE_DEPTH} levels at offset {offset}"
            ),
            WireError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 on the wire at offset {offset}")
            }
            WireError::UnknownTag { tag, offset } => {
                write!(f, "unknown wire tag {tag} at offset {offset}")
            }
            WireError::TrailingBytes { decoded, len } => {
                write!(f, "trailing garbage: decoded {decoded} of {len} bytes")
            }
            WireError::Type(msg) => write!(f, "payload type mismatch: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode `value`'s serialization events into `out` (appended).
pub fn encode<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut WireSink(out));
}

/// Encode `value` into a fresh buffer.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode(value, &mut out);
    out
}

/// Decode a value of type `T` from `bytes`; the buffer must contain
/// exactly one encoded value.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, WireError> {
    let mut cursor = 0usize;
    let content = decode_content(bytes, &mut cursor, 0)?;
    if cursor != bytes.len() {
        return Err(WireError::TrailingBytes {
            decoded: cursor,
            len: bytes.len(),
        });
    }
    T::deserialize_value(&content).map_err(|e| WireError::Type(e.to_string()))
}

/// Decode a sequence [`encode`] wrote (of a slice or a `Vec<T>`), one
/// item's serde tree at a time; the buffer must contain exactly the
/// sequence.
pub fn from_slice_seq<T: Deserialize>(bytes: &[u8]) -> Result<Vec<T>, WireError> {
    let mut cursor = 0usize;
    let tag = take(bytes, &mut cursor, 1)?[0];
    if tag != 7 {
        return Err(WireError::Type(format!(
            "expected a sequence, found tag {tag}"
        )));
    }
    // Every encoded item is at least one tag byte.
    let count = decode_len(bytes, &mut cursor, 1)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let content = decode_content(bytes, &mut cursor, 1)?;
        items.push(T::deserialize_value(&content).map_err(|e| WireError::Type(e.to_string()))?);
    }
    if cursor != bytes.len() {
        return Err(WireError::TrailingBytes {
            decoded: cursor,
            len: bytes.len(),
        });
    }
    Ok(items)
}

/// The binary sink: each event appends its tag and payload.
struct WireSink<'a>(&'a mut Vec<u8>);

impl Serializer for WireSink<'_> {
    fn null(&mut self) {
        self.0.push(0);
    }

    fn bool(&mut self, v: bool) {
        self.0.push(if v { 2 } else { 1 });
    }

    fn u64(&mut self, v: u64) {
        self.0.push(3);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.push(4);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.0.push(5);
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.0.push(6);
        encode_bytes(v.as_bytes(), self.0);
    }

    fn begin_seq(&mut self, len: usize) {
        self.0.push(7);
        encode_len(len, self.0);
    }

    fn end_seq(&mut self) {}

    fn begin_map(&mut self, len: usize) {
        self.0.push(8);
        encode_len(len, self.0);
    }

    fn key(&mut self, key: &str) {
        encode_bytes(key.as_bytes(), self.0);
    }

    fn end_map(&mut self) {}
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    let len = u32::try_from(len).expect("wire collection exceeds u32::MAX items");
    out.extend_from_slice(&len.to_le_bytes());
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    encode_len(bytes.len(), out);
    out.extend_from_slice(bytes);
}

fn take<'a>(bytes: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = cursor
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or(WireError::Truncated {
            wanted: n,
            offset: *cursor,
            len: bytes.len(),
        })?;
    let slice = &bytes[*cursor..end];
    *cursor = end;
    Ok(slice)
}

fn decode_u32(bytes: &[u8], cursor: &mut usize) -> Result<u32, WireError> {
    let raw = take(bytes, cursor, 4)?;
    Ok(u32::from_le_bytes(raw.try_into().unwrap()))
}

fn decode_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64, WireError> {
    let raw = take(bytes, cursor, 8)?;
    Ok(u64::from_le_bytes(raw.try_into().unwrap()))
}

/// Decode and validate a declared length/count field: it must fit
/// both [`MAX_WIRE_LEN`] and the bytes actually remaining in the
/// frame, where each counted unit occupies at least `min_unit_bytes`.
/// This is the single gate every allocation below passes through, so
/// a corrupt 4 GiB length can never drive `Vec` growth.
fn decode_len(
    bytes: &[u8],
    cursor: &mut usize,
    min_unit_bytes: usize,
) -> Result<usize, WireError> {
    let offset = *cursor;
    let declared = decode_u32(bytes, cursor)? as usize;
    let remaining = bytes.len() - *cursor;
    let available = (remaining / min_unit_bytes.max(1)).min(MAX_WIRE_LEN);
    if declared > available {
        return Err(WireError::LengthOutOfBounds {
            declared,
            available,
            offset,
        });
    }
    Ok(declared)
}

fn decode_string(bytes: &[u8], cursor: &mut usize) -> Result<String, WireError> {
    let len = decode_len(bytes, cursor, 1)?;
    let offset = *cursor;
    let raw = take(bytes, cursor, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8 { offset })
}

fn decode_content(bytes: &[u8], cursor: &mut usize, depth: usize) -> Result<Content, WireError> {
    if depth > MAX_WIRE_DEPTH {
        return Err(WireError::TooDeep { offset: *cursor });
    }
    let offset = *cursor;
    let tag = take(bytes, cursor, 1)?[0];
    Ok(match tag {
        0 => Content::Null,
        1 => Content::Bool(false),
        2 => Content::Bool(true),
        3 => Content::U64(decode_u64(bytes, cursor)?),
        4 => Content::I64(decode_u64(bytes, cursor)? as i64),
        5 => Content::F64(f64::from_bits(decode_u64(bytes, cursor)?)),
        6 => Content::Str(decode_string(bytes, cursor)?),
        7 => {
            // Every encoded item is at least one tag byte.
            let count = decode_len(bytes, cursor, 1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_content(bytes, cursor, depth + 1)?);
            }
            Content::Seq(items)
        }
        8 => {
            // Every pair is at least a 4-byte key length + 1 tag byte.
            let count = decode_len(bytes, cursor, 5)?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let key = decode_string(bytes, cursor)?;
                let value = decode_content(bytes, cursor, depth + 1)?;
                pairs.push((key, value));
            }
            Content::Map(pairs)
        }
        tag => return Err(WireError::UnknownTag { tag, offset }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_vec(&value);
        let back: T = from_slice(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn sequences_encode_item_by_item_to_the_whole_vector_bytes() {
        let rows: Vec<Vec<(u32, f64)>> = vec![
            vec![(1, 0.5), (7, f64::NEG_INFINITY)],
            vec![],
            vec![(2, 1.0)],
        ];
        let mut bytes = Vec::new();
        encode(rows.as_slice(), &mut bytes);
        assert_eq!(bytes, to_vec(&rows), "not the bytes of the whole vector");
        assert_eq!(from_slice_seq::<Vec<(u32, f64)>>(&bytes).unwrap(), rows);
        assert_eq!(from_slice::<Vec<Vec<(u32, f64)>>>(&bytes).unwrap(), rows);
        let mut empty = Vec::new();
        encode::<[f64]>(&[], &mut empty);
        assert_eq!(empty, to_vec(&Vec::<f64>::new()));
        assert!(from_slice_seq::<f64>(&empty).unwrap().is_empty());
        // Not a sequence, a truncated one, and one with trailing bytes.
        assert!(matches!(
            from_slice_seq::<f64>(&to_vec(&1.5f64)),
            Err(WireError::Type(_))
        ));
        assert!(from_slice_seq::<(u32, f64)>(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            from_slice_seq::<Vec<(u32, f64)>>(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        // The whole reason this codec exists: JSON would lose these.
        for f in [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
            1e-300,
            -1e300,
        ] {
            let bytes = to_vec(&f);
            let back: f64 = from_slice(&bytes).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
        // NaN: compare bits (NaN != NaN by value).
        let nan_bits = f64::NAN.to_bits() | 0xdead;
        let weird_nan = f64::from_bits(nan_bits);
        let back: f64 = from_slice(&to_vec(&weird_nan)).unwrap();
        assert_eq!(back.to_bits(), nan_bits);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![(3u32, -0.5f64)], vec![], vec![(9, f64::NEG_INFINITY)]]);
        roundtrip((42usize, String::from("x"), vec![1.5f64]));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        let mut map = std::collections::BTreeMap::new();
        map.insert(String::from("a"), 1u64);
        map.insert(String::from("b"), 2u64);
        roundtrip(map);
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let bytes = to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(from_slice::<Vec<u64>>(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_slice::<Vec<u64>>(&extended).is_err(), "trailing byte");
        assert!(from_slice::<u64>(&[250]).is_err(), "unknown tag");
    }

    #[test]
    fn encoding_is_deterministic() {
        let value = (vec![0.25f64, -7.5], String::from("k"), 3usize);
        assert_eq!(to_vec(&value), to_vec(&value));
    }

    /// Regression (PR 10): a corrupt length field used to flow
    /// straight into an allocation. Each hand-crafted frame declares
    /// far more data than it carries; all must fail with the typed
    /// bound error before any proportional allocation happens.
    #[test]
    fn oversized_declared_lengths_are_rejected_before_allocation() {
        // Str claiming u32::MAX bytes, carrying none.
        let huge_str = [6u8, 0xff, 0xff, 0xff, 0xff];
        match from_slice::<String>(&huge_str) {
            Err(WireError::LengthOutOfBounds {
                declared,
                available,
                ..
            }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(available, 0);
            }
            other => panic!("expected LengthOutOfBounds, got {other:?}"),
        }
        // Seq claiming 2^31 items, carrying one byte of payload.
        let huge_seq = [7u8, 0x00, 0x00, 0x00, 0x80, 0x00];
        assert!(matches!(
            from_slice::<Vec<u64>>(&huge_seq),
            Err(WireError::LengthOutOfBounds { .. })
        ));
        // Map claiming 400M pairs in a 6-byte frame: a pair needs at
        // least 5 bytes, so even a full 1 GiB frame could not hold it.
        let huge_map = [8u8, 0x00, 0x00, 0xe8, 0x17, 0x00];
        assert!(matches!(
            from_slice::<std::collections::BTreeMap<String, u64>>(&huge_map),
            Err(WireError::LengthOutOfBounds { .. })
        ));
    }

    /// Regression (PR 10): a `Seq`-of-`Seq` bomb (5 bytes per nesting
    /// level) used to recurse once per level and could exhaust the
    /// decoder's stack. Depth is now capped.
    #[test]
    fn nesting_bomb_yields_too_deep_not_a_stack_overflow() {
        let mut frame = Vec::new();
        for _ in 0..10_000 {
            frame.push(7u8); // Seq ...
            frame.extend_from_slice(&1u32.to_le_bytes()); // ... of 1 item
        }
        frame.push(0); // innermost Null
        assert!(matches!(
            from_slice::<Content>(&frame),
            Err(WireError::TooDeep { .. })
        ));
        // Sanity: a tree at a legal depth still decodes.
        let mut ok = Vec::new();
        for _ in 0..MAX_WIRE_DEPTH {
            ok.push(7u8);
            ok.extend_from_slice(&1u32.to_le_bytes());
        }
        ok.push(0);
        assert!(from_slice::<Content>(&ok).is_ok());
    }

    #[test]
    fn corrupt_frames_report_typed_coordinates() {
        // Bad UTF-8 inside a valid length.
        let bad_utf8 = [6u8, 2, 0, 0, 0, 0xff, 0xfe];
        assert_eq!(
            from_slice::<String>(&bad_utf8),
            Err(WireError::InvalidUtf8 { offset: 5 })
        );
        // Unknown tag mid-stream (second item of a two-item Seq).
        let mut frame = vec![7u8, 2, 0, 0, 0, 0];
        frame.push(99);
        assert_eq!(
            from_slice::<Content>(&frame),
            Err(WireError::UnknownTag {
                tag: 99,
                offset: 6
            })
        );
        // Well-formed tree of the wrong type.
        let not_a_u64 = to_vec(&String::from("nope"));
        assert!(matches!(
            from_slice::<u64>(&not_a_u64),
            Err(WireError::Type(_))
        ));
        // Errors render their coordinates for post-mortems.
        let msg = WireError::LengthOutOfBounds {
            declared: 1 << 31,
            available: 12,
            offset: 1,
        }
        .to_string();
        assert!(msg.contains("2147483648") && msg.contains("12"));
    }

    proptest::proptest! {
        /// No byte string, however mangled, may panic, abort, or
        /// allocate past the frame: decoding either succeeds or
        /// returns a typed [`WireError`].
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256)
        ) {
            let _ = from_slice::<Content>(&bytes);
        }

        /// Valid frames survive any single-byte corruption without
        /// panicking (they may still decode, e.g. a flipped float
        /// bit — but never crash).
        #[test]
        fn single_byte_corruptions_never_panic(
            seed in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..8),
            pos_sel in 0usize..4096,
            val in proptest::arbitrary::any::<u8>(),
        ) {
            let mut bytes = to_vec(&seed);
            if !bytes.is_empty() {
                let pos = pos_sel % bytes.len();
                bytes[pos] = val;
                let _ = from_slice::<Vec<u64>>(&bytes);
            }
        }

        /// Roundtrip law under the hardened decoder.
        #[test]
        fn roundtrip_still_exact(
            v in proptest::collection::vec(
                (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<f64>()),
                0..16,
            )
        ) {
            let bytes = to_vec(&v);
            let back: Vec<(u64, f64)> = from_slice(&bytes).unwrap();
            proptest::prop_assert_eq!(back.len(), v.len());
            for (a, b) in back.iter().zip(&v) {
                proptest::prop_assert_eq!(a.0, b.0);
                proptest::prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
