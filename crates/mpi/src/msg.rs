//! Typed message payload encoding.
//!
//! The simulator kernel moves opaque byte vectors; applications exchange
//! `f64` slices and scalars. This module is the (de)serialization seam,
//! kept deliberately dumb: little-endian `f64`s, no framing, since both
//! endpoints agree on types by construction.

/// Encode a slice of `f64` into a payload.
#[must_use]
pub fn encode_f64s(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode a payload produced by [`encode_f64s`].
///
/// # Panics
/// Panics if the payload length is not a multiple of 8 — that is a
/// protocol bug between two ranks of the same binary, not a runtime
/// condition to recover from.
#[must_use]
pub fn decode_f64s(payload: &[u8]) -> Vec<f64> {
    assert!(
        payload.len().is_multiple_of(8),
        "payload of {} bytes is not a whole number of f64s",
        payload.len()
    );
    payload
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Encode a single scalar.
#[must_use]
pub fn encode_f64(x: f64) -> Vec<u8> {
    encode_f64s(std::slice::from_ref(&x))
}

/// Decode a single scalar.
///
/// # Panics
/// Panics if the payload is not exactly 8 bytes.
#[must_use]
pub fn decode_f64(payload: &[u8]) -> f64 {
    assert_eq!(payload.len(), 8, "expected a single f64 payload");
    f64::from_le_bytes(payload.try_into().expect("length checked above"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_slice() {
        let xs = [1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&xs)), xs);
    }

    #[test]
    fn layout_is_little_endian_f64s() {
        let bytes = encode_f64s(&[1.0, -2.5]);
        assert_eq!(
            bytes,
            [0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0x04, 0xc0]
        );
        assert_eq!(encode_f64(1.0), bytes[..8]);
    }

    #[test]
    fn roundtrip_scalar() {
        assert_eq!(decode_f64(&encode_f64(42.125)), 42.125);
    }

    #[test]
    fn empty_slice_roundtrips() {
        assert!(decode_f64s(&encode_f64s(&[])).is_empty());
    }

    #[test]
    fn nan_payload_survives_transport() {
        let d = decode_f64(&encode_f64(f64::NAN));
        assert!(d.is_nan());
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn ragged_payload_panics() {
        let _ = decode_f64s(&[0u8; 7]);
    }
}
