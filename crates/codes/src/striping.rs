//! Framing of arbitrary byte strings into code symbols.
//!
//! A code with file size `B` (symbols) stores values whose length is exactly
//! `B` field symbols. Real values are arbitrary byte strings, so we frame
//! them: an 8-byte little-endian length header is prepended and the result is
//! zero-padded up to a multiple of `B`. The padded buffer is then viewed as
//! `B` *message symbols*, each a contiguous run of `symbol_len` bytes
//! (`symbol_len = padded_len / B`), and the code operates on those buffers.

use crate::error::CodeError;

/// Length of the framing header in bytes.
pub const HEADER_LEN: usize = 8;

/// A framed value: the padded buffer plus the derived symbol length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed {
    /// Padded buffer of length `file_size * symbol_len`.
    pub padded: Vec<u8>,
    /// Length in bytes of each message symbol.
    pub symbol_len: usize,
}

/// Frames `data` for a code with `file_size` message symbols.
///
/// The result always has at least one byte per symbol, so zero-length values
/// are representable.
///
/// # Panics
///
/// Panics if `file_size == 0`.
pub fn frame(data: &[u8], file_size: usize) -> Framed {
    assert!(file_size > 0, "file_size must be positive");
    let total = HEADER_LEN + data.len();
    let symbol_len = total.div_ceil(file_size).max(1);
    let padded_len = symbol_len * file_size;
    let mut padded = Vec::with_capacity(padded_len);
    padded.extend_from_slice(&(data.len() as u64).to_le_bytes());
    padded.extend_from_slice(data);
    padded.resize(padded_len, 0);
    Framed { padded, symbol_len }
}

/// Buffer-reuse variant of [`frame`]: frames `data` into `out` (cleared
/// first, capacity reused) and returns the derived `symbol_len`.
///
/// This is the entry point the chunk-striped write path uses with a
/// [`crate::stripe::BufPool`] scratch buffer: striping a large value encodes
/// many stripes back to back, and re-allocating the padded frame for every
/// stripe would dominate the encode itself.
///
/// # Panics
///
/// Panics if `file_size == 0`.
pub fn frame_into(data: &[u8], file_size: usize, out: &mut Vec<u8>) -> usize {
    assert!(file_size > 0, "file_size must be positive");
    let total = HEADER_LEN + data.len();
    let symbol_len = total.div_ceil(file_size).max(1);
    let padded_len = symbol_len * file_size;
    out.clear();
    out.reserve(padded_len);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(data);
    out.resize(padded_len, 0);
    symbol_len
}

/// Reads and validates the length header of a framed buffer: the number of
/// value bytes that follow it.
///
/// The header is decoded data — a coded element that crossed a socket can
/// make it anything — so the bound is checked without overflow.
fn payload_len(padded: &[u8]) -> Result<usize, CodeError> {
    let Some(header) = padded.first_chunk::<HEADER_LEN>() else {
        return Err(CodeError::CorruptPayload(format!(
            "framed buffer of {} bytes is shorter than the {HEADER_LEN}-byte header",
            padded.len()
        )));
    };
    let len = u64::from_le_bytes(*header);
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN));
    match end {
        Some(end) if end <= padded.len() => Ok(end - HEADER_LEN),
        _ => Err(CodeError::CorruptPayload(format!(
            "length header {len} exceeds framed buffer of {} bytes",
            padded.len()
        ))),
    }
}

/// Inverse of [`frame`]: strips the header and padding into a fresh buffer.
///
/// # Errors
///
/// Returns [`CodeError::CorruptPayload`] if the buffer is too short or the
/// header describes a length that does not fit in the buffer.
pub fn unframe(padded: &[u8]) -> Result<Vec<u8>, CodeError> {
    let len = payload_len(padded)?;
    Ok(padded[HEADER_LEN..HEADER_LEN + len].to_vec())
}

/// Inverse of [`frame`] without a second buffer: `buf` holds the framed
/// bytes on entry and exactly the value on return (the payload is shifted
/// over the header, the padding truncated). This is what lets the codecs
/// decode the message symbols straight into the buffer the caller keeps.
///
/// # Errors
///
/// As for [`unframe`]; `buf` is untouched on error.
pub fn unframe_in_place(buf: &mut Vec<u8>) -> Result<(), CodeError> {
    let len = payload_len(buf)?;
    buf.copy_within(HEADER_LEN..HEADER_LEN + len, 0);
    buf.truncate(len);
    Ok(())
}

/// Borrows message symbol `m` (of `file_size`) from a framed buffer.
pub fn symbol(framed: &Framed, m: usize) -> &[u8] {
    &framed.padded[m * framed.symbol_len..(m + 1) * framed.symbol_len]
}

/// Borrows all `file_size` message symbols as a vector of slices.
pub fn symbols(framed: &Framed, file_size: usize) -> Vec<&[u8]> {
    (0..file_size).map(|m| symbol(framed, m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        for file_size in [1usize, 3, 10, 36, 100] {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let framed = frame(&data, file_size);
                assert_eq!(framed.padded.len(), file_size * framed.symbol_len);
                assert_eq!(
                    unframe(&framed.padded).unwrap(),
                    data,
                    "fs={file_size} len={len}"
                );
                let mut buf = framed.padded;
                unframe_in_place(&mut buf).unwrap();
                assert_eq!(buf, data, "in place, fs={file_size} len={len}");
            }
        }
    }

    #[test]
    fn frame_into_matches_frame_and_reuses_capacity() {
        let mut out = vec![0xAA; 3]; // stale contents must be discarded
        for file_size in [1usize, 5, 36] {
            for len in [0usize, 1, 8, 100] {
                let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
                let sl = frame_into(&data, file_size, &mut out);
                let fresh = frame(&data, file_size);
                assert_eq!(sl, fresh.symbol_len, "fs={file_size} len={len}");
                assert_eq!(out, fresh.padded, "fs={file_size} len={len}");
            }
        }
    }

    #[test]
    fn symbol_slicing_covers_buffer() {
        let data = vec![7u8; 100];
        let framed = frame(&data, 9);
        let syms = symbols(&framed, 9);
        assert_eq!(syms.len(), 9);
        let total: usize = syms.iter().map(|s| s.len()).sum();
        assert_eq!(total, framed.padded.len());
        assert!(syms.iter().all(|s| s.len() == framed.symbol_len));
    }

    #[test]
    fn unframe_rejects_short_buffers() {
        assert!(matches!(
            unframe(&[1, 2, 3]),
            Err(CodeError::CorruptPayload(_))
        ));
    }

    #[test]
    fn unframe_rejects_bad_length_header() {
        let mut framed = frame(b"abc", 4).padded;
        framed[0] = 0xff;
        framed[1] = 0xff;
        assert!(matches!(
            unframe(&framed),
            Err(CodeError::CorruptPayload(_))
        ));
    }

    /// The header is decoded data: whatever it claims, the answer is an
    /// error — never a wrapped bound in release or an overflow panic in
    /// debug — and the caller's buffer is left as it was.
    #[test]
    fn hostile_length_headers_are_rejected_without_touching_the_buffer() {
        let framed = frame(b"payload", 3).padded;
        let payload_len = framed.len() - HEADER_LEN;
        for claimed in [
            u64::MAX,
            (usize::MAX - 3) as u64,
            (usize::MAX - HEADER_LEN + 1) as u64,
            payload_len as u64 + 1,
        ] {
            let mut buf = framed.clone();
            buf[..HEADER_LEN].copy_from_slice(&claimed.to_le_bytes());
            let before = buf.clone();
            assert!(
                matches!(unframe(&buf), Err(CodeError::CorruptPayload(_))),
                "header {claimed}"
            );
            assert!(
                matches!(
                    unframe_in_place(&mut buf),
                    Err(CodeError::CorruptPayload(_))
                ),
                "header {claimed}"
            );
            assert_eq!(buf, before, "header {claimed}: buffer untouched");
        }
        // The largest length that does fit is still accepted.
        let mut buf = framed.clone();
        buf[..HEADER_LEN].copy_from_slice(&(payload_len as u64).to_le_bytes());
        unframe_in_place(&mut buf).unwrap();
        assert_eq!(buf, framed[HEADER_LEN..]);
        let mut short = vec![1, 2, 3];
        assert!(unframe_in_place(&mut short).is_err());
        assert_eq!(short, [1, 2, 3]);
    }

    #[test]
    fn empty_value_is_representable() {
        let framed = frame(&[], 5);
        assert!(framed.symbol_len >= 1);
        assert_eq!(unframe(&framed.padded).unwrap(), Vec::<u8>::new());
    }
}
