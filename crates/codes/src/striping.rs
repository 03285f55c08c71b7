//! Framing of arbitrary byte strings into code symbols.
//!
//! A code with file size `B` (symbols) stores values whose length is exactly
//! `B` field symbols. Real values are arbitrary byte strings, so we frame
//! them: an 8-byte little-endian length header is prepended and the result is
//! zero-padded up to a multiple of `B`. The padded buffer is then viewed as
//! `B` *message symbols*, each a contiguous run of `symbol_len` bytes
//! (`symbol_len = padded_len / B`), and the code operates on those buffers.

use crate::error::CodeError;
use lds_gf::bulk;

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

/// Bytes per message symbol of a `data_len`-byte value framed for
/// `file_size` message symbols: `⌈(data_len + 8) / file_size⌉`, at least 1.
/// A coded element or helper is a whole number of such symbols, so this is
/// the unit every byte count of a coded operation is a multiple of.
///
/// # Panics
///
/// Panics if `file_size == 0`.
pub fn symbol_len(data_len: usize, file_size: usize) -> usize {
    geometry(data_len, file_size).0
}

/// Symbol length and trailing padding of a `data_len`-byte value framed for
/// `file_size` message symbols. The padding is shorter than `file_size`
/// bytes unless the value is too short to give every symbol a byte.
///
/// # Panics
///
/// Panics if `file_size == 0`.
fn geometry(data_len: usize, file_size: usize) -> (usize, usize) {
    assert!(file_size > 0, "file_size must be positive");
    let total = HEADER_LEN + data_len;
    let symbol_len = total.div_ceil(file_size).max(1);
    (symbol_len, symbol_len * file_size - total)
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
    let (symbol_len, pad) = geometry(data.len(), file_size);
    let mut padded = Vec::with_capacity(symbol_len * file_size);
    padded.extend_from_slice(&(data.len() as u64).to_le_bytes());
    padded.extend_from_slice(data);
    padded.resize(padded.len() + pad, 0);
    Framed { padded, symbol_len }
}

/// A value framed without the framed copy: the message symbols as pieces a
/// matrix kernel can read where they lie ([`lds_gf::bulk::apply_rows_into`]
/// takes its sources in exactly this form).
///
/// In the framed layout `len:u64 ‖ data ‖ padding`, message symbol `m` is
/// bytes `[m·sl, (m+1)·sl)`: the header only shifts the value by
/// [`HEADER_LEN`] and the padding only follows it, so every symbol is a slice
/// of `data` except where symbol 0 holds the header and the last symbol the
/// padding. Those two *edges* — the first [`bulk::STRIP`] bytes of symbol 0
/// and the last partial strip of the last symbol — are copied into a scratch
/// buffer; the value itself is borrowed. Each symbol is handed over in three
/// pieces (head strip, whole middle strips, tail) cut at the same offsets, so
/// every piece but the last is a whole number of kernel strips and the
/// pieces cost the kernel nothing.
pub(crate) struct BorrowedFrame<'a> {
    data: &'a [u8],
    file_size: usize,
    symbol_len: usize,
    /// Bytes `[0, STRIP)` of symbol 0, then the tail of the last symbol.
    edges: Vec<u8>,
}

impl<'a> BorrowedFrame<'a> {
    /// Frames `data` for `file_size` message symbols, or returns `None` when
    /// a symbol is shorter than one strip plus the padding: such a value is
    /// a few KiB, the copy [`frame`] makes of it is cheap, and the caller
    /// should make it.
    pub(crate) fn new(data: &'a [u8], file_size: usize) -> Option<Self> {
        let (symbol_len, pad) = geometry(data.len(), file_size);
        let past_head = symbol_len.checked_sub(bulk::STRIP + pad)?;
        // The tail is what whole middle strips leave over, and the padding.
        let tail_data = past_head % bulk::STRIP;
        let mut edges = Vec::with_capacity(bulk::STRIP + tail_data + pad);
        edges.extend_from_slice(&(data.len() as u64).to_le_bytes());
        edges.extend_from_slice(&data[..bulk::STRIP - HEADER_LEN]);
        edges.extend_from_slice(&data[data.len() - tail_data..]);
        edges.resize(edges.len() + pad, 0);
        Some(BorrowedFrame {
            data,
            file_size,
            symbol_len,
            edges,
        })
    }

    /// The `file_size` symbols in three pieces each, piece-major: heads
    /// (one strip), middles (whole strips, possibly none), tails.
    pub(crate) fn pieces(&self) -> Vec<&[u8]> {
        let (head, tail) = self.edges.split_at(bulk::STRIP);
        let middle = self.symbol_len - self.edges.len();
        let last = self.file_size - 1;
        // Framed byte `i ≥ HEADER_LEN` is `data[i − HEADER_LEN]`.
        let framed = |start: usize, len: usize| &self.data[start - HEADER_LEN..][..len];
        let symbols = (0..self.file_size).map(|m| m * self.symbol_len);
        let mut pieces = Vec::with_capacity(3 * self.file_size);
        pieces.push(head);
        pieces.extend(symbols.clone().skip(1).map(|at| framed(at, head.len())));
        pieces.extend(symbols.clone().map(|at| framed(at + head.len(), middle)));
        let tail_at = self.symbol_len - tail.len();
        pieces.extend(
            symbols
                .take(last)
                .map(|at| framed(at + tail_at, tail.len())),
        );
        pieces.push(tail);
        pieces
    }
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
    fn borrowed_frame_pieces_are_the_framed_symbols() {
        let strip = bulk::STRIP;
        let mut borrowed = 0;
        for file_size in [1usize, 2, 5, 12] {
            // Symbols just short of a strip, of exactly one, with an empty
            // and a non-empty middle, and with every padding 0..file_size.
            for symbol_len in [strip - 1, strip, strip + 1, 2 * strip - 1, 3 * strip + 77] {
                for pad in 0..file_size.min(4) {
                    let len = symbol_len * file_size - pad - HEADER_LEN;
                    let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
                    let framed = frame(&data, file_size);
                    assert_eq!(framed.symbol_len, symbol_len);
                    let Some(frame) = BorrowedFrame::new(&data, file_size) else {
                        assert!(symbol_len < strip + pad, "fs={file_size} sl={symbol_len}");
                        continue;
                    };
                    borrowed += 1;
                    let pieces = frame.pieces();
                    assert_eq!(pieces.len(), 3 * file_size);
                    for m in 0..file_size {
                        let parts = [pieces[m], pieces[file_size + m], pieces[2 * file_size + m]];
                        assert!(
                            parts.concat() == symbol(&framed, m),
                            "fs={file_size} sl={symbol_len} pad={pad} symbol {m}"
                        );
                        // Same cuts for every symbol, at whole strips.
                        assert_eq!(parts[0].len(), strip);
                        assert_eq!(parts[1].len() % strip, 0);
                        assert!(parts[2].len() < strip + file_size);
                        // Only the two edges are copies.
                        let copied =
                            |p: &[u8]| !p.is_empty() && !data.as_ptr_range().contains(&p.as_ptr());
                        assert_eq!(copied(parts[0]), m == 0);
                        assert!(!copied(parts[1]));
                        assert_eq!(copied(parts[2]), m == file_size - 1 && !parts[2].is_empty());
                    }
                }
            }
        }
        assert!(
            borrowed >= 30,
            "only {borrowed} cases took the borrowed form"
        );
        // Short values are framed the ordinary way.
        assert!(BorrowedFrame::new(&[7; 4096], 5).is_none());
        assert!(BorrowedFrame::new(&[], 5).is_none());
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
