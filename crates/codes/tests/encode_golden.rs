//! The exact bytes of the coded elements.
//!
//! An L2 store written by one build must stay decodable by the next, and two
//! daemons of different builds must agree on every element they exchange, so
//! a change to the encode path may not move a single coded byte. This file
//! pins them: FNV-1a digests of every element of the `write-to-L2` span
//! (the last `n2` nodes) for the MBR, MSR and RS codes of the benchmark's
//! deployment, at value sizes on both sides of every framing edge — recorded
//! from the accumulate-per-symbol encoder that framed the value into a copy
//! (the parent of the fused write-once kernel). The file uses only the
//! `ErasureCode` trait, so it compiles against that older checkout too.
//!
//! A failure here means stored elements changed: that is a format change,
//! not a digest to re-record.

use lds_codes::mbr::ProductMatrixMbr;
use lds_codes::msr::ProductMatrixMsr;
use lds_codes::rs::ReedSolomon;
use lds_codes::ErasureCode;

/// Value sizes around the header (8 bytes), the symbol boundaries of
/// `B = 5` and the sizes the benchmark's workloads write.
const SIZES: [usize; 10] = [0, 1, 7, 8, 9, 256, 4096, 4097, 262_144, 262_145];

fn value(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131) ^ (i >> 8) ^ 0x5c) as u8)
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Span encode of nodes `start..start + count` into buffers that hold stale
/// bytes of the wrong length, as a reused message buffer would.
fn span(code: &dyn ErasureCode, data: &[u8], start: usize, count: usize) -> Vec<Vec<u8>> {
    let mut outs: Vec<Vec<u8>> = (0..count).map(|e| vec![0xAA; 3 + 40 * e]).collect();
    code.encode_share_span_into(data, start, &mut outs).unwrap();
    outs
}

/// One digest per (size, element), sizes outermost.
fn digests(code: &dyn ErasureCode, start: usize, count: usize) -> Vec<u64> {
    SIZES
        .iter()
        .flat_map(|&len| span(code, &value(len), start, count))
        .map(|element| fnv1a(&element))
        .collect()
}

/// Compares against the recorded table (`per_row` elements per value or
/// piece); on a mismatch the panic message is the computed table.
fn check(name: &str, per_row: usize, got: &[u64], recorded: &[u64]) {
    if got != recorded {
        let rows: Vec<String> = got
            .chunks(per_row)
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
                format!("    {},", cells.join(", "))
            })
            .collect();
        panic!(
            "{name}: coded bytes differ from the recorded ones; computed:\n{}",
            rows.join("\n")
        );
    }
}

#[test]
fn mbr_elements_are_the_recorded_bytes() {
    // The benchmark's code: f1 = f2 = 1, k = 2, d = 3 → n = 4 + 5, B = 5, α = 3.
    let code = ProductMatrixMbr::with_dimensions(9, 2, 3).unwrap();
    check("MBR(9,2,3)", 5, &digests(&code, 4, 5), &MBR_9_2_3);
}

#[test]
fn msr_elements_are_the_recorded_bytes() {
    // The benchmark's k = 2 admits only the degenerate α = 1 instance (which
    // is RS(9,2) byte for byte); k = 4 (α = 3, B = 12) exercises the two
    // symmetric message blocks.
    let code = ProductMatrixMsr::with_dimensions(10, 4).unwrap();
    check("MSR(10,4)", 6, &digests(&code, 4, 6), &MSR_10_4);
}

#[test]
fn rs_elements_are_the_recorded_bytes() {
    let code = ReedSolomon::with_dimensions(9, 2).unwrap();
    check("RS(9,2)", 5, &digests(&code, 4, 5), &RS_9_2);
}

/// The span encode, `count` single-share encodes and the whole-code encode
/// are three entry points to the same bytes.
#[test]
fn span_encode_equals_per_share_and_whole_code_encode() {
    let codes: [(&str, Box<dyn ErasureCode>); 3] = [
        (
            "MBR",
            Box::new(ProductMatrixMbr::with_dimensions(9, 2, 3).unwrap()),
        ),
        (
            "MSR",
            Box::new(ProductMatrixMsr::with_dimensions(10, 4).unwrap()),
        ),
        ("RS", Box::new(ReedSolomon::with_dimensions(9, 2).unwrap())),
    ];
    for (name, code) in &codes {
        let n = code.params().n();
        for len in SIZES {
            let data = value(len);
            let all = code.encode(&data).unwrap();
            assert_eq!(all.len(), n);
            let spanned = span(&**code, &data, 4, n - 4);
            for (s, element) in spanned.iter().enumerate() {
                let ctx = format!("{name} len={len} node={}", 4 + s);
                assert!(*element == all[4 + s].data, "span vs encode: {ctx}");
                let single = code.encode_share(&data, 4 + s).unwrap();
                assert_eq!(single.index, 4 + s);
                assert!(*element == single.data, "span vs encode_share: {ctx}");
                let mut reused = vec![0x55; 9];
                code.encode_share_into(&data, 4 + s, &mut reused).unwrap();
                assert!(*element == reused, "span vs encode_share_into: {ctx}");
            }
        }
    }
}

/// A value may start anywhere in memory — a payload borrowed from a frame
/// buffer usually starts unaligned. The elements of a sub-slice that starts
/// at an odd offset are those of an aligned copy of it, and their bytes are
/// pinned like the others.
#[test]
fn unaligned_sources_encode_like_aligned_copies() {
    const PIECE: usize = 65_537; // odd: every later piece starts unaligned
    let code = ProductMatrixMbr::with_dimensions(9, 2, 3).unwrap();
    let data = value(262_145);
    let mut pieces = Vec::new();
    for piece in data.chunks(PIECE) {
        let from_slice = span(&code, piece, 4, 5);
        let copy = piece.to_vec(); // starts at an allocation, aligned
        let from_copy = span(&code, &copy, 4, 5);
        assert!(from_slice == from_copy, "piece at offset differs");
        pieces.extend(from_slice.iter().map(|element| fnv1a(element)));
    }
    check("MBR(9,2,3) pieces", 5, &pieces, &MBR_9_2_3_PIECES);
}

#[rustfmt::skip]
const MBR_9_2_3: [u64; 50] = [
    0xd7e4fcfa299d713d, 0xd7e4fcfa299d713d, 0xd7e4fcfa299d713d, 0xd7e4fcfa299d713d, 0xd7e4fcfa299d713d,
    0x3dfdc4c25bd72bb7, 0x1a25a3339ba4caa6, 0x7e0fdb15ba2d2bbe, 0x1c18ccdb5ce9ed50, 0x99a1721d0993da4f,
    0x6af41ebdbedc2a7d, 0x333078d30a402642, 0x42cd61c71eb4ea61, 0xe0f607dad3adb3ba, 0x3cc76a68a0c65576,
    0x8f46e4c8e7da219b, 0x3ccfb60d75e658a7, 0x91171fef97dcf39b, 0x61c178ce8978bc8b, 0xcb9641ca1966f028,
    0xd63affce711c3d11, 0xef9794155cf54137, 0x14090505f09c8f48, 0x3907952128d4fb53, 0x0bdea3788cf00229,
    0x1ae84dab8f24bff5, 0x06bbbb03ec8a1386, 0x4bda30ec51de1007, 0x7dbadee2ad8e6206, 0xc0ea4e83cccf0745,
    0xf52b20d0bbfe932c, 0xe4fb0ae0377c8852, 0x035ec7e578ba38ae, 0x8b1b338964bb1f58, 0x727968090099346d,
    0x3688628b49af15a0, 0x7e70f64ef2ac82b4, 0x1f48c2ff9981a917, 0xd998d1e7ad4da1b4, 0x6cac6ea288ec376a,
    0xe7e82c2aec9361a1, 0x827dafefe12c11d9, 0xb3af5950ba36ac30, 0xf1bf5884a40bea6a, 0x415109c10a9bec12,
    0xbf0dc8aaffbc1b93, 0xe4ac602989f9f19e, 0x96e80109f9472be1, 0xd1cf4b623a7fb52f, 0xbe61f1d33b8a0486,
];
#[rustfmt::skip]
const MSR_10_4: [u64; 60] = [
    0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7,
    0x66d0b11a6f36ee9e, 0x17ea251b6485b3ee, 0xe3015e1c688eb6fb, 0x82ae0b183afedc2e, 0xb4c6061a9b5ee607, 0x548c711b86dd8db8,
    0xeb621c5b275b6ef8, 0x1e04e8420ea91cc5, 0xbfdce2829a301537, 0x65179d88d3f6002f, 0x9e88a6e5835c026e, 0xe21c12f82d77ad56,
    0xf8ea7bbb29e08d88, 0xc602d2ad2323ae67, 0xf3f7ca999b244539, 0xf0fc19e232cd6bd8, 0xe7fa13cddc7c8e14, 0xd8ceba79b2e1e5b4,
    0xd089eed8ed23e7f3, 0x15e575d491666c8b, 0x9f7af60fd2af9f17, 0x4926ef063dad30aa, 0xa366c672a6bee641, 0xb7d4b54a310bca73,
    0xef09a0c40e4f0cac, 0x8642aaac1725d304, 0xd4000b2840816cf9, 0xc31d374617b5db6e, 0x37d9915aa0351c13, 0xdcb4d2044b8a8e33,
    0x0597cec8a29b92ac, 0x19a01d9475f1331c, 0x7f012210ef07a312, 0x2e76ce2e9864a23d, 0x0278e865ff2760eb, 0x0798fd371a52ca57,
    0x71e236f5e5eee1d6, 0x51b0f70265f42e4e, 0x33c00cfaac6341c2, 0xea95dd0a594c9ffb, 0xb91d45b3fccb94fb, 0x2426dfb35b96665c,
    0x81475852b7ac32dc, 0xed4840fae1e0a044, 0x4d34d2000d348f1a, 0xf5db3ec6620dfc95, 0x82dc7b3f4f9eeb71, 0x84038491679958a5,
    0x4b315c15d2709b85, 0xf95e4ee6a9a8e7d6, 0x783234074d7e6724, 0x0b2714a5a9eb64c6, 0xe4094922c8363a44, 0x0700d8ea5dc4110d,
];
#[rustfmt::skip]
const RS_9_2: [u64; 50] = [
    0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5,
    0xda1562aea996426d, 0xd8c856aea87b4cbb, 0xd9d4d0aea95f6662, 0xd87d92aea83bc735, 0xd8edb8aea89b0f7e,
    0x2d65266e6f96eb28, 0x8c0cbf932f84d53b, 0x976a8c98a0ee89cc, 0x4352f5e5e222d742, 0x676c28c86dbb1a3c,
    0x459a083c03334313, 0x7cd685d6d7217eb0, 0x3f55ad9049203393, 0x80fab0fe06c7e005, 0x4cdaa26c6efa7a43,
    0x363f25f5942e3d9b, 0x1fb655e282766e02, 0x6f0a87a44ec600e0, 0x3984b12e33326454, 0x0a69b1cd8c043f8b,
    0xd67ff577e55f5fbe, 0xd55f4e5f51a2c055, 0xdf934a8093e07900, 0x3f351628768e08cd, 0xe597f62506488ce8,
    0xbf2832eba942000d, 0x97fcab55919a0a5f, 0x0b641189ef5e5fe4, 0x782a276ea83fd3fd, 0x751d755a31ee5e25,
    0x09e6f8b91aba4cd3, 0xbe85606e3153c446, 0x4b4759aae853e1ee, 0x2525f42372482c65, 0xfaa7b30a9973dcc4,
    0x8ce966437a113d0d, 0x29b0d751cc490d0f, 0xdf38d8dc00453d44, 0x812d54bb74da6271, 0xdd98655a68cac3f9,
    0x44755f4e1ba31cbd, 0x9cb5834647f1db72, 0x64f07354d55af88e, 0xb3a71314482b6e0c, 0x5003bcc5ddbde0be,
];
#[rustfmt::skip]
const MBR_9_2_3_PIECES: [u64; 20] = [
    0x0e05f261480734e8, 0x73557a8bceb284cc, 0x9d1ec5a3f7c22c63, 0x00598a56b167807a, 0x4d0cec98622df08e,
    0x07f0db1159b1448d, 0x9644593a90643ba2, 0xe83b3228046e3fc9, 0xde0b6e52ee6524ef, 0xe3493f442bd08bdd,
    0x54b8161ff5a197da, 0x9f0d94a703ed4205, 0x5f982ae92467a2c8, 0x34822a3aad17ef45, 0xf0ed65ea15406bce,
    0x9da431a13e07f59d, 0xd65d4d202092f700, 0xdc99eb9d5f8ce25e, 0x60f83dcc3e166c03, 0x7b3790d0495def89,
];
