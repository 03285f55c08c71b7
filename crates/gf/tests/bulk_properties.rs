//! Property tests proving the bulk slice kernels byte-identical to the
//! scalar `Gf256`-operator oracle, across random coefficients, lengths and
//! alignments (the SIMD kernels switch implementation at 16/32-byte block
//! boundaries, so odd lengths matter).

use lds_gf::{bulk, Gf256};
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mul_add_slice_matches_scalar_oracle(
        c in gf(),
        src in proptest::collection::vec(any::<u8>(), 0..200),
        seed in any::<u8>(),
    ) {
        let dst_init: Vec<u8> = (0..src.len()).map(|i| (i as u8) ^ seed).collect();
        let mut bulk_out = dst_init.clone();
        let mut scalar_out = dst_init;
        bulk::mul_add_slice(c, &src, &mut bulk_out);
        bulk::scalar_mul_add_slice(c, &src, &mut scalar_out);
        prop_assert_eq!(bulk_out, scalar_out);
    }

    #[test]
    fn xor_slice_matches_scalar_oracle(
        src in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bulk_out = vec![0x3Cu8; src.len()];
        let mut scalar_out = vec![0x3Cu8; src.len()];
        bulk::xor_slice(&src, &mut bulk_out);
        bulk::scalar_mul_add_slice(Gf256::ONE, &src, &mut scalar_out);
        prop_assert_eq!(bulk_out, scalar_out);
    }

    #[test]
    fn fused_kernel_matches_scalar_oracle(
        coeffs in proptest::collection::vec(any::<u8>(), 0..9),
        len in 0usize..150,
        seed in any::<u8>(),
    ) {
        let sources: Vec<Vec<u8>> = coeffs
            .iter()
            .map(|&c| (0..len).map(|i| (i as u8).wrapping_mul(13) ^ c).collect())
            .collect();
        let terms: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (Gf256::new(c), s.as_slice()))
            .collect();

        let dst_init: Vec<u8> = (0..len).map(|i| (i as u8) ^ seed).collect();
        let mut fused = dst_init.clone();
        let mut scalar = dst_init;
        bulk::mul_add_slices(&terms, &mut fused);
        for (c, s) in &terms {
            bulk::scalar_mul_add_slice(*c, s, &mut scalar);
        }
        prop_assert_eq!(fused, scalar);
    }

    #[test]
    fn mul_table_agrees_with_field_multiplication(a in gf(), b in gf()) {
        prop_assert_eq!(
            bulk::MUL_TABLE[a.value() as usize][b.value() as usize],
            (a * b).value()
        );
    }
}
