//! Property-based tests of the erasure / regenerating code invariants that
//! the LDS protocol relies on.

use lds_codes::linear::{Construction, LinearCode};
use lds_codes::mbr::ProductMatrixMbr;
use lds_codes::msr::ProductMatrixMsr;
use lds_codes::rs::ReedSolomon;
use lds_codes::{ErasureCode, HelperData, RegeneratingCode, Share};
use lds_gf::Matrix;
use proptest::prelude::*;

/// Strategy yielding small but varied MBR parameters and a value.
fn mbr_case() -> impl Strategy<Value = (usize, usize, usize, Vec<u8>)> {
    (
        2usize..=5,
        0usize..=3,
        1usize..=4,
        proptest::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(k, extra_d, extra_n, value)| {
            let d = k + extra_d;
            let n = d + 1 + extra_n;
            (n, k, d, value)
        })
}

fn msr_case() -> impl Strategy<Value = (usize, usize, Vec<u8>)> {
    (
        2usize..=5,
        1usize..=4,
        proptest::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(k, extra_n, value)| {
            let d = 2 * k - 2;
            let n = d + 1 + extra_n;
            (n, k, value)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mbr_decode_from_random_k_subset((n, k, d, value) in mbr_case(), seed in any::<u64>()) {
        let code = ProductMatrixMbr::with_dimensions(n, k, d).unwrap();
        let shares = code.encode(&value).unwrap();
        let subset = pick_subset(n, k, seed);
        let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
        prop_assert_eq!(code.decode(&chosen).unwrap(), value);
    }

    #[test]
    fn mbr_exact_repair_from_random_d_subset((n, k, d, value) in mbr_case(), seed in any::<u64>()) {
        let code = ProductMatrixMbr::with_dimensions(n, k, d).unwrap();
        let shares = code.encode(&value).unwrap();
        let failed = (seed as usize) % n;
        let helpers_ids = pick_subset_excluding(n, d, failed, seed ^ 0xdead_beef);
        let helpers: Vec<HelperData> = helpers_ids
            .iter()
            .map(|&h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        prop_assert_eq!(code.repair(failed, &helpers).unwrap(), shares[failed].clone());
    }

    #[test]
    fn mbr_repaired_share_still_decodes((n, k, d, value) in mbr_case(), seed in any::<u64>()) {
        // After repairing a node, a decode that includes the repaired share
        // must still return the original value (exact repair end-to-end).
        let code = ProductMatrixMbr::with_dimensions(n, k, d).unwrap();
        let shares = code.encode(&value).unwrap();
        let failed = (seed as usize) % n;
        let helper_ids = pick_subset_excluding(n, d, failed, seed);
        let helpers: Vec<HelperData> = helper_ids
            .iter()
            .map(|&h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        let repaired = code.repair(failed, &helpers).unwrap();
        let mut pool: Vec<Share> = vec![repaired];
        pool.extend(pick_subset_excluding(n, k - 1, failed, seed ^ 1).into_iter().map(|i| shares[i].clone()));
        prop_assert_eq!(code.decode(&pool).unwrap(), value);
    }

    #[test]
    fn msr_decode_and_repair((n, k, value) in msr_case(), seed in any::<u64>()) {
        let code = match ProductMatrixMsr::with_dimensions(n, k) {
            Ok(c) => c,
            Err(_) => return Ok(()), // lambda-collision limit; skip
        };
        let d = 2 * k - 2;
        let shares = code.encode(&value).unwrap();
        let subset = pick_subset(n, k, seed);
        let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
        prop_assert_eq!(code.decode(&chosen).unwrap(), value.clone());

        let failed = (seed as usize) % n;
        let helper_ids = pick_subset_excluding(n, d, failed, seed ^ 7);
        let helpers: Vec<HelperData> = helper_ids
            .iter()
            .map(|&h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        prop_assert_eq!(code.repair(failed, &helpers).unwrap(), shares[failed].clone());
    }

    #[test]
    fn rs_decode_from_random_subset(
        n in 3usize..12,
        k_frac in 1usize..=10,
        value in proptest::collection::vec(any::<u8>(), 0..400),
        seed in any::<u64>(),
    ) {
        let k = (k_frac * n / 12).clamp(1, n);
        let code = ReedSolomon::with_dimensions(n, k).unwrap();
        let shares = code.encode(&value).unwrap();
        let subset = pick_subset(n, k, seed);
        let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
        prop_assert_eq!(code.decode(&chosen).unwrap(), value);
    }

    /// Decoding straight into the caller's buffer must not let what the
    /// buffer held before (or how long it was) leak into the value: the
    /// codecs zero each output byte once, and this is what notices a zeroing
    /// pass removed too many.
    #[test]
    fn decode_into_ignores_prior_output_contents(
        k in 2usize..=4,
        value in proptest::collection::vec(any::<u8>(), 0..1500),
        stale in 0usize..2000,
        seed in any::<u64>(),
    ) {
        for code in &coded_codecs(k) {
            let shares = code.encode(&value).unwrap();
            let subset = pick_subset(code.params().n(), k, seed);
            let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            let mut out = vec![0xAA; stale];
            code.decode_into(&chosen, &mut out).unwrap();
            prop_assert!(out == value, "{}: decoded bytes differ", code.params());
        }
    }

    /// A reader decodes whatever `k` servers sent it. Shares of well-formed
    /// length but arbitrary content decode to an arbitrary framed buffer —
    /// length header included — and the answer must be a value that fits or
    /// an error, never a panic (run in debug and `--release`: overflow
    /// checks differ).
    #[test]
    fn decode_of_arbitrary_share_bytes_never_panics(
        k in 2usize..=4,
        symbol_len in 1usize..40,
        noise in proptest::collection::vec(any::<u8>(), 4 * 5 * 40),
    ) {
        for code in &coded_codecs(k) {
            let share_len = code.params().alpha() * symbol_len;
            let shares: Vec<Share> = noise
                .chunks_exact(share_len)
                .take(k)
                .enumerate()
                .map(|(i, bytes)| Share::new(i, bytes.to_vec()))
                .collect();
            prop_assert_eq!(shares.len(), k);
            let mut out = Vec::new();
            if code.decode_into(&shares, &mut out).is_ok() {
                prop_assert!(out.len() <= k * share_len, "{}", code.params());
            }
        }
    }

    /// The algebra the kernels are then trusted with, payload-free: for every
    /// construction the decode matrix of a survivor set undoes that set's
    /// stacked generator, and the repair matrix of a helper set takes the
    /// rows the helpers compute (their helper row times their generator) to
    /// the failed node's generator. For MSR and RS, whose decode matrix is
    /// the engine's generic inverse, this is the check independent of any
    /// round trip.
    #[test]
    fn plans_invert_the_generator_for_every_construction(seed in any::<u64>()) {
        plan_identities(&ProductMatrixMbr::with_dimensions(9, 2, 3).unwrap(), seed)?;
        plan_identities(&ProductMatrixMbr::with_dimensions(9, 4, 4).unwrap(), seed)?;
        plan_identities(&ProductMatrixMbr::with_dimensions(12, 4, 6).unwrap(), seed)?;
        plan_identities(&ProductMatrixMsr::with_dimensions(5, 2).unwrap(), seed)?;
        plan_identities(&ProductMatrixMsr::with_dimensions(10, 4).unwrap(), seed)?;
        plan_identities(&ProductMatrixMsr::with_dimensions(20, 10).unwrap(), seed)?;
        plan_identities(&ReedSolomon::with_dimensions(9, 2).unwrap(), seed)?;
        plan_identities(&ReedSolomon::with_dimensions(8, 5).unwrap(), seed)?;
    }

    #[test]
    fn mbr_share_sizes_respect_mbr_point((n, k, d, value) in mbr_case()) {
        // alpha = d * beta: per-node storage equals total repair download.
        let code = ProductMatrixMbr::with_dimensions(n, k, d).unwrap();
        let shares = code.encode(&value).unwrap();
        let helper = code.helper_data(&shares[0], (1) % n).unwrap();
        prop_assert_eq!(shares[0].data.len(), d * helper.data.len());
    }
}

fn plan_identities<C: Construction>(code: &LinearCode<C>, seed: u64) -> Result<(), TestCaseError> {
    let construction = code.construction();
    let params = *code.params();
    let mut survivors = pick_subset(params.n(), params.k(), seed);
    survivors.sort_unstable();
    let undone = construction
        .decode_matrix(&survivors)
        .unwrap()
        .checked_mul(&construction.stacked_generator(&survivors))
        .unwrap();
    prop_assert!(
        undone == Matrix::identity(params.file_size()),
        "{params}: decode_matrix({survivors:?}) x stacked generator is not the identity"
    );

    let failed = (seed >> 8) as usize % params.n();
    let mut helpers = pick_subset_excluding(params.n(), params.d(), failed, seed ^ 0x5bd1_e995);
    helpers.sort_unstable();
    let coefficients = construction.helper_coefficients(failed).to_vec();
    let helper_rows = helpers
        .iter()
        .map(|&h| {
            Matrix::from_vec(1, params.alpha(), coefficients.clone())
                .checked_mul(&construction.stacked_generator(&[h]))
                .unwrap()
        })
        .reduce(|above, row| above.vconcat(&row))
        .unwrap();
    let repaired = construction
        .repair_matrix(failed, &helpers)
        .unwrap()
        .checked_mul(&helper_rows)
        .unwrap();
    prop_assert!(
        repaired == construction.stacked_generator(&[failed]),
        "{params}: repair_matrix({failed}, {helpers:?}) x helper rows is not node {failed}'s generator"
    );
    Ok(())
}

/// One instance of each coded codec whose `decode_into` writes the caller's
/// buffer directly, all with the same `k`.
fn coded_codecs(k: usize) -> [Box<dyn ErasureCode>; 3] {
    [
        Box::new(ProductMatrixMbr::with_dimensions(k + 4, k, k + 1).unwrap()),
        Box::new(ReedSolomon::with_dimensions(k + 4, k).unwrap()),
        Box::new(ProductMatrixMsr::with_dimensions(2 * k + 2, k).unwrap()),
    ]
}

/// Deterministically picks `count` distinct indices out of `0..n` from a seed.
fn pick_subset(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..indices.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices
}

fn pick_subset_excluding(n: usize, count: usize, excluded: usize, seed: u64) -> Vec<usize> {
    let mut v = pick_subset(n, n, seed);
    v.retain(|&i| i != excluded);
    v.truncate(count);
    v
}
