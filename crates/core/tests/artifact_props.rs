//! Property tests for the on-disk artifact layer: a compiled pipeline
//! survives `compile → persist → load → propagate` with bit-identical
//! (`f64::to_bits`) results on c17 and c432 across sparse modes of the
//! jtree backend, and no mutilated byte stream — corrupted,
//! truncated, or version-bumped — ever panics or decodes.

use std::sync::OnceLock;

use proptest::prelude::*;
use swact::artifact::{self, ArtifactError};
use swact::{Backend, CompiledEstimator, InputModel, InputSpec, Options, SparseMode};
use swact_circuit::{catalog, Circuit};

struct Combo {
    label: String,
    circuit: Circuit,
    /// The estimator as compiled in this process.
    original: CompiledEstimator,
    /// The same estimator after an encode → decode round trip.
    loaded: CompiledEstimator,
}

/// Every (circuit × backend/sparse) combination under test, compiled and
/// round-tripped once — the properties then drive both estimators through
/// arbitrary input specs.
fn combos() -> &'static [Combo] {
    static CELL: OnceLock<Vec<Combo>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut out = Vec::new();
        for name in ["c17", "c432"] {
            let variants = [
                (Backend::Jtree, SparseMode::On),
                (Backend::Jtree, SparseMode::Off),
            ];
            for (backend, sparse) in variants {
                let circuit = catalog::benchmark(name).unwrap();
                let options = Options {
                    backend,
                    sparse,
                    ..Options::default()
                };
                let spec = InputSpec::uniform(circuit.num_inputs());
                let original = CompiledEstimator::compile_for(&circuit, &spec, &options).unwrap();
                let key = artifact::model_key(&circuit, Some(&spec), &options);
                let bytes = artifact::encode_artifact(key, &original);
                let (header, loaded) = artifact::decode_artifact(&bytes, Some(key)).unwrap();
                assert_eq!(header.model_key, key);
                out.push(Combo {
                    label: format!("{name}/{backend:?}/{sparse:?}"),
                    circuit,
                    original,
                    loaded,
                });
            }
        }
        out
    })
}

/// Encoded artifact bytes (and their key) for the smallest combo — the
/// mutation properties only need one real artifact to mangle.
fn c17_artifact() -> &'static (u128, Vec<u8>) {
    static CELL: OnceLock<(u128, Vec<u8>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let circuit = catalog::c17();
        let options = Options::default();
        let spec = InputSpec::uniform(circuit.num_inputs());
        let compiled = CompiledEstimator::compile_for(&circuit, &spec, &options).unwrap();
        let key = artifact::model_key(&circuit, Some(&spec), &options);
        (key, artifact::encode_artifact(key, &compiled))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A loaded artifact propagates bit-identically to the estimator it
    /// was encoded from, for every input spec — not just the one the
    /// model was compiled for (probabilities are not part of the model).
    #[test]
    fn round_trip_propagates_bit_identically(
        combo_idx in 0usize..4,
        p1s in proptest::collection::vec(0.05f64..0.95, 36),
    ) {
        let combo = &combos()[combo_idx];
        let models: Vec<InputModel> = p1s
            .iter()
            .take(combo.circuit.num_inputs())
            .map(|&p| InputModel::independent(p))
            .collect();
        let spec = InputSpec::from_models(models);
        let from_original = combo.original.estimate(&spec).unwrap();
        let from_loaded = combo.loaded.estimate(&spec).unwrap();
        for line in combo.circuit.line_ids() {
            let a = from_original.distribution(line).as_array();
            let b = from_loaded.distribution(line).as_array();
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} diverges on {}",
                    &combo.label,
                    combo.circuit.line_name(line)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Flipping any single byte anywhere in an artifact — header, magic,
    /// version, key, checksum, or payload — must yield a typed error,
    /// never a panic and never a silently-wrong decode.
    #[test]
    fn single_byte_corruption_is_always_rejected(
        pos in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let (key, bytes) = c17_artifact();
        let mut mutated = bytes.clone();
        let pos = pos % mutated.len();
        mutated[pos] ^= flip;
        let result = artifact::decode_artifact(&mutated, Some(*key));
        prop_assert!(
            result.is_err(),
            "byte {} xor {:#04x} went undetected",
            pos,
            flip
        );
    }

    /// Truncating an artifact at any point must be rejected cleanly.
    #[test]
    fn truncation_is_always_rejected(cut in 0usize..usize::MAX) {
        let (key, bytes) = c17_artifact();
        let cut = cut % bytes.len();
        let result = artifact::decode_artifact(&bytes[..cut], Some(*key));
        prop_assert!(result.is_err(), "truncation at {} went undetected", cut);
    }

    /// Any format version other than the current one is rejected as
    /// `UnsupportedVersion` before the payload is even looked at.
    #[test]
    fn version_bumps_are_always_rejected(version in 0u32..=u32::MAX) {
        prop_assume!(version != artifact::FORMAT_VERSION);
        let (key, bytes) = c17_artifact();
        let mut mutated = bytes.clone();
        // The format version is the little-endian u32 right after the
        // 8-byte magic.
        mutated[8..12].copy_from_slice(&version.to_le_bytes());
        match artifact::decode_artifact(&mutated, Some(*key)) {
            Err(ArtifactError::UnsupportedVersion { found }) => {
                prop_assert_eq!(found, version);
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other.map(|(h, _)| h)),
        }
    }
}

/// Format 6 dropped the kernel option byte and the kernel byte of every
/// compiled tree, format 7 dropped the per-entry projection tables of
/// dense cliques, format 8 replaced the stored clique potentials with
/// hosted CPTs, format 9 dropped the OBDD segment kind and the
/// home-variable masks, format 10 dropped the segmentation-strategy
/// tag and the check-interval word from the options, and format 11
/// dropped every stored projection, so format-5 to -10 files must never
/// reach the payload decoder.
#[test]
fn older_format_artifacts_are_rejected() {
    assert_eq!(artifact::FORMAT_VERSION, 11);
    let (key, bytes) = c17_artifact();
    for version in [5u32, 6, 7, 8, 9, 10] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            artifact::decode_artifact(&old, Some(*key)),
            Err(ArtifactError::UnsupportedVersion { found }) if found == version
        ));
    }
}

/// A segmented c432 artifact written to disk under its model key and read
/// back warm-loads bit-identically to the estimator that wrote it.
#[test]
fn persisted_segmented_artifact_warm_loads_bit_identically() {
    let c432 = catalog::benchmark("c432").unwrap();
    let spec = InputSpec::uniform(c432.num_inputs());
    let options = Options::with_budget(1 << 12);
    let compiled = CompiledEstimator::compile_for(&c432, &spec, &options).unwrap();
    assert!(
        compiled.num_segments() > 1,
        "the artifact must be segmented"
    );
    let fresh = compiled.estimate(&spec).unwrap();

    let dir = std::env::temp_dir().join(format!("swact-artifact-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let key = artifact::model_key(&c432, Some(&spec), &options);
    let path = artifact::write_artifact(&dir, key, &compiled).unwrap();
    assert_eq!(path, dir.join(artifact::artifact_file_name(key)));
    let (_, loaded) = artifact::read_artifact(&path, Some(key)).unwrap();
    let warm = loaded.estimate(&spec).unwrap();
    for line in c432.line_ids() {
        assert_eq!(
            fresh.switching(line).to_bits(),
            warm.switching(line).to_bits(),
            "line {}",
            c432.line_name(line)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
