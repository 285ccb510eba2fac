//! Versioned, integrity-checked on-disk persistence of compiled models.
//!
//! Compiling a circuit (§3 of the paper's pipeline: segmentation,
//! moralization, triangulation, junction-tree construction, potential
//! initialization) dominates end-to-end latency for repeated estimation,
//! and the engine's in-memory LRU only amortizes it *within* a process.
//! This module gives compiled models a durable form so a fresh process can
//! warm-start: `compile → persist` once, `load → propagate` everywhere,
//! with bit-identical estimates (every `f64` travels as its exact bit
//! pattern via [`swact_bayesnet::codec`]).
//!
//! # File layout
//!
//! All integers little-endian, strings length-prefixed:
//!
//! ```text
//! magic            8 bytes   b"SWACTBN1"
//! format_version   u32       bumped on any encoding change
//! model_key        u128      FNV-1a-128 of circuit + options + spec shape
//! workspace        string    crate version that wrote the artifact
//! payload_len      u64
//! payload_checksum u128      FNV-1a-128 over the payload bytes
//! payload          bytes     [`pipeline::persist`] pipeline encoding
//! ```
//!
//! # Invalidation
//!
//! An artifact is rejected — never panicking, always leaving the caller to
//! fall through to a clean compile — when any of these fail, checked in
//! order: magic ([`ArtifactError::BadMagic`]), format version
//! ([`ArtifactError::UnsupportedVersion`]), writing crate version
//! ([`ArtifactError::WorkspaceMismatch`] — compiled numerics may legally
//! change between releases), model key ([`ArtifactError::ForeignKey`]),
//! payload checksum ([`ArtifactError::ChecksumMismatch`]), and finally
//! structural validation of the payload itself
//! ([`ArtifactError::Corrupt`]).
//!
//! The [`model_key`] binds an artifact to *what was compiled*: the working
//! circuit's structure, the full [`Options`], and the correlation shape of
//! the [`InputSpec`] (group membership and pairwise-joint wiring — the
//! parts [`CompiledEstimator::compile_for`] bakes into the trees). Input
//! probabilities are deliberately excluded: they are propagate-time data,
//! so one artifact serves every sweep point.
//!
//! Writes are atomic (unique temp file in the target directory, then
//! `rename`), so concurrent processes sharing a cache directory never
//! observe a torn artifact.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use swact_bayesnet::codec::{fnv128, CodecError, Reader, Writer, FNV128_OFFSET};
use swact_circuit::Circuit;

use crate::estimator::Options;
use crate::pipeline::persist;
use crate::{CompiledEstimator, InputSpec};

/// Leading bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"SWACTBN1";

/// Version of the on-disk encoding. Any change to the payload layout (or
/// the header after the version field) must bump this; readers reject
/// every other version. Version 2 added the structure-strategy tags to
/// the options codec and a per-segment ordering flag to segment stats;
/// version 3 added the sampling backend (seed/CI options, sampling
/// segment artifacts, and the `Fallback::Sampling` degradation tag);
/// version 4 added the propagation-kernel tag to the options codec and
/// blocked stride tables to the compiled-tree kernels; version 5 removed
/// the ordering-strategy tag from the options codec and the
/// per-segment ordering flag from segment stats; version 6 removed the
/// propagation-kernel tag from the options codec and from every compiled
/// tree.
pub const FORMAT_VERSION: u32 = 6;

/// Extension used by [`artifact_file_name`].
pub const ARTIFACT_EXTENSION: &str = "swact";

/// Why an artifact could not be written or trusted.
///
/// Every variant except [`ArtifactError::Io`] means "this file is not a
/// usable artifact for this request" — callers fall back to compiling.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] (or is shorter than it).
    BadMagic,
    /// The file's format version differs from [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The artifact was written by a different crate version. Compiled
    /// numerics may legally change between releases, so cross-version
    /// artifacts are rejected rather than risk silently different
    /// estimates.
    WorkspaceMismatch {
        /// Version recorded in the artifact.
        artifact: String,
        /// This crate's version.
        current: String,
    },
    /// The artifact's model key does not match the requested one — it was
    /// compiled from a different circuit, options, or correlation shape.
    ForeignKey {
        /// Key the caller asked for.
        expected: u128,
        /// Key recorded in the artifact.
        found: u128,
    },
    /// The payload bytes do not hash to the recorded checksum.
    ChecksumMismatch,
    /// The checksum matched but the payload failed structural validation
    /// (should not happen for files this crate wrote).
    Corrupt(CodecError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o: {e}"),
            ArtifactError::BadMagic => write!(f, "not a swact artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => write!(
                f,
                "unsupported artifact format version {found} (expected {FORMAT_VERSION})"
            ),
            ArtifactError::WorkspaceMismatch { artifact, current } => {
                write!(f, "artifact written by swact {artifact}, this is {current}")
            }
            ArtifactError::ForeignKey { expected, found } => write!(
                f,
                "artifact model key {found:032x} does not match expected {expected:032x}"
            ),
            ArtifactError::ChecksumMismatch => write!(f, "artifact payload checksum mismatch"),
            ArtifactError::Corrupt(e) => write!(f, "artifact payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> ArtifactError {
        ArtifactError::Corrupt(e)
    }
}

/// The parsed fixed part of an artifact file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactHeader {
    /// Encoding version ([`FORMAT_VERSION`] for files this build reads).
    pub format_version: u32,
    /// Key binding the artifact to circuit + options + correlation shape.
    pub model_key: u128,
    /// Crate version that wrote the artifact.
    pub workspace_version: String,
    /// Payload size in bytes.
    pub payload_len: u64,
    /// FNV-1a-128 checksum of the payload.
    pub checksum: u128,
}

/// Stable 128-bit identity of a compiled model: circuit structure, the
/// full [`Options`], and the correlation *shape* of the spec (group
/// membership and pairwise wiring) — exactly the inputs that determine
/// the compiled artifact. Input probabilities do not participate, so one
/// key covers every propagation over the same compiled structure.
///
/// The key is a pure function of its arguments — stable across processes,
/// machines, and hash-seed randomization (unlike `DefaultHasher`).
pub fn model_key(circuit: &Circuit, spec: Option<&InputSpec>, options: &Options) -> u128 {
    let mut w = Writer::new();
    persist::write_circuit(&mut w, circuit);
    persist::write_options(&mut w, options);
    match spec {
        None => w.u8(0),
        Some(spec) => {
            w.u8(1);
            w.usize(spec.groups().len());
            for group in spec.groups() {
                w.usize(group.members.len());
                for &member in &group.members {
                    w.usize(member);
                }
            }
            w.usize(spec.pairwise_joints().len());
            for pair in spec.pairwise_joints() {
                w.usize(pair.a);
                w.usize(pair.b);
            }
        }
    }
    fnv128(FNV128_OFFSET, &w.into_bytes())
}

/// Canonical file name of an artifact: the model key in hex plus
/// [`ARTIFACT_EXTENSION`].
pub fn artifact_file_name(key: u128) -> String {
    format!("{key:032x}.{ARTIFACT_EXTENSION}")
}

/// Parses a file name produced by [`artifact_file_name`] back to its key.
pub fn parse_artifact_file_name(name: &str) -> Option<u128> {
    let stem = name.strip_suffix(&format!(".{ARTIFACT_EXTENSION}"))?;
    if stem.len() != 32 {
        return None;
    }
    u128::from_str_radix(stem, 16).ok()
}

fn encode_with(key: u128, workspace_version: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u128(key);
    w.str(workspace_version);
    w.u64(payload.len() as u64);
    w.u128(fnv128(FNV128_OFFSET, payload));
    w.raw(payload);
    w.into_bytes()
}

/// Serializes a compiled estimator into artifact bytes under `key`.
pub fn encode_artifact(key: u128, estimator: &CompiledEstimator) -> Vec<u8> {
    encode_with(
        key,
        env!("CARGO_PKG_VERSION"),
        &persist::encode_pipeline(estimator),
    )
}

fn read_header_fields(r: &mut Reader<'_>) -> Result<ArtifactHeader, ArtifactError> {
    let magic = r.raw(MAGIC.len()).map_err(|_| ArtifactError::BadMagic)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let format_version = r.u32()?;
    if format_version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: format_version,
        });
    }
    let model_key = r.u128()?;
    let workspace_version = r.str()?;
    let payload_len = r.u64()?;
    let checksum = r.u128()?;
    Ok(ArtifactHeader {
        format_version,
        model_key,
        workspace_version,
        payload_len,
        checksum,
    })
}

/// Parses and validates the header of artifact bytes without touching the
/// payload (beyond checking the recorded length fits the file).
pub fn decode_header(bytes: &[u8]) -> Result<ArtifactHeader, ArtifactError> {
    let mut r = Reader::new(bytes);
    let header = read_header_fields(&mut r)?;
    if (r.remaining() as u64) < header.payload_len {
        return Err(ArtifactError::Corrupt(CodecError::Truncated));
    }
    Ok(header)
}

/// Decodes artifact bytes into a compiled estimator, enforcing every
/// invalidation rule in the module docs. When `expected_key` is given the
/// artifact must have been compiled for exactly that model.
pub fn decode_artifact(
    bytes: &[u8],
    expected_key: Option<u128>,
) -> Result<(ArtifactHeader, CompiledEstimator), ArtifactError> {
    let mut r = Reader::new(bytes);
    let header = read_header_fields(&mut r)?;
    let current = env!("CARGO_PKG_VERSION");
    if header.workspace_version != current {
        return Err(ArtifactError::WorkspaceMismatch {
            artifact: header.workspace_version.clone(),
            current: current.to_string(),
        });
    }
    if let Some(expected) = expected_key {
        if header.model_key != expected {
            return Err(ArtifactError::ForeignKey {
                expected,
                found: header.model_key,
            });
        }
    }
    let payload_len = usize::try_from(header.payload_len)
        .map_err(|_| ArtifactError::Corrupt(CodecError::Truncated))?;
    let payload = r.raw(payload_len)?;
    if fnv128(FNV128_OFFSET, payload) != header.checksum {
        return Err(ArtifactError::ChecksumMismatch);
    }
    r.finish()?;
    Ok((header, persist::decode_pipeline(payload)?))
}

/// Reads and validates only the header of an artifact file.
pub fn read_header(path: &Path) -> Result<ArtifactHeader, ArtifactError> {
    decode_header(&fs::read(path)?)
}

/// Loads a compiled estimator from an artifact file. See
/// [`decode_artifact`] for the validation performed.
pub fn read_artifact(
    path: &Path,
    expected_key: Option<u128>,
) -> Result<(ArtifactHeader, CompiledEstimator), ArtifactError> {
    decode_artifact(&fs::read(path)?, expected_key)
}

/// Fully validates an artifact file — header, checksum, and structural
/// payload decode — without keeping the estimator.
pub fn verify_artifact(path: &Path) -> Result<ArtifactHeader, ArtifactError> {
    read_artifact(path, None).map(|(header, _)| header)
}

/// Persists a compiled estimator under `dir`, named by
/// [`artifact_file_name`]. The write is atomic: bytes go to a unique temp
/// file in `dir` first and are `rename`d into place, so a concurrent
/// reader sees either the old artifact or the complete new one, never a
/// torn file. Returns the final path.
pub fn write_artifact(
    dir: &Path,
    key: u128,
    estimator: &CompiledEstimator,
) -> Result<PathBuf, ArtifactError> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(dir)?;
    let final_path = dir.join(artifact_file_name(key));
    let temp_path = dir.join(format!(
        ".tmp-{}-{}-{key:032x}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let bytes = encode_artifact(key, estimator);
    let result = (|| {
        let mut file = fs::File::create(&temp_path)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        fs::rename(&temp_path, &final_path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&temp_path);
    }
    result?;
    Ok(final_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, InputGroup, InputModel, SegmentationStrategy};
    use swact_circuit::catalog;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swact-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn compiled_c17() -> CompiledEstimator {
        CompiledEstimator::compile(&catalog::c17(), &Options::default()).expect("compiles")
    }

    #[test]
    fn file_name_round_trips_the_key() {
        let key = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let name = artifact_file_name(key);
        assert_eq!(parse_artifact_file_name(&name), Some(key));
        assert_eq!(parse_artifact_file_name("nope.swact"), None);
        assert_eq!(parse_artifact_file_name("0.swact"), None);
        assert_eq!(parse_artifact_file_name(&name[..10]), None);
    }

    #[test]
    fn model_key_is_stable_and_sensitive() {
        let c17 = catalog::c17();
        let options = Options::default();
        let key = model_key(&c17, None, &options);
        assert_eq!(key, model_key(&c17, None, &options), "must be pure");
        let other_backend = Options {
            backend: Backend::Bdd,
            ..options
        };
        assert_ne!(key, model_key(&c17, None, &other_backend));
        assert_ne!(key, model_key(&catalog::paper_example(), None, &options));
        // Correlation shape participates; probabilities do not.
        let grouped = |copy_prob| {
            InputSpec::uniform(5).with_groups(vec![InputGroup {
                members: vec![0, 1],
                latent: InputModel::independent(0.5),
                copy_prob,
            }])
        };
        let a = grouped(0.3);
        let b = grouped(0.9);
        assert_ne!(key, model_key(&c17, Some(&a), &options));
        assert_eq!(
            model_key(&c17, Some(&a), &options),
            model_key(&c17, Some(&b), &options),
            "group probabilities are propagate-time data"
        );
        // The segmentation strategy shapes the compiled artifact, so it is
        // identity: strategies must never mix.
        assert_ne!(
            key,
            model_key(
                &c17,
                None,
                &Options::with_segmentation(SegmentationStrategy::BalancedCut)
            )
        );
    }

    #[test]
    fn disk_round_trip_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let c17 = catalog::c17();
        let compiled = compiled_c17();
        let key = model_key(&c17, None, compiled.options());
        let path = write_artifact(&dir, key, &compiled).expect("writes");
        assert_eq!(
            path.file_name().unwrap().to_str(),
            Some(artifact_file_name(key).as_str())
        );
        let (header, loaded) = read_artifact(&path, Some(key)).expect("loads");
        assert_eq!(header.model_key, key);
        assert_eq!(header.workspace_version, env!("CARGO_PKG_VERSION"));
        let spec = InputSpec::independent(vec![0.12, 0.3, 0.5, 0.77, 0.9]);
        let fresh = compiled.estimate(&spec).expect("fresh");
        let warm = loaded.estimate(&spec).expect("warm");
        for line in c17.line_ids() {
            let a = fresh.distribution(line).as_array();
            let b = warm.distribution(line).as_array();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "line {line}");
            }
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_and_truncated_artifacts_are_rejected() {
        let compiled = compiled_c17();
        let bytes = encode_artifact(7, &compiled);
        // Flip one payload byte: checksum must catch it.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            decode_artifact(&flipped, Some(7)),
            Err(ArtifactError::ChecksumMismatch)
        ));
        // Truncations anywhere must error, never panic.
        for cut in [0, 4, 8, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_artifact(&bytes[..cut], None).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_artifact(&trailing, None).is_err());
        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_artifact(&wrong_magic, None),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn version_and_key_mismatches_are_rejected() {
        let compiled = compiled_c17();
        let bytes = encode_artifact(7, &compiled);
        // Bump the format version (bytes 8..12, little-endian u32).
        let mut bumped = bytes.clone();
        bumped[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_artifact(&bumped, Some(7)),
            Err(ArtifactError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
        ));
        // A different workspace version is stale.
        let payload = persist::encode_pipeline(&compiled);
        let foreign = encode_with(7, "0.0.0-elsewhere", &payload);
        assert!(matches!(
            decode_artifact(&foreign, Some(7)),
            Err(ArtifactError::WorkspaceMismatch { .. })
        ));
        // A key mismatch is foreign.
        assert!(matches!(
            decode_artifact(&bytes, Some(8)),
            Err(ArtifactError::ForeignKey {
                expected: 8,
                found: 7
            })
        ));
        // With no expected key the same artifact is fine.
        assert!(decode_artifact(&bytes, None).is_ok());
    }

    #[test]
    fn verify_and_header_only_reads() {
        let dir = temp_dir("verify");
        let compiled = compiled_c17();
        let path = write_artifact(&dir, 42, &compiled).expect("writes");
        let header = read_header(&path).expect("header");
        assert_eq!(header.model_key, 42);
        assert_eq!(verify_artifact(&path).expect("verifies"), header);
        // Damage the payload: header-only read still succeeds, verify fails.
        let mut bytes = fs::read(&path).expect("read");
        *bytes.last_mut().unwrap() ^= 0xff;
        fs::write(&path, &bytes).expect("write");
        assert!(read_header(&path).is_ok());
        assert!(matches!(
            verify_artifact(&path),
            Err(ArtifactError::ChecksumMismatch)
        ));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
