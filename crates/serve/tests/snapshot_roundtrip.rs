//! Property tests for the snapshot format: write → read → rewrite is
//! byte-identical, and *any* single-byte corruption or truncation fails
//! closed with a typed error — never a panic, never a silently-wrong load.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::OnceLock;

use proptest::{proptest, ProptestConfig};
use topple_core::Study;
use topple_serve::frame::HEADER_LEN;
use topple_serve::snapshot::encode_study;
use topple_serve::{ContainerError, Snapshot};
use topple_sim::WorldConfig;

/// One tiny study's snapshot bytes, built once and shared by every case.
fn baseline() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let study = Study::run(WorldConfig::tiny(20220201)).expect("tiny study");
        encode_study(
            &study,
            "tiny",
            &[("report".to_owned(), "rendered text\nline two".to_owned())],
        )
    })
}

#[test]
fn write_read_rewrite_is_byte_identical() {
    for seed in [1u64, 99, 20220201] {
        let study = Study::run(WorldConfig::tiny(seed)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[]);
        let snap = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            snap.to_bytes(),
            bytes,
            "decode→encode drifted for seed {seed}"
        );
        assert_eq!(snap.identity.seed, seed);
    }
}

#[test]
fn reserved_header_bytes_are_rejected() {
    // Offsets 6..8 are the reserved u16, which the shared frame holds to
    // zero for both container formats.
    for at in 6..8 {
        let mut bytes = baseline().to_vec();
        bytes[at] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(ContainerError::Malformed {
                context: "reserved header field must be 0"
            })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte must yield a typed error.
    #[test]
    fn corruption_fails_closed(offset in 0usize..48_000usize, flip in 1u8..=255u8) {
        let mut bytes = baseline().to_vec();
        let at = offset % bytes.len();
        bytes[at] ^= flip;
        let err = match Snapshot::from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("byte {at} ^ {flip:#04x} decoded successfully"),
        };
        // Every corruption maps to one of the structured variants; rendering
        // exercises the Display impls too.
        let text = err.to_string();
        assert!(!text.is_empty());
    }

    /// Every truncation point must yield a typed error (a short read can
    /// never masquerade as a smaller valid snapshot).
    #[test]
    fn truncation_fails_closed(keep in 0usize..48_000usize) {
        let bytes = baseline();
        let keep = keep % bytes.len(); // strictly less than full length
        let err = match Snapshot::from_bytes(&bytes[..keep]) {
            Err(e) => e,
            Ok(_) => panic!("{keep}-byte prefix decoded successfully"),
        };
        if keep >= HEADER_LEN {
            assert!(
                matches!(err, ContainerError::Truncated { .. }),
                "prefix {keep}: expected Truncated, got {err}"
            );
        }
    }

    /// Appending garbage must be rejected, not ignored.
    #[test]
    fn trailing_bytes_fail_closed(extra in 1usize..64usize) {
        let mut bytes = baseline().to_vec();
        let grown = bytes.len() + extra;
        bytes.resize(grown, 0xAA);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(ContainerError::TrailingBytes { .. })
        ));
    }
}

#[test]
fn header_errors_are_specific() {
    let bytes = baseline();
    let mut bad_magic = bytes.to_vec();
    bad_magic[0] = b'Z';
    assert!(matches!(
        Snapshot::from_bytes(&bad_magic),
        Err(ContainerError::BadMagic { .. })
    ));
    let mut bad_version = bytes.to_vec();
    bad_version[4] = 0x7F;
    assert!(matches!(
        Snapshot::from_bytes(&bad_version),
        Err(ContainerError::UnsupportedVersion { .. })
    ));
    let mut bad_payload = bytes.to_vec();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bad_payload[mid] ^= 0x01;
    assert!(matches!(
        Snapshot::from_bytes(&bad_payload),
        Err(ContainerError::ChecksumMismatch { .. })
    ));
}

#[test]
fn file_roundtrip_through_disk() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("topple-roundtrip-{}.tpls", std::process::id()));
    let study = Study::run(WorldConfig::tiny(42)).expect("tiny study");
    let id = topple_serve::write_study(&study, "tiny", &[], &path).expect("writes");
    let snap = Snapshot::read_from(&path).expect("reads");
    assert_eq!(snap.id(), id);
    assert_eq!(snap.to_bytes(), encode_study(&study, "tiny", &[]));
    let _ = std::fs::remove_file(&path);
}
