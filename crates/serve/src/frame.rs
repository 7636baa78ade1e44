//! The one container frame shared by `tpls` snapshots and `tpld` deltas.
//!
//! Both formats are one contiguous byte string: a fixed 20-byte header,
//! then the payload it describes.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  (b"TPLS" snapshot, b"TPLD" delta)
//! 4       2     format version (little-endian u16, currently 1)
//! 6       2     reserved (must be 0)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      —     payload
//! ```
//!
//! This module owns every framing decision: the header layout, the CRC-32
//! step, sealing a payload, opening one (magic, version, reserved field,
//! length and checksum, all fail-closed), the id string both formats
//! report, and the crash-safe file replacement both use on disk. The
//! payloads themselves are decoded through the shared bounds-checked
//! [`topple_vantage::wire::Reader`].

use std::fmt;
use std::fs::File;
use std::path::{Path, PathBuf};

use topple_stats::cast;
use topple_vantage::wire::Reader;

use crate::error::ContainerError;

/// Current format version of both containers.
pub const VERSION: u16 = 1;
/// Header length in bytes (magic + version + reserved + payload len + CRC).
pub const HEADER_LEN: usize = 20;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// A running CRC-32 (IEEE 802.3), fed in pieces: the streaming snapshot
/// writer checksums its payload as it goes, with no second pass.
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The checksum of no bytes yet.
    pub(crate) const fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = CRC_TABLE[((self.0 ^ u32::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    /// The checksum of everything fed so far.
    pub(crate) const fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE) of `data` — the polynomial every zip/png reader agrees on.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// The header for a payload of `payload_len` bytes with checksum `crc`.
pub fn header(magic: [u8; 4], payload_len: u64, crc: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    // 6..8: the reserved field stays 0.
    h[8..16].copy_from_slice(&payload_len.to_le_bytes());
    h[16..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Frames the payload `write` appends into one container: the payload is
/// written after a placeholder header, which is then filled in, so the
/// payload is never copied. `capacity` is a size hint for the payload.
pub fn seal(magic: [u8; 4], capacity: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + capacity);
    out.resize(HEADER_LEN, 0);
    write(&mut out);
    let payload = &out[HEADER_LEN..];
    let h = header(magic, cast::u64_from_usize(payload.len()), crc32(payload));
    out[..HEADER_LEN].copy_from_slice(&h);
    out
}

/// Checks the header of `bytes` against `magic` and returns the payload
/// with its CRC-32 (the content hash).
///
/// Fails closed on a wrong magic, an unknown version, a non-zero reserved
/// field, a payload shorter or longer than declared, or a checksum
/// mismatch.
pub fn open(magic: [u8; 4], bytes: &[u8]) -> Result<(&[u8], u32), ContainerError> {
    let mut r = Reader::new(bytes);
    let mut found = [0u8; 4];
    found.copy_from_slice(r.take(4)?);
    if found != magic {
        return Err(ContainerError::BadMagic {
            expected: magic,
            found,
        });
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(ContainerError::UnsupportedVersion { found: version });
    }
    if r.u16()? != 0 {
        return Err(ContainerError::Malformed {
            context: "reserved header field must be 0",
        });
    }
    let payload_len = r.u64()?;
    let crc = r.u32()?;
    let have = cast::u64_from_usize(r.remaining());
    if have < payload_len {
        return Err(ContainerError::Truncated {
            need: cast::u64_from_usize(HEADER_LEN).saturating_add(payload_len),
            have: cast::u64_from_usize(bytes.len()),
        });
    }
    if have > payload_len {
        return Err(ContainerError::TrailingBytes {
            extra: have - payload_len,
        });
    }
    let payload = r.take(r.remaining())?;
    let found_crc = crc32(payload);
    if found_crc != crc {
        return Err(ContainerError::ChecksumMismatch {
            expected: crc,
            found: found_crc,
        });
    }
    Ok((payload, crc))
}

/// The id string of a container: the lower-cased magic, the version and
/// the payload CRC, then a format-specific `tail`, e.g.
/// `tpls-v1-0123abcd-s7`. Two containers share an id iff they share bytes.
pub fn id(magic: [u8; 4], crc: u32, tail: impl fmt::Display) -> String {
    let kind: String = magic
        .iter()
        .map(|&b| char::from(b.to_ascii_lowercase()))
        .collect();
    format!("{kind}-v{VERSION}-{crc:08x}-{tail}")
}

/// Replaces the file at `path` crash-safely.
///
/// `write` fills the sibling `<path>.tmp`, which is then synced, renamed
/// over `path`, and the directory synced. A crash or an error at any
/// point leaves whatever file was at `path` before intact; a failed write
/// removes the temporary file it created.
pub fn write_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, ContainerError>,
) -> Result<T, ContainerError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    let written = write(&mut file).and_then(|out| {
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(out)
    });
    let out = match written {
        Ok(out) => out,
        Err(e) => {
            // The partial file is ours; removing it is best-effort cleanup
            // that must not mask the write error.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    // A relative file name has an empty parent: the current directory.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Feeding in pieces is the same checksum.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }
}
