//! The versioned, checksummed on-disk snapshot format.
//!
//! A snapshot is one contiguous file:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TPLS"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       2     reserved (must be 0)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      —     payload
//! ```
//!
//! The payload serializes, in fixed order: the study identity (seed, world
//! sizes, scale label), the rank magnitudes, the [`DomainTable`] name column,
//! the site → id column, the per-id Cloudflare flag bitset, the seven monthly
//! [`ListColumns`], both daily column families, and any rendered report
//! artifacts. Every sequence is length-prefixed and every integer is
//! little-endian, so the encoding of a given study is byte-identical across
//! runs, platforms, and worker counts — the snapshot id is just the payload
//! CRC.
//!
//! Decoding is fail-closed: a wrong magic, unknown version, short file,
//! checksum mismatch, or any violated structural invariant returns a typed
//! [`SnapshotError`]; nothing in this module panics on input bytes.

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use topple_core::{ListColumns, Study, StudyIndex};
use topple_lists::{DomainId, DomainTable, ListSource};
use topple_psl::DomainName;

use crate::error::SnapshotError;

/// File magic: "TopPLe Snapshot".
pub const MAGIC: [u8; 4] = *b"TPLS";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header length in bytes (magic + version + reserved + payload len + CRC).
pub const HEADER_LEN: usize = 20;

/// Who the snapshot is: the world parameters it was produced from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotIdentity {
    /// Master seed of the study's world.
    pub seed: u64,
    /// Number of sites in the world.
    pub n_sites: u64,
    /// Number of simulated clients.
    pub n_clients: u64,
    /// Number of study days.
    pub n_days: u32,
    /// Scale label the writer ran at (`tiny`/`small`/`medium`/`paper`).
    pub scale: String,
}

/// A fully-decoded snapshot: identity, the reassembled columnar index, the
/// rank magnitudes, and any rendered report artifacts.
#[derive(Debug)]
pub struct Snapshot {
    /// The world parameters the study ran with.
    pub identity: SnapshotIdentity,
    /// The reassembled columnar study index.
    pub index: StudyIndex,
    /// Rank magnitudes, `(label, k)` ascending.
    pub magnitudes: Vec<(String, u64)>,
    /// Rendered report artifacts, `(name, body)` in written order.
    pub artifacts: Vec<(String, String)>,
    /// CRC-32 of the payload as read (or as last encoded).
    pub crc32: u32,
}

impl Snapshot {
    /// The snapshot's stable identity string: format version, payload CRC,
    /// and seed. Two servers report the same id iff they serve the same
    /// bytes.
    pub fn id(&self) -> String {
        format!("tpls-v{VERSION}-{:08x}-s{}", self.crc32, self.identity.seed)
    }

    /// Re-encodes the snapshot to its on-disk byte form. Encoding a decoded
    /// snapshot reproduces the original file byte-for-byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let view = View {
            identity: &self.identity,
            index: &self.index,
            magnitudes: self
                .magnitudes
                .iter()
                .map(|(l, k)| (l.as_str(), *k))
                .collect(),
            artifacts: &self.artifacts,
        };
        encode(&view)
    }

    /// Decodes a snapshot from its on-disk byte form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        decode(bytes)
    }

    /// Reads and decodes a snapshot file.
    ///
    /// The file is memory-mapped rather than read into a heap buffer: the
    /// kernel's page cache backs the bytes directly, so validation and
    /// decoding start immediately with no read-syscall copy of the whole
    /// file — the difference between milliseconds and seconds for a
    /// multi-gigabyte index. See [`crate::mmap`] for the safety invariants.
    pub fn read_from(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = crate::mmap::MappedBytes::open(path)?;
        decode(&bytes)
    }
}

/// Encodes a completed study (plus rendered `artifacts`) into snapshot bytes.
/// `scale` is the writer's scale label, recorded in the identity section.
pub fn encode_study(study: &Study, scale: &str, artifacts: &[(String, String)]) -> Vec<u8> {
    let identity = study_identity(study, scale);
    let view = View {
        identity: &identity,
        index: study.index(),
        magnitudes: study
            .magnitudes()
            .iter()
            .map(|&(label, k)| (label, k as u64))
            .collect(),
        artifacts,
    };
    encode(&view)
}

/// The identity a study encodes under. `n_days` comes from the index's
/// daily columns, not the configured window, so a study built from a
/// contiguous *prefix* of the window ([`Study::from_shards`] with fewer
/// days ingested) carries an honest day count; for a full run the two are
/// equal and the bytes are unchanged.
fn study_identity(study: &Study, scale: &str) -> SnapshotIdentity {
    let config = &study.world.config;
    SnapshotIdentity {
        seed: config.seed,
        n_sites: config.n_sites as u64,
        n_clients: config.n_clients as u64,
        n_days: study.index().alexa_daily().len() as u32,
        scale: scale.to_owned(),
    }
}

/// Encodes a study and writes it to `path` in one call, returning the
/// snapshot id.
///
/// The payload streams to disk through a buffered, CRC-accumulating sink
/// rather than materializing the full encoded file in memory first: the
/// header is written as a placeholder, the payload bytes flow straight
/// through the `BufWriter`, and the real length + CRC are patched back over
/// the placeholder with one seek. Peak memory is the `BufWriter` buffer,
/// not the snapshot size — a prerequisite for multi-GB mmap-targeted
/// snapshots.
///
/// The write is crash-safe: the file is built as the sibling `<path>.tmp`,
/// synced, renamed over `path`, and the directory is synced. A crash or an
/// error at any point leaves whatever snapshot was at `path` before intact;
/// a failed write removes the temporary file it created.
pub fn write_study(
    study: &Study,
    scale: &str,
    artifacts: &[(String, String)],
    path: &Path,
) -> Result<String, SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = std::fs::File::create(&tmp)?;
    let written = write_study_to(study, scale, artifacts, file)
        .and_then(|id| std::fs::rename(&tmp, path).map(|()| id).map_err(Into::into));
    let id = match written {
        Ok(id) => id,
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
    std::fs::File::open(dir)?.sync_all()?;
    Ok(id)
}

/// Streams the snapshot of `study` into `file` and syncs it; the body of
/// [`write_study`].
fn write_study_to(
    study: &Study,
    scale: &str,
    artifacts: &[(String, String)],
    file: std::fs::File,
) -> Result<String, SnapshotError> {
    let identity = study_identity(study, scale);
    let view = View {
        identity: &identity,
        index: study.index(),
        magnitudes: study
            .magnitudes()
            .iter()
            .map(|&(label, k)| (label, k as u64))
            .collect(),
        artifacts,
    };

    let mut sink = FileSink {
        w: std::io::BufWriter::new(file),
        error: None,
    };
    sink.put(&[0u8; HEADER_LEN]); // placeholder header, patched below
    let mut crc_sink = CrcSink::new(&mut sink);
    encode_payload(&view, &mut crc_sink);
    let (payload_len, crc) = crc_sink.finish();
    if let Some(e) = sink.error {
        return Err(SnapshotError::Io(e));
    }
    let mut file = sink
        .w
        .into_inner()
        .map_err(|e| SnapshotError::Io(e.into_error()))?;

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&payload_len.to_le_bytes());
    header.extend_from_slice(&crc.to_le_bytes());
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;
    Ok(format!(
        "tpls-v{VERSION}-{crc:08x}-s{}",
        study.world.config.seed
    ))
}

// ---- CRC-32 (IEEE 802.3) --------------------------------------------------

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

/// CRC-32 (IEEE) of `data` — the polynomial every zip/png reader agrees on.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- encoding -------------------------------------------------------------

/// Everything the encoder reads, borrowed — shared between the study path
/// and [`Snapshot::to_bytes`] so the two cannot drift.
struct View<'a> {
    identity: &'a SnapshotIdentity,
    index: &'a StudyIndex,
    magnitudes: Vec<(&'a str, u64)>,
    artifacts: &'a [(String, String)],
}

/// Stable wire tag per list source (independent of enum declaration order).
fn source_tag(source: ListSource) -> u8 {
    match source {
        ListSource::Alexa => 0,
        ListSource::Umbrella => 1,
        ListSource::Majestic => 2,
        ListSource::Secrank => 3,
        ListSource::Tranco => 4,
        ListSource::Trexa => 5,
        ListSource::Crux => 6,
    }
}

fn tag_source(tag: u8) -> Option<ListSource> {
    Some(match tag {
        0 => ListSource::Alexa,
        1 => ListSource::Umbrella,
        2 => ListSource::Majestic,
        3 => ListSource::Secrank,
        4 => ListSource::Tranco,
        5 => ListSource::Trexa,
        6 => ListSource::Crux,
        _ => return None,
    })
}

/// Monthly write order: ascending wire tag.
const TAG_ORDER: [ListSource; 7] = [
    ListSource::Alexa,
    ListSource::Umbrella,
    ListSource::Majestic,
    ListSource::Secrank,
    ListSource::Tranco,
    ListSource::Trexa,
    ListSource::Crux,
];

/// An infallible-signature byte sink the encoder streams into.
///
/// Two implementations: `Vec<u8>` (in-memory encode, genuinely infallible)
/// and [`FileSink`] (buffered file writes, first error latched and checked
/// by the caller once encoding completes). The latched-error design keeps
/// the encoding functions free of `Result` plumbing and panics while still
/// failing closed: a sink that has errored swallows subsequent bytes, and
/// `write_study` surfaces the latched error before trusting the file.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Buffered file sink that latches the first write error.
struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
    error: Option<std::io::Error>,
}

impl Sink for FileSink {
    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.w.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

/// Pass-through sink that accumulates the CRC-32 and byte count of
/// everything flowing into the inner sink — so the streaming writer can
/// patch the header afterwards without a second pass over the payload.
struct CrcSink<'a, S: Sink> {
    inner: &'a mut S,
    /// Running CRC state (pre-finalization complement form).
    state: u32,
    len: u64,
}

impl<'a, S: Sink> CrcSink<'a, S> {
    fn new(inner: &'a mut S) -> Self {
        CrcSink {
            inner,
            state: 0xFFFF_FFFF,
            len: 0,
        }
    }

    /// Finalizes to `(payload length, CRC-32)`.
    fn finish(self) -> (u64, u32) {
        (self.len, !self.state)
    }
}

impl<S: Sink> Sink for CrcSink<'_, S> {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC_TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
        self.len += bytes.len() as u64;
        self.inner.put(bytes);
    }
}

fn put_u16(out: &mut impl Sink, v: u16) {
    out.put(&v.to_le_bytes());
}

fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

fn put_str16(out: &mut impl Sink, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string too long for u16 len");
    put_u16(out, s.len() as u16);
    out.put(s.as_bytes());
}

fn put_columns(out: &mut impl Sink, cols: &ListColumns) {
    put_u32(out, cols.ids.len() as u32);
    for id in &cols.ids {
        put_u32(out, id.raw());
    }
    for &v in &cols.values {
        put_u32(out, v);
    }
    out.put(&[u8::from(cols.ordered)]);
    put_u32(out, cols.cf_ids().len() as u32);
    for id in cols.cf_ids() {
        put_u32(out, id.raw());
    }
    for &p in cols.cf_prefix() {
        put_u32(out, p);
    }
}

/// Streams the payload section (everything after the header) into `out` in
/// the fixed wire order. Shared by the in-memory and direct-to-disk paths
/// so the two cannot drift.
fn encode_payload(view: &View<'_>, out: &mut impl Sink) {
    // Identity.
    put_u64(out, view.identity.seed);
    put_u64(out, view.identity.n_sites);
    put_u64(out, view.identity.n_clients);
    put_u32(out, view.identity.n_days);
    put_str16(out, &view.identity.scale);

    // Magnitudes.
    put_u32(out, view.magnitudes.len() as u32);
    for &(label, k) in &view.magnitudes {
        put_str16(out, label);
        put_u64(out, k);
    }

    // Domain table.
    let table = view.index.table();
    put_u32(out, table.len() as u32);
    for name in table.names() {
        put_str16(out, name.as_str());
    }

    // Site ids.
    put_u32(out, view.index.site_ids().len() as u32);
    for id in view.index.site_ids() {
        put_u32(out, id.raw());
    }

    // Cloudflare flag bitset, dense over the table.
    let flags = view.index.cf_flags();
    put_u32(out, flags.len() as u32);
    let mut acc = 0u8;
    for (i, &f) in flags.iter().enumerate() {
        if f {
            acc |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.put(&[acc]);
            acc = 0;
        }
    }
    if !flags.len().is_multiple_of(8) {
        out.put(&[acc]);
    }

    // Monthly columns, ascending wire tag.
    out.put(&[TAG_ORDER.len() as u8]);
    for source in TAG_ORDER {
        out.put(&[source_tag(source)]);
        put_columns(out, view.index.monthly(source));
    }

    // Daily columns.
    put_u32(out, view.index.alexa_daily().len() as u32);
    for cols in view.index.alexa_daily() {
        put_columns(out, cols);
    }
    put_u32(out, view.index.umbrella_daily().len() as u32);
    for cols in view.index.umbrella_daily() {
        put_columns(out, cols);
    }

    // Artifacts.
    put_u32(out, view.artifacts.len() as u32);
    for (name, body) in view.artifacts {
        put_str16(out, name);
        put_u32(out, body.len() as u32);
        out.put(body.as_bytes());
    }
}

fn encode(view: &View<'_>) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::with_capacity(1 << 20);
    encode_payload(view, &mut payload);

    // Header + payload.
    let mut out: Vec<u8> = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---- decoding -------------------------------------------------------------

/// Bounds-checked little-endian reader: every read either succeeds or
/// returns [`SnapshotError::Truncated`] — no slice indexing that can panic.
/// Shared with the `tpld` delta container ([`crate::delta`]), whose decoder
/// maps the errors into its own type.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, off: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.off)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        match self.buf.get(self.off..self.off + n) {
            Some(s) => {
                self.off += n;
                Ok(s)
            }
            None => Err(SnapshotError::Truncated {
                need: (self.off + n) as u64,
                have: self.buf.len() as u64,
            }),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    pub(crate) fn str16(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            context: "string section is not UTF-8",
        })
    }

    /// A length-prefixed count, sanity-capped so a corrupted header cannot
    /// trigger a multi-gigabyte allocation before the bounds check fires.
    pub(crate) fn count(&mut self, per_item: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(per_item) > self.remaining() {
            return Err(SnapshotError::Truncated {
                need: (self.off + n.saturating_mul(per_item)) as u64,
                have: self.buf.len() as u64,
            });
        }
        Ok(n)
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

fn read_ids(
    r: &mut Reader<'_>,
    n: usize,
    table_len: usize,
) -> Result<Vec<DomainId>, SnapshotError> {
    let raw = r.u32_vec(n)?;
    if raw.iter().any(|&id| id as usize >= table_len) {
        return Err(SnapshotError::Malformed {
            context: "id column points past the domain table",
        });
    }
    Ok(raw.into_iter().map(DomainId::from_raw).collect())
}

/// Rejects a list column that names one domain twice, in O(n) per list:
/// `stamp[id]` holds the tag of the last list that named `id`, and every
/// list checks under a fresh tag, so one table-sized column serves them all
/// with no clearing and no sort. This makes "one position per id" — which
/// the query layer's dense position columns rely on — a decode guarantee.
struct UniqueIds {
    stamp: Vec<u32>,
    tag: u32,
}

impl UniqueIds {
    fn new(table_len: usize) -> Self {
        UniqueIds {
            stamp: vec![0; table_len],
            tag: 0,
        }
    }

    /// `ids` must already be bounds-checked against the table.
    fn check(&mut self, ids: &[DomainId]) -> Result<(), SnapshotError> {
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.stamp.fill(0);
            self.tag = 1;
        }
        for id in ids {
            match self.stamp.get_mut(id.raw() as usize) {
                Some(slot) if *slot == self.tag => {
                    return Err(SnapshotError::Malformed {
                        context: "list column names one domain twice",
                    })
                }
                Some(slot) => *slot = self.tag,
                None => {
                    return Err(SnapshotError::Malformed {
                        context: "id column points past the domain table",
                    })
                }
            }
        }
        Ok(())
    }
}

/// Reads one list's columns. `is_cf` is the table's decoded CDN-served
/// flags, so its length is the table length.
fn read_columns(
    r: &mut Reader<'_>,
    is_cf: &[bool],
    unique: &mut UniqueIds,
) -> Result<ListColumns, SnapshotError> {
    let table_len = is_cf.len();
    let n = r.count(4)?;
    let ids = read_ids(r, n, table_len)?;
    unique.check(&ids)?;
    let values = r.u32_vec(n)?;
    let ordered = match r.u8()? {
        0 => false,
        1 => true,
        _ => {
            return Err(SnapshotError::Malformed {
                context: "ordered flag must be 0 or 1",
            })
        }
    };
    let cf_n = r.count(4)?;
    let cf_ids = read_ids(r, cf_n, table_len)?;
    let cf_prefix = r.u32_vec(n + 1)?;
    ListColumns::from_raw_parts(ids, values, ordered, cf_ids, cf_prefix, is_cf)
        .map_err(|context| SnapshotError::Malformed { context })
}

fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    // Header.
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(SnapshotError::BadMagic { found });
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let _reserved = r.u16()?;
    let payload_len = r.u64()?;
    let expected_crc = r.u32()?;
    let have = r.remaining() as u64;
    if have < payload_len {
        return Err(SnapshotError::Truncated {
            need: HEADER_LEN as u64 + payload_len,
            have: bytes.len() as u64,
        });
    }
    if have > payload_len {
        return Err(SnapshotError::TrailingBytes {
            extra: have - payload_len,
        });
    }
    let payload = r.take(payload_len as usize)?;
    let found_crc = crc32(payload);
    if found_crc != expected_crc {
        return Err(SnapshotError::ChecksumMismatch {
            expected: expected_crc,
            found: found_crc,
        });
    }

    // Payload.
    let mut r = Reader::new(payload);
    let identity = SnapshotIdentity {
        seed: r.u64()?,
        n_sites: r.u64()?,
        n_clients: r.u64()?,
        n_days: r.u32()?,
        scale: r.str16()?.to_owned(),
    };

    let n_mags = r.count(10)?;
    let mut magnitudes = Vec::with_capacity(n_mags);
    for _ in 0..n_mags {
        let label = r.str16()?.to_owned();
        let k = r.u64()?;
        magnitudes.push((label, k));
    }

    let n_names = r.count(2)?;
    let mut names: Vec<DomainName> = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        let s = r.str16()?;
        let name = s.parse().map_err(|_| SnapshotError::Malformed {
            context: "domain table holds an invalid domain name",
        })?;
        names.push(name);
    }
    let table = DomainTable::from_names(names);
    let table_len = table.len();

    let n_sites = r.count(4)?;
    let site_ids = read_ids(&mut r, n_sites, table_len)?;

    let n_flags = r.count(0)?;
    if n_flags != table_len {
        return Err(SnapshotError::Malformed {
            context: "cloudflare bitset length differs from the domain table",
        });
    }
    let packed = r.take(n_flags.div_ceil(8))?;
    let is_cf: Vec<bool> = (0..n_flags)
        .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
        .collect();

    let n_monthly = r.u8()? as usize;
    if n_monthly != TAG_ORDER.len() {
        return Err(SnapshotError::Malformed {
            context: "monthly section must hold exactly seven lists",
        });
    }
    let mut monthly: Vec<Option<ListColumns>> = (0..TAG_ORDER.len()).map(|_| None).collect();
    let mut unique = UniqueIds::new(table_len);
    for _ in 0..n_monthly {
        let tag = r.u8()?;
        let source = tag_source(tag).ok_or(SnapshotError::Malformed {
            context: "unknown list source tag",
        })?;
        let cols = read_columns(&mut r, &is_cf, &mut unique)?;
        let slot = &mut monthly[source_tag(source) as usize];
        if slot.is_some() {
            return Err(SnapshotError::Malformed {
                context: "duplicate list source tag",
            });
        }
        *slot = Some(cols);
    }

    let n_alexa = r.count(13)?;
    let mut alexa_daily = Vec::with_capacity(n_alexa);
    for _ in 0..n_alexa {
        alexa_daily.push(read_columns(&mut r, &is_cf, &mut unique)?);
    }
    let n_umbrella = r.count(13)?;
    let mut umbrella_daily = Vec::with_capacity(n_umbrella);
    for _ in 0..n_umbrella {
        umbrella_daily.push(read_columns(&mut r, &is_cf, &mut unique)?);
    }
    if alexa_daily.len() as u32 != identity.n_days || umbrella_daily.len() as u32 != identity.n_days
    {
        return Err(SnapshotError::Malformed {
            context: "daily column count differs from the identity's day count",
        });
    }

    let n_artifacts = r.count(6)?;
    let mut artifacts = Vec::with_capacity(n_artifacts);
    for _ in 0..n_artifacts {
        let name = r.str16()?.to_owned();
        let len = r.count(0)?;
        let body = std::str::from_utf8(r.take(len)?)
            .map_err(|_| SnapshotError::Malformed {
                context: "artifact body is not UTF-8",
            })?
            .to_owned();
        artifacts.push((name, body));
    }

    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            extra: r.remaining() as u64,
        });
    }

    // `monthly` has exactly seven filled slots: seven iterations, duplicate
    // tags rejected, every tag valid. `take` leaves None behind, which the
    // fallback turns into an empty column set only on an impossible path.
    let mut monthly_iter = monthly;
    let index = StudyIndex::from_columns(
        table,
        site_ids,
        is_cf,
        |source| {
            monthly_iter[source_tag(source) as usize]
                .take()
                .unwrap_or_default()
        },
        alexa_daily,
        umbrella_daily,
    );

    Ok(Snapshot {
        identity,
        index,
        magnitudes,
        artifacts,
        crc32: expected_crc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    fn tiny_snapshot_bytes() -> Vec<u8> {
        let study = Study::run(WorldConfig::tiny(4242)).expect("tiny study");
        encode_study(
            &study,
            "tiny",
            &[("note".to_owned(), "hello snapshot".to_owned())],
        )
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrips_byte_identical() {
        let bytes = tiny_snapshot_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(snap.identity.scale, "tiny");
        assert_eq!(snap.identity.n_days, 7);
        assert_eq!(snap.artifacts.len(), 1);
        assert_eq!(snap.to_bytes(), bytes);
        assert!(snap.id().starts_with("tpls-v1-"));
    }

    #[test]
    fn write_study_streams_byte_identical_file() {
        let study = Study::run(WorldConfig::tiny(4242)).expect("tiny study");
        let artifacts = vec![("note".to_owned(), "hello snapshot".to_owned())];
        let bytes = encode_study(&study, "tiny", &artifacts);
        let dir = std::env::temp_dir().join(format!("tpls-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.tpls");
        let id = write_study(&study, "tiny", &artifacts, &path).expect("writes");
        let disk = std::fs::read(&path).expect("readable");
        assert_eq!(disk, bytes, "streamed file must match in-memory encoding");
        // The mmap-backed reader agrees end to end.
        let snap = Snapshot::read_from(&path).expect("decodes");
        assert_eq!(snap.id(), id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn successful_write_leaves_no_temporary_file() {
        let study = Study::run(WorldConfig::tiny(4242)).expect("tiny study");
        let dir = std::env::temp_dir().join(format!("tpls-notmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.tpls");
        // Overwriting an existing snapshot goes through the same rename.
        write_study(&study, "tiny", &[], &path).expect("first write");
        write_study(&study, "tiny", &[], &path).expect("overwrite");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("listable")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("t.tpls")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_keeps_the_previous_snapshot() {
        let study = Study::run(WorldConfig::tiny(4242)).expect("tiny study");
        let dir = std::env::temp_dir().join(format!("tpls-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.tpls");
        write_study(&study, "tiny", &[], &path).expect("first write");
        let before = std::fs::read(&path).expect("readable");
        // A directory squatting on the temporary name makes the next write
        // fail before it touches anything.
        std::fs::create_dir(dir.join("t.tpls.tmp")).expect("blocker");
        let artifacts = vec![("note".to_owned(), "newer".to_owned())];
        let err = write_study(&study, "tiny", &artifacts, &path).expect_err("must fail");
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
        assert_eq!(std::fs::read(&path).expect("still readable"), before);
        let snap = Snapshot::read_from(&path).expect("previous snapshot decodes");
        assert_eq!(snap.to_bytes(), before);
        assert!(
            dir.join("t.tpls.tmp").is_dir(),
            "a foreign entry is left alone"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoding_is_deterministic_across_runs() {
        let a = {
            let s = Study::run(WorldConfig::tiny(77)).expect("study");
            encode_study(&s, "tiny", &[])
        };
        let b = {
            let s = Study::run(WorldConfig::tiny(77)).expect("study");
            encode_study(&s, "tiny", &[])
        };
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = tiny_snapshot_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bytes = tiny_snapshot_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        let bytes = tiny_snapshot_bytes();
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() / 2]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&extended),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    /// The offset just past the first occurrence of `pattern` in the
    /// payload.
    fn offset_after(bytes: &[u8], pattern: &[u8]) -> usize {
        let payload = &bytes[HEADER_LEN..];
        let at = payload
            .windows(pattern.len())
            .position(|w| w == pattern)
            .expect("pattern occurs in the payload");
        HEADER_LEN + at + pattern.len()
    }

    /// Recomputes the header CRC, so only a structural check can refuse
    /// the file.
    fn reseal(bytes: &mut [u8]) {
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[16..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    }

    /// Overwrites the 4 bytes after the first occurrence of `pattern` in
    /// the payload with `with`, then reseals the file.
    fn patch_after(bytes: &mut [u8], pattern: &[u8], with: u32) {
        let off = offset_after(bytes, pattern);
        bytes[off..off + 4].copy_from_slice(&with.to_le_bytes());
        reseal(bytes);
    }

    /// The little-endian bytes of a column's count followed by its first
    /// `take` ids: a pattern that locates the column in the payload.
    fn column_head(cols: &ListColumns, take: usize) -> Vec<u8> {
        let mut p = (cols.ids.len() as u32).to_le_bytes().to_vec();
        for id in &cols.ids[..take] {
            p.extend_from_slice(&id.raw().to_le_bytes());
        }
        p
    }

    #[test]
    fn rejects_a_list_that_names_one_domain_twice() {
        let bytes = tiny_snapshot_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("decodes");
        let monthly = snap.index.monthly(topple_lists::ListSource::Tranco);
        let daily = &snap.index.umbrella_daily()[2];
        assert!(monthly.len() > 8 && daily.len() > 8);

        // Monthly: the second entry repeats the first.
        let mut dup = bytes.clone();
        let first = monthly.ids[0].raw();
        patch_after(&mut dup, &column_head(monthly, 1), first);
        assert!(matches!(
            Snapshot::from_bytes(&dup),
            Err(SnapshotError::Malformed {
                context: "list column names one domain twice"
            })
        ));

        // Daily, far apart: the last entry repeats the first.
        let mut dup = bytes.clone();
        let first = daily.ids[0].raw();
        patch_after(&mut dup, &column_head(daily, daily.len() - 1), first);
        assert!(matches!(
            Snapshot::from_bytes(&dup),
            Err(SnapshotError::Malformed {
                context: "list column names one domain twice"
            })
        ));

        // One domain in many lists is fine: the valid file still decodes
        // and re-encodes to its own bytes.
        assert_eq!(snap.to_bytes(), bytes);
    }

    #[test]
    fn rejects_a_cloudflare_subset_that_is_not_the_lists_own() {
        let bytes = tiny_snapshot_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("decodes");
        let tranco = snap.index.monthly(topple_lists::ListSource::Tranco);
        let cf_ids = tranco.cf_ids();
        assert!(cf_ids.len() >= 2);
        // Tranco's CF column, located by the list's last value, its ordered
        // flag, the CF count and the first CF id.
        let mut head = tranco
            .values
            .last()
            .expect("entries")
            .to_le_bytes()
            .to_vec();
        head.push(1);
        head.extend_from_slice(&(cf_ids.len() as u32).to_le_bytes());
        head.extend_from_slice(&cf_ids[0].raw().to_le_bytes());

        // The second CF entry names a domain the list does not hold, at a
        // step where the list's own id stands. The file is CRC-valid.
        let outside = (0..snap.index.table().len() as u32)
            .map(DomainId::from_raw)
            .find(|id| !tranco.ids.contains(id))
            .expect("the table holds a domain outside Tranco");
        let mut forged = bytes.clone();
        patch_after(&mut forged, &head, outside.raw());
        assert!(matches!(
            Snapshot::from_bytes(&forged),
            Err(SnapshotError::Malformed {
                context: "cf_ids entry is not the list's own id at its step"
            })
        ));

        // Clearing the CF flag of an id that Tranco's CF column steps on.
        let flagged = cf_ids[0];
        let mut sites_end = snap
            .index
            .site_ids()
            .last()
            .expect("sites")
            .raw()
            .to_le_bytes()
            .to_vec();
        sites_end.extend_from_slice(&(snap.index.table().len() as u32).to_le_bytes());
        let mut forged = bytes.clone();
        let bitset = offset_after(&forged, &sites_end);
        forged[bitset + flagged.index() / 8] &= !(1 << (flagged.index() % 8));
        reseal(&mut forged);
        assert!(matches!(
            Snapshot::from_bytes(&forged),
            Err(SnapshotError::Malformed {
                context: "cf_prefix steps where the cloudflare flags do not"
            })
        ));
        assert_eq!(snap.to_bytes(), bytes);
    }

    #[test]
    fn rejects_payload_corruption() {
        let mut bytes = tiny_snapshot_bytes();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }
}
