//! Read-only memory mapping for snapshot files.
//!
//! Loading a snapshot through `mmap(2)` avoids copying the whole file
//! through a read syscall into a heap buffer: the mapping is backed by the
//! kernel page cache, pages fault in lazily as the decoder touches them,
//! and a warm boot of a multi-gigabyte index starts validating in
//! milliseconds.
//!
//! Like `reactor.rs`, the raw syscalls are declared directly (the workspace
//! has no `libc` dependency and vendors no substitute). The module is one
//! of the crate's three `unsafe` carve-outs (with `reactor.rs` and
//! `signal.rs`), with these invariants:
//!
//! * The mapping is `PROT_READ`/`MAP_PRIVATE`: the memory is immutable from
//!   this process, so `&[u8]` aliasing rules hold.
//! * The mapped length is captured once from `fstat` at open; the slice
//!   never outlives the mapping (`munmap` runs in `Drop`, after which the
//!   struct — and any borrow of it — is gone).
//! * A concurrent *truncation* of the underlying file by another process
//!   could fault a mapped page; snapshot files are written once and swapped
//!   by rename, never truncated in place, so the serving paths uphold this
//!   by construction (`DESIGN.md` §17).
//! * Empty files are represented as an empty slice without calling `mmap`
//!   (a zero-length mapping is EINVAL).

#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::os::unix::io::AsRawFd;
use std::path::Path;

const PROT_READ: i32 = 1;
const MAP_PRIVATE: i32 = 2;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// A read-only memory-mapped file, dereferencing to `&[u8]`.
#[derive(Debug)]
pub struct MappedBytes {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime and
// owned uniquely by this struct, so sharing or moving it across threads
// cannot race.
unsafe impl Send for MappedBytes {}
unsafe impl Sync for MappedBytes {}

impl MappedBytes {
    /// Maps `path` read-only for its current length.
    pub fn open(path: &Path) -> io::Result<MappedBytes> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::other("file too large to map"))?;
        if len == 0 {
            return Ok(MappedBytes {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file for the duration of the call, the
        // requested protection/flags are a plain read-only private mapping,
        // and the result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // The fd can close now: a mapping keeps its own reference.
        Ok(MappedBytes { ptr, len })
    }
}

impl Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len come from a successful PROT_READ mapping that
        // lives until Drop; the bytes are plain `u8` (always initialized
        // from the kernel's perspective) and never written through this
        // process.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MappedBytes {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: exactly reverses the successful mmap in `open`; the
            // pointer and length are the mapping's own.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("topple-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut f = File::create(&path).unwrap();
        f.write_all(&payload).unwrap();
        drop(f);
        let m = MappedBytes::open(&path).unwrap();
        assert_eq!(&*m, payload.as_slice());
        drop(m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert!(m.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(MappedBytes::open(Path::new("/nonexistent/topple")).is_err());
    }
}
