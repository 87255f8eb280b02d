//! Memory-mapped artifact reads: `mmap(2)` bound by hand (the workspace is
//! std-only, no `libc` crate — same style as the serve reactor's epoll
//! bindings), wrapped in a safe [`Mapping`], and exposed as the
//! [`MmapStorage`] backend whose range reads **borrow** from the mapping
//! instead of copying.
//!
//! ## Why single-file
//!
//! A general multi-key mmap store would have to hand out `&[u8]` borrows
//! into mappings it might later replace — an unsafe lifetime knot. QUQM
//! never needs that: the reader opens exactly one artifact, so
//! [`MmapStorage`] maps exactly one file at construction and keeps the
//! mapping alive as long as the storage itself. Every borrow handed out by
//! [`Storage::read_range_ref`] is tied to the storage's lifetime by plain
//! safe Rust.
//!
//! ## Why the mapped bytes stay valid
//!
//! The safety argument (spelled out in DESIGN.md, "The QUQM artifact store") rests on how
//! artifacts are written: [`crate::storage::FsStorage::write`] only ever
//! *replaces* an artifact via temp-file + `rename(2)`. A rename unlinks
//! the old directory entry but the old inode — the one this mapping is
//! backed by — lives on until the last reference (our mapping) goes away.
//! Nothing in this codebase truncates or rewrites an artifact in place, so
//! a `Mapping` never observes its pages change or vanish, and reads
//! through it cannot fault. A hostile actor with write access to the
//! file could of course violate this from outside the process — the same
//! actor could corrupt the file between a classic `read` and its CRC
//! check, so mmap adds no new trust assumption: every chunk is still
//! CRC-verified before use.

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::ptr::NonNull;

use crate::storage::{check_range, ByteView, Storage};
use crate::StoreError;

const PROT_READ: i32 = 0x1;
const MAP_PRIVATE: i32 = 0x02;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// A read-only, private memory mapping of an entire file.
///
/// Dereferences to `&[u8]`; unmapped on drop. `Send + Sync` because the
/// pages are mapped `PROT_READ` and never remapped: shared references to
/// immutable memory are safe to move and share across threads.
pub struct Mapping {
    /// Base address (`None` stands in for the empty-file case: mapping
    /// zero bytes is `EINVAL`, so empty files get a dangling-but-unused
    /// pointer and no munmap).
    ptr: Option<NonNull<u8>>,
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE and never mutated or
// remapped after construction, and no thread owns it: any thread may read
// it and unmap it in `Drop`.
unsafe impl Send for Mapping {}
// SAFETY: &Mapping only ever yields &[u8] into those immutable pages.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps all of `file` read-only.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when stat or `mmap(2)` fails.
    pub fn of_file(file: &File) -> Result<Mapping, StoreError> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            StoreError::Format(format!("file of {len} bytes exceeds the address space"))
        })?;
        if len == 0 {
            // mmap of zero bytes is EINVAL; an empty mapping needs no pages.
            return Ok(Mapping { ptr: None, len: 0 });
        }
        // SAFETY: a null hint lets the kernel choose the address, `len` is
        // the file's nonzero length, and `file` is an open descriptor for
        // the call's duration; failure is MAP_FAILED, checked below.
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
        // MAP_FAILED is (void*)-1, not null.
        if ptr as isize == -1 {
            return Err(StoreError::Io(io::Error::last_os_error()));
        }
        let ptr = NonNull::new(ptr)
            .ok_or_else(|| StoreError::Io(io::Error::other("mmap returned the null page")))?;
        Ok(Mapping {
            ptr: Some(ptr),
            len,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match self.ptr {
            // SAFETY: ptr/len describe a live PROT_READ mapping that stays
            // valid for self's lifetime (unmapped only in Drop).
            Some(p) => unsafe { std::slice::from_raw_parts(p.as_ptr(), self.len) },
            None => &[],
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if let Some(p) = self.ptr {
            // SAFETY: exactly the region mmap returned; mapped once,
            // unmapped once. Failure here is unreportable and harmless
            // (the address space leaks, nothing dangles).
            unsafe { munmap(p.as_ptr(), self.len) };
        }
    }
}

impl std::ops::Deref for Mapping {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// A read-only, single-object [`Storage`] backed by one [`Mapping`].
///
/// [`Storage::read_range`] still copies (that is its contract);
/// [`Storage::read_range_ref`] is the point of this backend — it returns
/// a [`ByteView::Borrowed`] sub-slice of the mapping, so verified raw
/// chunks are served with zero copies.
pub struct MmapStorage {
    key: String,
    map: Mapping,
}

impl MmapStorage {
    /// Maps the file at `path`. The storage's single key is the file name.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened or mapped.
    pub fn open_path(path: &Path) -> Result<MmapStorage, StoreError> {
        let key = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string_lossy().into_owned());
        let file = File::open(path)?;
        let map = Mapping::of_file(&file)?;
        Ok(MmapStorage { key, map })
    }

    /// The whole mapped object.
    pub fn mapped(&self) -> &[u8] {
        self.map.bytes()
    }

    fn check_key(&self, key: &str) -> Result<(), StoreError> {
        if key == self.key {
            Ok(())
        } else {
            Err(StoreError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("mmap storage holds {:?}, not {key:?}", self.key),
            )))
        }
    }
}

impl Storage for MmapStorage {
    fn open(&self, key: &str) -> Result<u64, StoreError> {
        self.check_key(key)?;
        Ok(self.map.len() as u64)
    }

    fn read_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        Ok(self.read_range_ref(key, offset, len)?.to_vec())
    }

    fn read_range_ref(&self, key: &str, offset: u64, len: u64) -> Result<ByteView<'_>, StoreError> {
        self.check_key(key)?;
        check_range(key, offset, len, self.map.len() as u64)?;
        let bytes = &self.map.bytes()[offset as usize..(offset + len) as usize];
        Ok(ByteView::Borrowed(bytes))
    }

    fn write(&self, key: &str, _bytes: &[u8]) -> Result<(), StoreError> {
        Err(StoreError::Unsupported(format!(
            "mmap storage is read-only (write to {key:?})"
        )))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        Ok(vec![self.key.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("quq-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn mapping_exposes_the_file_bytes() {
        let path = temp_file("basic.bin", b"hello mapping");
        let map = Mapping::of_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, b"hello mapping");
        assert_eq!(map.len(), 13);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_files_map_as_empty_slices() {
        let path = temp_file("empty.bin", b"");
        let map = Mapping::of_file(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, b"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn storage_borrows_ranges_and_rejects_overruns() {
        let path = temp_file("store.bin", b"0123456789");
        let store = MmapStorage::open_path(&path).unwrap();
        let key = path.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(store.open(&key).unwrap(), 10);
        assert_eq!(store.list().unwrap(), vec![key.clone()]);

        let view = store.read_range_ref(&key, 2, 5).unwrap();
        assert!(matches!(view, ByteView::Borrowed(_)));
        assert_eq!(&*view, b"23456");
        assert_eq!(store.read_range(&key, 0, 10).unwrap(), b"0123456789");

        assert!(matches!(
            store.read_range_ref(&key, 8, 5),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            store.read_range_ref("other", 0, 1),
            Err(StoreError::Io(_))
        ));
        assert!(matches!(
            store.write(&key, b"nope"),
            Err(StoreError::Unsupported(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replacing_the_file_by_rename_leaves_the_mapping_intact() {
        // The safety argument in the module docs, as a test: artifacts are
        // only ever replaced via rename, and a live mapping keeps serving
        // the old inode's bytes.
        let path = temp_file("swap.bin", b"old contents");
        let store = MmapStorage::open_path(&path).unwrap();
        let key = path.file_name().unwrap().to_string_lossy().into_owned();

        let tmp = temp_file("swap.new", b"new contents!");
        std::fs::rename(&tmp, &path).unwrap();

        assert_eq!(store.read_range(&key, 0, 12).unwrap(), b"old contents");
        let _ = std::fs::remove_file(&path);
    }
}
