//! A pluggable virtual filesystem so every byte the store reads or
//! writes can be intercepted.
//!
//! Production code uses [`StdVfs`], a thin veneer over `std::fs`.  Tests
//! use [`FaultVfs`], which wraps another `Vfs` and injects a fault —
//! a plain I/O error, a *short write* (a prefix lands on disk, then the
//! error), or a failed fsync — at a chosen operation index.  Every
//! filesystem touch (including reads, so recovery paths are coverable)
//! increments one global counter, which makes a failure schedule
//! deterministic and replayable: "fail the 17th op" means the same
//! syscall on every run of the same script.
//!
//! The trait surface is deliberately tiny — exactly what the WAL and
//! checkpoint layers need:
//! whole-file read, create/open, positional write, flush/sync, rename,
//! remove, directory listing and sync.  Positional `write_at` (instead
//! of a seek+write pair) keeps writer state out of the trait and makes a
//! short write injectable as one operation.

use std::fmt::Debug;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An open file handle behind the VFS.
pub trait VfsFile: Debug + Send {
    /// Writes all of `data` at absolute offset `offset` (write-all
    /// semantics: a short write is an error).
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;
    /// Flushes userspace buffers (a no-op for unbuffered impls).
    fn flush(&mut self) -> io::Result<()>;
    /// `fdatasync`: forces file *contents* to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync`: forces contents and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations the store performs, virtualized.
pub trait Vfs: Debug + Send + Sync {
    /// Reads an entire file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for writing (no truncation).
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not full paths) in a directory.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Fsyncs a directory so a rename within it is durable (best
    /// effort: some platforms cannot sync directories).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

// ------------------------------------------------------------------ StdVfs

/// The production VFS: direct `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

#[derive(Debug)]
struct StdFile {
    file: std::fs::File,
}

impl VfsFile for StdFile {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        use std::io::Write;
        self.file.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file =
            std::fs::OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

/// The default production VFS, shared.
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

// ----------------------------------------------------------------- FaultVfs

/// What an injected fault does when its operation index comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright with an I/O error; nothing happens.
    Error,
    /// For `write_at`: half the payload reaches the inner VFS, then the
    /// error — a torn in-flight write.  Non-write operations treat this
    /// as [`FaultKind::Error`].
    ShortWrite,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    /// Fail the operation with this 1-based global index…
    fail_at: u64,
    /// …in this way…
    kind: FaultKind,
    /// …and if sticky, every later operation too (a disk that stays
    /// broken, e.g. `ENOSPC`), except operations in the exempt set.
    sticky: bool,
}

/// Operation classes that a sticky fault can exempt (so a test can
/// model "writes keep failing but reads and truncation still work").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
    Sync,
    SetLen,
    Meta,
}

#[derive(Debug, Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    exempt: Vec<OpClass>,
}

/// A deterministic fault-injecting VFS for tests.
///
/// Wraps an inner VFS (usually [`StdVfs`]) and counts every operation —
/// on the VFS itself and on every file handle it has opened — with one
/// shared counter.  [`FaultVfs::fail_nth`] arms a fault at the N-th
/// (1-based) future operation; [`FaultVfs::fail_from`] arms a sticky
/// fault from that index on.  [`FaultVfs::ops`] after an un-faulted run
/// reports how many operations a script performs, which is what lets a
/// harness sweep `fail_at` over *every* I/O call site exhaustively.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    ops: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
    state: Arc<Mutex<FaultState>>,
}

impl Default for FaultVfs {
    fn default() -> FaultVfs {
        FaultVfs::new(std_vfs())
    }
}

impl FaultVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> FaultVfs {
        FaultVfs {
            inner,
            ops: Arc::new(AtomicU64::new(0)),
            injected: Arc::new(AtomicU64::new(0)),
            state: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// Total operations observed so far (faulted ones included).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// How many faults have fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panic while holding this mutex leaves no broken invariant:
        // the state is a plain plan that the next test resets anyway.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arms a one-shot error at the operation whose global (1-based)
    /// index is `n`.  The index is absolute over the counter's
    /// lifetime: to fail "the next op" use `ops() + 1`, or call
    /// [`FaultVfs::reset`] first to restart the count.
    pub fn fail_nth(&self, n: u64) {
        self.fail_nth_kind(n, FaultKind::Error);
    }

    /// Arms a one-shot fault of `kind` at the `n`-th operation.
    pub fn fail_nth_kind(&self, n: u64, kind: FaultKind) {
        let mut st = self.lock();
        st.plan = Some(FaultPlan { fail_at: n, kind, sticky: false });
        st.exempt = Vec::new();
    }

    /// Arms a sticky fault from the `n`-th operation on: that operation
    /// and every later one fail, like a disk that fills up and stays
    /// full.
    pub fn fail_from(&self, n: u64) {
        let mut st = self.lock();
        st.plan = Some(FaultPlan { fail_at: n, kind: FaultKind::Error, sticky: true });
        st.exempt = Vec::new();
    }

    /// Exempts operation classes from an armed *sticky* fault, so e.g.
    /// reads keep working while writes fail.
    pub fn exempt(&self, classes: &[OpClass]) {
        self.lock().exempt = classes.to_vec();
    }

    /// Disarms any scheduled fault (already-failed ops stay failed).
    pub fn clear(&self) {
        let mut st = self.lock();
        st.plan = None;
        st.exempt = Vec::new();
    }

    /// Disarms faults *and* rewinds the operation counter to zero.
    pub fn reset(&self) {
        self.clear();
        self.ops.store(0, Ordering::SeqCst);
        self.injected.store(0, Ordering::SeqCst);
    }

    /// Counts one operation and decides whether it must fail.  The
    /// fault kind only matters for `write_at` (see `tick_kind`); every
    /// other operation treats a short write as a plain error.
    fn tick(&self, class: OpClass, what: &str) -> Result<(), io::Error> {
        match self.tick_kind(class, what) {
            None => Ok(()),
            Some((_, err)) => Err(err),
        }
    }

    /// Like `tick`, but exposes the fault kind so `write_at` can honor
    /// [`FaultKind::ShortWrite`].
    fn tick_kind(&self, class: OpClass, what: &str) -> Option<(FaultKind, io::Error)> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        let st = self.lock();
        let plan = st.plan?;
        let hit = if plan.sticky { n >= plan.fail_at } else { n == plan.fail_at };
        if !hit || st.exempt.contains(&class) {
            return None;
        }
        self.injected.fetch_add(1, Ordering::SeqCst);
        let err = io::Error::other(format!("injected fault at op {n} ({what})"));
        Some((plan.kind, err))
    }
}

/// A file handle that shares its [`FaultVfs`]'s counter and plan.
#[derive(Debug)]
struct FaultFile {
    vfs: FaultVfs,
    inner: Box<dyn VfsFile>,
}

impl VfsFile for FaultFile {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.vfs.tick_kind(OpClass::Write, "write_at") {
            None => self.inner.write_at(offset, data),
            Some((FaultKind::ShortWrite, err)) => {
                // Land a prefix through the inner VFS, then report
                // failure: the on-disk state is torn mid-record.
                let cut = data.len() / 2;
                let _ = self.inner.write_at(offset, &data[..cut]);
                Err(err)
            }
            Some((FaultKind::Error, err)) => Err(err),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.vfs.tick(OpClass::Write, "flush")?;
        self.inner.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.vfs.tick(OpClass::Sync, "sync_data")?;
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.vfs.tick(OpClass::Sync, "sync_all")?;
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.vfs.tick(OpClass::SetLen, "set_len")?;
        self.inner.set_len(len)
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tick(OpClass::Read, "read")?;
        self.inner.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.tick(OpClass::Meta, "create")?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile { vfs: self.clone(), inner }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.tick(OpClass::Meta, "open_rw")?;
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(FaultFile { vfs: self.clone(), inner }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tick(OpClass::Meta, "rename")?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tick(OpClass::Meta, "remove_file")?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.tick(OpClass::Meta, "create_dir_all")?;
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.tick(OpClass::Read, "list_dir")?;
        self.inner.list_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.tick(OpClass::Sync, "sync_dir")?;
        self.inner.sync_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/vfs-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips_files() {
        let dir = scratch_dir("std");
        let vfs = StdVfs;
        let p = dir.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.write_at(5, b" world").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"hello world");
        let mut f = vfs.open_rw(&p).unwrap();
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        let q = dir.join("b.bin");
        vfs.rename(&p, &q).unwrap();
        assert!(vfs.list_dir(&dir).unwrap().contains(&"b.bin".to_string()));
        vfs.remove_file(&q).unwrap();
        assert!(vfs.read(&q).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_vfs_counts_and_fails_the_nth_op() {
        let dir = scratch_dir("nth");
        let vfs = FaultVfs::default();
        let p = dir.join("c.bin");
        // Ops: 1=create, 2=write_at, 3=sync_data.
        vfs.fail_nth(2);
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_at(0, b"xyz").unwrap_err();
        assert!(err.to_string().contains("injected fault at op 2"));
        assert_eq!(vfs.injected(), 1);
        // One-shot: the next op succeeds.
        f.write_at(0, b"xyz").unwrap();
        f.sync_data().unwrap();
        assert_eq!(vfs.ops(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_lands_a_prefix() {
        let dir = scratch_dir("short");
        let vfs = FaultVfs::default();
        let p = dir.join("d.bin");
        vfs.fail_nth_kind(2, FaultKind::ShortWrite);
        let mut f = vfs.create(&p).unwrap();
        assert!(f.write_at(0, b"abcdefgh").is_err());
        drop(f);
        vfs.clear();
        assert_eq!(vfs.read(&p).unwrap(), b"abcd", "half the payload is on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sticky_faults_respect_exemptions() {
        let dir = scratch_dir("sticky");
        let vfs = FaultVfs::default();
        let p = dir.join("e.bin");
        let mut f = vfs.create(&p).unwrap();
        f.write_at(0, b"ok").unwrap();
        vfs.fail_from(1); // everything from now on fails…
        vfs.exempt(&[OpClass::Read, OpClass::SetLen]); // …except reads + truncation
        assert!(f.write_at(2, b"no").is_err());
        assert!(f.sync_data().is_err());
        f.set_len(1).unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"o");
        vfs.clear();
        f.write_at(1, b"k").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
