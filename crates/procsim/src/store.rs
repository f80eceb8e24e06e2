//! Durable blob storage for checkpoints.
//!
//! The checkpoint serializer in `mcr-core` persists manifests and page-delta
//! shards through the [`Store`] trait. Two backends implement it:
//!
//! * [`MemStore`] — an in-memory simulated disk whose writes go down in
//!   fixed-size blocks and whose failure behaviour is *injectable*: a write
//!   fault can crash the store before the n-th block ([`WriteFault::CrashAt`]),
//!   right after it ([`WriteFault::CrashAfter`]), or persist a torn,
//!   half-garbage n-th block and then crash ([`WriteFault::TornAt`]).
//!   [`Store::sync`] is the fsync barrier the checkpoint commit protocol
//!   orders its writes around.
//! * [`FsStore`] — a thin real-filesystem backend behind the same trait, for
//!   checkpoints that must survive the host process.
//!
//! The crash model is deliberately adversarial: blocks written before a crash
//! *persist* (truncated or torn blobs remain visible after [`Store::recover`]),
//! so a reader can never rely on "crash means the blob vanished" — it must
//! validate lengths and checksums. This is exactly the failure surface the
//! crash-consistency chaos campaign enumerates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Size of one simulated disk block. Writes are charged, torn and crashed at
/// this granularity.
pub const BLOCK_SIZE: usize = 4096;

/// Errors surfaced by a [`Store`] backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store crashed (an injected write fault fired, or an operation was
    /// attempted after a crash and before [`Store::recover`]).
    Crashed {
        /// Blob being written when the crash fired (empty if the store was
        /// already down).
        blob: String,
        /// Global block counter value at the crash point (0 if already down).
        block: u64,
    },
    /// The named blob does not exist.
    NotFound(String),
    /// Backend I/O failure (real-filesystem backend only).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Crashed { blob, block } => {
                write!(f, "store crashed at block {block} while writing {blob:?}")
            }
            StoreError::NotFound(name) => write!(f, "blob {name:?} not found"),
            StoreError::Io(msg) => write!(f, "store i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An injectable write fault, armed via [`Store::arm_write_fault`].
///
/// Every variant counts blocks on the store's *global* block counter (see
/// [`Store::blocks_written`]), so a fault site enumerated from one clean run
/// replays deterministically on the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Crash the store instead of writing the n-th block (1-based). Blocks
    /// written before it persist; the blob being written stays truncated.
    CrashAt(u64),
    /// Write the n-th block (1-based), then crash. When it is the last block
    /// of a blob, the write itself succeeds and the next store call (the
    /// commit protocol's `sync`) fails; otherwise the rest of the blob is
    /// lost and the write fails.
    CrashAfter(u64),
    /// Persist a *torn* n-th block — the first half of the block's bytes,
    /// then garbage — and crash. Models a partial sector write at power loss.
    TornAt(u64),
}

/// Filler byte for the garbage half of a torn block.
const TORN_FILL: u8 = 0xA5;

/// A durable blob store: named byte blobs, whole-blob writes, an explicit
/// fsync barrier, and (for fault-injectable backends) a write-fault hook.
pub trait Store {
    /// Writes (or overwrites) the named blob. On a crash fault the blob may
    /// be left truncated or torn — the error reports the crash point.
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;

    /// Durability barrier: everything written before this call survives any
    /// later crash. The checkpoint commit protocol syncs shards *before*
    /// writing the manifest that names them.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Reads the named blob in full.
    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// All blob names, sorted.
    fn list(&self) -> Vec<String>;

    /// Deletes the named blob (checkpoint retention).
    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError>;

    /// Total blocks written over the store's lifetime. Fault sites index
    /// into this counter.
    fn blocks_written(&self) -> u64 {
        0
    }

    /// Number of [`Store::sync`] barriers issued.
    fn sync_count(&self) -> u64 {
        0
    }

    /// Arms a one-shot write fault. Backends without fault injection ignore
    /// this (the default).
    fn arm_write_fault(&mut self, _fault: WriteFault) {}

    /// Disarms any armed write fault.
    fn disarm_write_fault(&mut self) {}

    /// Clears the crashed state after an injected crash, modelling a restart
    /// against the surviving (possibly torn or truncated) contents.
    fn recover(&mut self) {}
}

/// In-memory simulated disk with block-granular, fault-injectable writes.
#[derive(Debug, Default)]
pub struct MemStore {
    blobs: BTreeMap<String, Vec<u8>>,
    unsynced: BTreeSet<String>,
    armed: Option<WriteFault>,
    blocks_written: u64,
    syncs: u64,
    crashed: bool,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an injected crash has fired and [`Store::recover`] has not
    /// yet been called.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Directly corrupts one byte of a stored blob (test hook for checksum
    /// coverage: flips every bit of the byte at `offset`).
    pub fn corrupt_byte(&mut self, name: &str, offset: usize) -> Result<(), StoreError> {
        let blob = self.blobs.get_mut(name).ok_or_else(|| StoreError::NotFound(name.into()))?;
        if offset >= blob.len() {
            return Err(StoreError::Io(format!("corrupt offset {offset} past blob end {}", blob.len())));
        }
        blob[offset] ^= 0xFF;
        Ok(())
    }

    /// Directly truncates a stored blob to `len` bytes (test hook).
    pub fn truncate_blob(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
        let blob = self.blobs.get_mut(name).ok_or_else(|| StoreError::NotFound(name.into()))?;
        blob.truncate(len);
        Ok(())
    }
}

impl Store for MemStore {
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        // Overwrite semantics: the blob is rebuilt block by block, so a crash
        // mid-write leaves a short (truncated) blob behind.
        self.blobs.insert(name.to_string(), Vec::new());
        self.unsynced.insert(name.to_string());
        let chunks: Vec<&[u8]> = if data.is_empty() { vec![&[]] } else { data.chunks(BLOCK_SIZE).collect() };
        for chunk in chunks {
            if self.crashed {
                return Err(StoreError::Crashed { blob: name.into(), block: self.blocks_written });
            }
            let next = self.blocks_written + 1;
            match self.armed {
                Some(WriteFault::CrashAt(n)) if next == n => {
                    self.crashed = true;
                    self.armed = None;
                    return Err(StoreError::Crashed { blob: name.into(), block: n });
                }
                Some(WriteFault::TornAt(n)) if next == n => {
                    let blob = self.blobs.get_mut(name).expect("blob inserted above");
                    let half = chunk.len() / 2;
                    blob.extend_from_slice(&chunk[..half]);
                    blob.extend(std::iter::repeat_n(TORN_FILL, chunk.len() - half));
                    self.blocks_written = next;
                    self.crashed = true;
                    self.armed = None;
                    return Err(StoreError::Crashed { blob: name.into(), block: n });
                }
                armed => {
                    self.blobs.get_mut(name).expect("blob inserted above").extend_from_slice(chunk);
                    self.blocks_written = next;
                    if armed == Some(WriteFault::CrashAfter(next)) {
                        self.crashed = true;
                        self.armed = None;
                    }
                }
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        self.unsynced.clear();
        self.syncs += 1;
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.blobs.get(name).cloned().ok_or_else(|| StoreError::NotFound(name.into()))
    }

    fn list(&self) -> Vec<String> {
        self.blobs.keys().cloned().collect()
    }

    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        self.unsynced.remove(name);
        self.blobs.remove(name).map(|_| ()).ok_or_else(|| StoreError::NotFound(name.into()))
    }

    fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn arm_write_fault(&mut self, fault: WriteFault) {
        self.armed = Some(fault);
    }

    fn disarm_write_fault(&mut self) {
        self.armed = None;
    }

    fn recover(&mut self) {
        self.crashed = false;
        self.armed = None;
        self.unsynced.clear();
    }
}

/// Real-filesystem backend: blobs are files under a root directory. No fault
/// injection — crashes here are the host's business — but the same commit
/// protocol and validation apply.
#[derive(Debug)]
pub struct FsStore {
    root: std::path::PathBuf,
    blocks_written: u64,
    syncs: u64,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(FsStore { root, blocks_written: 0, syncs: 0 })
    }

    fn path_for(&self, name: &str) -> Result<std::path::PathBuf, StoreError> {
        if name.is_empty()
            || name.starts_with('/')
            || name.split('/').any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(StoreError::Io(format!("invalid blob name {name:?}")));
        }
        Ok(self.root.join(name))
    }

    fn collect(&self, dir: &std::path::Path, prefix: &str, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                self.collect(&path, &rel, out);
            } else {
                out.push(rel);
            }
        }
    }
}

impl Store for FsStore {
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.path_for(name)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| StoreError::Io(e.to_string()))?;
        }
        std::fs::write(&path, data).map_err(|e| StoreError::Io(e.to_string()))?;
        self.blocks_written += (data.len().max(1) as u64).div_ceil(BLOCK_SIZE as u64);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        // Directory-level barrier: fsync the root so renames/creates persist.
        let dir = std::fs::File::open(&self.root).map_err(|e| StoreError::Io(e.to_string()))?;
        dir.sync_all().map_err(|e| StoreError::Io(e.to_string()))?;
        self.syncs += 1;
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.path_for(name)?;
        match std::fs::read(&path) {
            Ok(data) => Ok(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound(name.into())),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn list(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect(&self.root.clone(), "", &mut out);
        out.sort();
        out
    }

    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError> {
        let path = self.path_for(name)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound(name.into())),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_and_block_accounting() {
        let mut s = MemStore::new();
        let data = vec![7u8; BLOCK_SIZE * 2 + 10];
        s.write_blob("a/b", &data).unwrap();
        assert_eq!(s.read_blob("a/b").unwrap(), data);
        assert_eq!(s.blocks_written(), 3);
        s.sync().unwrap();
        assert_eq!(s.sync_count(), 1);
        assert_eq!(s.list(), vec!["a/b".to_string()]);
    }

    #[test]
    fn crash_at_block_truncates_and_blocks_further_writes() {
        let mut s = MemStore::new();
        s.arm_write_fault(WriteFault::CrashAt(2));
        let data = vec![3u8; BLOCK_SIZE * 3];
        let err = s.write_blob("x", &data).unwrap_err();
        assert_eq!(err, StoreError::Crashed { blob: "x".into(), block: 2 });
        // One block persisted; the blob survives truncated.
        assert_eq!(s.read_blob("x").unwrap().len(), BLOCK_SIZE);
        assert!(matches!(s.write_blob("y", b"z"), Err(StoreError::Crashed { .. })));
        assert!(matches!(s.sync(), Err(StoreError::Crashed { .. })));
        s.recover();
        s.write_blob("y", b"z").unwrap();
        assert_eq!(s.read_blob("y").unwrap(), b"z");
    }

    #[test]
    fn crash_after_block_persists_it_and_fails_the_next_call() {
        let mut s = MemStore::new();
        // Crash after the last block of a blob: the write succeeds whole,
        // and the sync barrier behind it fails.
        s.arm_write_fault(WriteFault::CrashAfter(2));
        let data = vec![5u8; BLOCK_SIZE + 10];
        s.write_blob("m", &data).unwrap();
        assert!(s.is_crashed());
        assert_eq!(s.sync(), Err(StoreError::Crashed { blob: String::new(), block: 2 }));
        s.recover();
        assert_eq!(s.read_blob("m").unwrap(), data);
        // Crash after a middle block: the blob keeps the blocks up to it.
        s.arm_write_fault(WriteFault::CrashAfter(4));
        let err = s.write_blob("x", &vec![6u8; BLOCK_SIZE * 3]).unwrap_err();
        assert_eq!(err, StoreError::Crashed { blob: "x".into(), block: 4 });
        assert_eq!(s.read_blob("x").unwrap().len(), 2 * BLOCK_SIZE);
        assert_eq!(s.blocks_written(), 4);
    }

    #[test]
    fn torn_write_persists_half_garbage_block() {
        let mut s = MemStore::new();
        s.arm_write_fault(WriteFault::TornAt(1));
        let data = vec![0x11u8; BLOCK_SIZE];
        assert!(s.write_blob("t", &data).is_err());
        let stored = s.read_blob("t").unwrap();
        assert_eq!(stored.len(), BLOCK_SIZE);
        assert_eq!(&stored[..BLOCK_SIZE / 2], &data[..BLOCK_SIZE / 2]);
        assert!(stored[BLOCK_SIZE / 2..].iter().all(|&b| b == TORN_FILL));
    }

    #[test]
    fn corruption_hooks() {
        let mut s = MemStore::new();
        s.write_blob("c", &[1, 2, 3, 4]).unwrap();
        s.corrupt_byte("c", 2).unwrap();
        assert_eq!(s.read_blob("c").unwrap(), vec![1, 2, !3, 4]);
        s.truncate_blob("c", 1).unwrap();
        assert_eq!(s.read_blob("c").unwrap(), vec![1]);
        assert!(s.corrupt_byte("missing", 0).is_err());
    }

    #[test]
    fn fs_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcr-fsstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FsStore::open(&dir).unwrap();
        s.write_blob("v1/MANIFEST", b"hello").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_blob("v1/MANIFEST").unwrap(), b"hello");
        assert_eq!(s.list(), vec!["v1/MANIFEST".to_string()]);
        assert!(matches!(s.read_blob("v1/none"), Err(StoreError::NotFound(_))));
        assert!(s.path_for("../escape").is_err());
        s.delete_blob("v1/MANIFEST").unwrap();
        assert!(s.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
