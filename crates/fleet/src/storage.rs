//! Durable snapshot storage for the resident fleet service.
//!
//! The service persists its state as **generation-stamped, checksummed
//! records** behind a [`Storage`] trait: a one-line header carrying the
//! generation, payload length, and FNV-1a-64 checksum, followed by the
//! payload bytes. Writes go through temp-file + atomic rename
//! ([`write_file_atomic`]), so a crash leaves either the old object or the
//! new one — never a half-written file at the final name.
//!
//! The interesting impl is [`FaultStorage`]: a deterministic saboteur that
//! tears, bit-flips, stales, or loses scripted writes
//! ([`crate::fault::StorageFaultSpec`]) while *reporting success* — the
//! damage is only discoverable at load time. [`SnapshotStore::load_latest`]
//! is the recovery path it exists to exercise: walk generations newest
//! first, reject anything whose header or checksum fails verification, and
//! return the newest intact generation (with per-object rejection
//! accounting) or nothing at all — never garbage.

use crate::error::FleetError;
use crate::fault::{StorageFaultKind, StorageFaultSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Leading magic of every snapshot record header.
pub const RECORD_MAGIC: &str = "KSNAP1";

/// Object-name prefix of snapshot records inside a store.
pub const SNAPSHOT_PREFIX: &str = "snap-";

/// FNV-1a 64-bit hash — the record checksum. Hand-rolled because the
/// container bakes in no hashing crate; collision resistance is not the
/// goal, torn-write and bit-flip detection is.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames `payload` as a checksummed record:
/// `KSNAP1 gen=<g> len=<n> fnv=<16 hex>\n<payload>`.
pub fn encode_record(generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{RECORD_MAGIC} gen={generation} len={} fnv={:016x}\n",
        payload.len(),
        fnv1a64(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Parses and verifies a record, returning `(generation, payload)`.
///
/// # Errors
///
/// Returns a one-line reason when the header is missing or malformed, the
/// payload length disagrees with the header, or the checksum fails —
/// i.e. for every way [`FaultStorage`] can damage a record.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, &[u8]), String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("record header missing terminator")?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| "record header is not UTF-8".to_string())?;
    let payload = &bytes[newline + 1..];
    let mut fields = header.split_whitespace();
    if fields.next() != Some(RECORD_MAGIC) {
        return Err(format!("bad magic in header {header:?}"));
    }
    let mut generation = None;
    let mut len = None;
    let mut fnv = None;
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed header field {field:?}"))?;
        match key {
            "gen" => generation = value.parse::<u64>().ok(),
            "len" => len = value.parse::<usize>().ok(),
            "fnv" => fnv = u64::from_str_radix(value, 16).ok(),
            _ => return Err(format!("unknown header field {key:?}")),
        }
    }
    let generation = generation.ok_or("header missing generation")?;
    let len = len.ok_or("header missing length")?;
    let fnv = fnv.ok_or("header missing checksum")?;
    if payload.len() != len {
        return Err(format!(
            "payload is {} byte(s), header says {len} (torn write?)",
            payload.len()
        ));
    }
    let actual = fnv1a64(payload);
    if actual != fnv {
        return Err(format!(
            "checksum mismatch: header {fnv:016x}, payload {actual:016x}"
        ));
    }
    Ok((generation, payload))
}

/// Writes `bytes` to `path` via a sibling temp file and an atomic rename,
/// so `path` never holds a half-written file.
///
/// # Errors
///
/// Returns a one-line reason when the temp write or the rename fails.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// A flat object store the snapshot layer persists through. Object names
/// are plain file names (no separators); `write_atomic` must leave either
/// the old object or the complete new one.
pub trait Storage: fmt::Debug {
    /// Reads an object; `Ok(None)` when it does not exist (distinct from
    /// an I/O failure, which the snapshot layer must not swallow).
    ///
    /// # Errors
    ///
    /// Returns a one-line reason on I/O failure.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String>;

    /// Replaces an object atomically.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason on I/O failure.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String>;

    /// All object names, sorted ascending.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason on I/O failure.
    fn list(&self) -> Result<Vec<String>, String>;

    /// Removes an object; removing a missing object is not an error.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason on I/O failure.
    fn remove(&mut self, name: &str) -> Result<(), String>;

    /// Storage-fault accounting (non-empty only for fault-injecting
    /// impls); surfaces in the service report.
    fn injected_faults(&self) -> &[String] {
        &[]
    }
}

/// In-memory storage: deterministic, fast, and trivially inspectable —
/// what the corruption proptests and the service gate run against.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    objects: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
        Ok(self.objects.get(name).cloned())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
        self.objects.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, String> {
        Ok(self.objects.keys().cloned().collect())
    }

    fn remove(&mut self, name: &str) -> Result<(), String> {
        self.objects.remove(name);
        Ok(())
    }
}

/// Directory-backed storage: one file per object, written through
/// [`write_file_atomic`]. In-flight `.tmp` files are invisible to
/// [`Storage::list`], so a crashed write can never be mistaken for an
/// object.
#[derive(Clone, Debug)]
pub struct DirStorage {
    dir: std::path::PathBuf,
}

impl DirStorage {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason when the directory cannot be created.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Storage for DirStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
        let path = self.dir.join(name);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
        write_file_atomic(&self.dir.join(name), bytes)
    }

    fn list(&self) -> Result<Vec<String>, String> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("list {}: {e}", self.dir.display()))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("list {}: {e}", self.dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".tmp") {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> Result<(), String> {
        let path = self.dir.join(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("remove {}: {e}", path.display())),
        }
    }
}

/// Deterministic write saboteur wrapping any inner [`Storage`]. Scripted
/// [`StorageFaultSpec`]s fire on the matching 0-based `write_atomic` call;
/// every sabotaged write **reports success** — torn writes, bit flips,
/// stale generations, and lost renames are all silent at commit time and
/// must be caught by [`SnapshotStore::load_latest`]'s verification.
#[derive(Debug)]
pub struct FaultStorage<S: Storage> {
    inner: S,
    specs: Vec<StorageFaultSpec>,
    writes: usize,
    injected: Vec<String>,
}

impl<S: Storage> FaultStorage<S> {
    /// Wraps `inner` with a fault script.
    pub fn new(inner: S, specs: Vec<StorageFaultSpec>) -> Self {
        Self {
            inner,
            specs,
            writes: 0,
            injected: Vec::new(),
        }
    }

    /// The inner storage (tests peek at the damage).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Storage> Storage for FaultStorage<S> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
        self.inner.read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let index = self.writes;
        self.writes += 1;
        let Some(spec) = self.specs.iter().find(|s| s.write_index == index).copied() else {
            return self.inner.write_atomic(name, bytes);
        };
        match spec.kind {
            StorageFaultKind::TornWrite => {
                let keep = (bytes.len() * (spec.magnitude.min(99) as usize) / 100).min(bytes.len());
                self.injected.push(format!(
                    "write {index} ({name}): torn-write kept {keep}/{} byte(s)",
                    bytes.len()
                ));
                self.inner.write_atomic(name, &bytes[..keep])
            }
            StorageFaultKind::BitFlip => {
                let mut damaged = bytes.to_vec();
                if !damaged.is_empty() {
                    let offset = (spec.magnitude as usize) % damaged.len();
                    damaged[offset] ^= 1 << (spec.magnitude % 8);
                    self.injected
                        .push(format!("write {index} ({name}): bit-flip at byte {offset}"));
                }
                self.inner.write_atomic(name, &damaged)
            }
            StorageFaultKind::StaleWrite => {
                self.injected.push(format!(
                    "write {index} ({name}): stale-write, previous object retained"
                ));
                Ok(())
            }
            StorageFaultKind::LostWrite => {
                self.injected.push(format!(
                    "write {index} ({name}): lost-write, object vanished"
                ));
                self.inner.remove(name)
            }
        }
    }

    fn list(&self) -> Result<Vec<String>, String> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), String> {
        self.inner.remove(name)
    }

    fn injected_faults(&self) -> &[String] {
        &self.injected
    }
}

/// A verified snapshot returned by [`SnapshotStore::load_latest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The record's generation stamp.
    pub generation: u64,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Generation-stamped, checksummed snapshot storage over a [`Storage`]
/// backend — the durable layer the resident fleet service commits through.
#[derive(Debug)]
pub struct SnapshotStore {
    storage: Box<dyn Storage>,
    rejected: Vec<(String, String)>,
}

impl SnapshotStore {
    /// Wraps a backend.
    pub fn new(storage: Box<dyn Storage>) -> Self {
        Self {
            storage,
            rejected: Vec::new(),
        }
    }

    /// Canonical object name of a generation (zero-padded so the
    /// lexicographic order of [`Storage::list`] is generation order).
    pub fn object_name(generation: u64) -> String {
        format!("{SNAPSHOT_PREFIX}{generation:010}.snap")
    }

    /// Commits `payload` as `generation`, framed and checksummed.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] when the backend write fails.
    /// Note that an *injected* storage fault is not a failure here — by
    /// design it surfaces only at [`SnapshotStore::load_latest`].
    pub fn commit(&mut self, generation: u64, payload: &[u8]) -> Result<(), FleetError> {
        let record = encode_record(generation, payload);
        self.storage
            .write_atomic(&Self::object_name(generation), &record)
            .map_err(|e| FleetError::Checkpoint(format!("commit generation {generation}: {e}")))
    }

    /// Loads the newest intact generation, rejecting every record whose
    /// header, length, checksum, or generation-vs-name stamp fails
    /// verification. Rejections are recorded (see
    /// [`SnapshotStore::rejected`]) — recovery is loud, never silent.
    ///
    /// Hot path (`hotlist.toml`): the scan itself allocates nothing; all
    /// I/O and buffer work lives in the helpers it delegates to.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] when the backend cannot even be
    /// listed. Corrupt records are *not* errors: the store falls back to
    /// the previous generation, and `Ok(None)` means nothing intact
    /// survives.
    pub fn load_latest(&mut self) -> Result<Option<Snapshot>, FleetError> {
        let names = self.snapshot_names()?;
        self.rejected.clear();
        for name in names.iter().rev() {
            match self.load_object(name) {
                Ok(snapshot) => return Ok(Some(snapshot)),
                Err(why) => self.note_rejected(name, &why),
            }
        }
        Ok(None)
    }

    /// `(object name, reason)` for every record the last
    /// [`SnapshotStore::load_latest`] rejected, newest first.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// Storage-fault accounting from the backend (empty unless the backend
    /// is a [`FaultStorage`]).
    pub fn injected_faults(&self) -> &[String] {
        self.storage.injected_faults()
    }

    /// Snapshot object names, sorted ascending by generation.
    fn snapshot_names(&self) -> Result<Vec<String>, FleetError> {
        let mut names = self
            .storage
            .list()
            .map_err(|e| FleetError::Checkpoint(format!("list snapshots: {e}")))?;
        names.retain(|n| n.starts_with(SNAPSHOT_PREFIX));
        Ok(names)
    }

    /// Reads and fully verifies one record.
    fn load_object(&self, name: &str) -> Result<Snapshot, String> {
        let bytes = self
            .storage
            .read(name)?
            .ok_or_else(|| "object vanished between list and read".to_string())?;
        let (generation, payload) = decode_record(&bytes)?;
        if Self::object_name(generation) != name {
            return Err(format!(
                "generation stamp {generation} does not match object name {name:?}"
            ));
        }
        Ok(Snapshot {
            generation,
            payload: payload.to_vec(),
        })
    }

    /// Records one rejected object.
    fn note_rejected(&mut self, name: &str, why: &str) {
        self.rejected.push((name.to_string(), why.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_and_checksum() {
        let record = encode_record(7, b"hello fleet");
        let (generation, payload) = decode_record(&record).unwrap();
        assert_eq!(generation, 7);
        assert_eq!(payload, b"hello fleet");
        // Any single-bit damage is caught.
        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x10;
            if bad == record {
                continue;
            }
            assert!(decode_record(&bad).is_err(), "flip at byte {i} undetected");
        }
        // Truncations are caught.
        for cut in 0..record.len() {
            assert!(decode_record(&record[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn mem_storage_contract() {
        let mut s = MemStorage::new();
        assert_eq!(s.read("a").unwrap(), None);
        s.write_atomic("b", b"2").unwrap();
        s.write_atomic("a", b"1").unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.read("a").unwrap().as_deref(), Some(&b"1"[..]));
        s.remove("a").unwrap();
        s.remove("a").unwrap();
        assert_eq!(s.read("a").unwrap(), None);
    }

    #[test]
    fn dir_storage_is_atomic_and_hides_tmp_files() {
        let dir = std::env::temp_dir().join("kinet_fleet_dirstore_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        s.write_atomic("snap-0000000001.snap", b"one").unwrap();
        // A stray in-flight temp file must not surface as an object.
        std::fs::write(dir.join("snap-0000000002.snap.tmp"), b"half").unwrap();
        assert_eq!(s.list().unwrap(), vec!["snap-0000000001.snap".to_string()]);
        assert_eq!(
            s.read("snap-0000000001.snap").unwrap().as_deref(),
            Some(&b"one"[..])
        );
        assert_eq!(s.read("missing").unwrap(), None);
        s.remove("snap-0000000001.snap").unwrap();
        assert_eq!(s.list().unwrap(), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn store_with_faults(specs: Vec<StorageFaultSpec>) -> SnapshotStore {
        SnapshotStore::new(Box::new(FaultStorage::new(MemStorage::new(), specs)))
    }

    #[test]
    fn load_latest_returns_newest_intact_generation() {
        let mut store = store_with_faults(Vec::new());
        for generation in 1..=3u64 {
            store
                .commit(generation, format!("payload {generation}").as_bytes())
                .unwrap();
        }
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.payload, b"payload 3");
        assert!(store.rejected().is_empty());
    }

    #[test]
    fn torn_final_write_rolls_back_one_generation() {
        let mut store =
            store_with_faults(vec![StorageFaultSpec::new(2, StorageFaultKind::TornWrite)]);
        for generation in 1..=3u64 {
            store
                .commit(generation, format!("payload {generation}").as_bytes())
                .unwrap();
        }
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.generation, 2, "torn gen 3 is rejected");
        assert_eq!(snap.payload, b"payload 2");
        assert_eq!(store.rejected().len(), 1);
        assert!(store.rejected()[0].0.contains("0000000003"));
        assert_eq!(store.injected_faults().len(), 1);
    }

    #[test]
    fn every_fault_kind_is_silent_at_commit_and_caught_at_load() {
        for kind in StorageFaultKind::all() {
            let mut store = store_with_faults(vec![StorageFaultSpec::new(1, kind)]);
            store.commit(1, b"good").unwrap();
            store.commit(2, b"doomed").unwrap();
            let snap = store.load_latest().unwrap().unwrap();
            assert_eq!(snap.generation, 1, "{}: fell back to gen 1", kind.label());
            assert_eq!(snap.payload, b"good", "{}", kind.label());
            match kind {
                // Stale/lost writes leave no gen-2 object at all, so there
                // is nothing to reject — the store just serves gen 1.
                StorageFaultKind::StaleWrite | StorageFaultKind::LostWrite => {
                    assert!(store.rejected().is_empty(), "{}", kind.label());
                }
                StorageFaultKind::TornWrite | StorageFaultKind::BitFlip => {
                    assert_eq!(store.rejected().len(), 1, "{}", kind.label());
                }
            }
        }
    }

    #[test]
    fn empty_store_loads_nothing() {
        let mut store = SnapshotStore::new(Box::new(MemStorage::new()));
        assert_eq!(store.load_latest().unwrap(), None);
    }

    #[test]
    fn foreign_generation_stamp_is_rejected() {
        // A record whose header generation disagrees with its object name
        // (e.g. a bit flip inside the gen digits that still parses) must
        // not be served as that name's generation.
        let mut inner = MemStorage::new();
        inner
            .write_atomic(&SnapshotStore::object_name(5), &encode_record(4, b"old"))
            .unwrap();
        let mut store = SnapshotStore::new(Box::new(inner));
        assert_eq!(store.load_latest().unwrap(), None);
        assert_eq!(store.rejected().len(), 1);
        assert!(store.rejected()[0].1.contains("does not match"));
    }
}
