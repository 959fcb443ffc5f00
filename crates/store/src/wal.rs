//! The write-ahead log: crash-durable, checksummed records of committed
//! deltas.
//!
//! Every committed [`Delta`] is serialized as one **length-prefixed,
//! CRC-checksummed record** and appended (and flushed, optionally
//! fsynced) to the current log segment *before* the generation is
//! published — the classic redo rule: a generation a reader can observe
//! is always reconstructible from disk.  The codec is hand-rolled binary
//! (little-endian integers, length-prefixed UTF-8 strings, tagged
//! enums); the environment is offline, so the checksum is a hand-rolled
//! CRC-32 (IEEE polynomial) rather than a dependency.
//!
//! ## Record framing
//!
//! ```text
//! ┌─────────────┬─────────────┬────────────────────────────────┐
//! │ len: u32 LE │ crc: u32 LE │ payload (len bytes)            │
//! └─────────────┴─────────────┴────────────────────────────────┘
//! payload = generation: u64 LE, op_count: u32 LE, ops…
//! ```
//!
//! A **torn tail** — a crash mid-append leaving a truncated or
//! corrupted final record — is detected by the length prefix running
//! past end-of-file, by a zero length (a zero-filled tail) or by a CRC
//! mismatch; [`read_segment`] stops at the last intact record and
//! reports the valid prefix length so recovery can truncate the tear
//! instead of failing.  A record whose CRC passes but which does not
//! decode is no tear: it was written whole, so it is corrupt or of
//! another layout, and acknowledged commits may follow it.  The scan
//! fails with `Corrupt` and recovery changes no file.
//!
//! ## Segments
//!
//! Segment files are named `wal-<base>.wal`, where `base` is the
//! generation the segment starts *after*: a segment created by the
//! checkpoint at generation `g` holds records for generations `g+1`,
//! `g+2`, ….  Once a newer checkpoint covers a segment entirely, the
//! segment is vacuumed (see `GraphStore::checkpoint_now`).

use crate::delta::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef};
use crate::error::{StoreError, StoreResult};
use crate::vfs::{Vfs, VfsFile};
use graphiti_common::{Error, Ident, Result, Value};
use std::path::{Path, PathBuf};

// ----------------------------------------------------------------- CRC-32

/// Hand-rolled CRC-32 (IEEE 802.3 polynomial, reflected), bitwise.
/// Records are small (one delta), so a lookup table buys nothing here.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------- encoding

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(3);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

fn put_props(buf: &mut Vec<u8>, props: &[(Ident, Value)]) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k.as_str());
        put_value(buf, v);
    }
}

fn put_node_ref(buf: &mut Vec<u8>, r: &NodeRef) {
    match r {
        NodeRef::Key(k) => {
            buf.push(0);
            put_u64(buf, k.0);
        }
        NodeRef::New(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
    }
}

fn put_edge_ref(buf: &mut Vec<u8>, r: &EdgeRef) {
    match r {
        EdgeRef::Key(k) => {
            buf.push(0);
            put_u64(buf, k.0);
        }
        EdgeRef::New(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
    }
}

fn put_mutation(buf: &mut Vec<u8>, op: &Mutation) {
    match op {
        Mutation::AddNode { label, props } => {
            buf.push(0);
            put_str(buf, label.as_str());
            put_props(buf, props);
        }
        Mutation::AddEdge { label, src, tgt, props } => {
            buf.push(1);
            put_str(buf, label.as_str());
            put_node_ref(buf, src);
            put_node_ref(buf, tgt);
            put_props(buf, props);
        }
        Mutation::RemoveNode { node } => {
            buf.push(2);
            put_node_ref(buf, node);
        }
        Mutation::RemoveEdge { edge } => {
            buf.push(3);
            put_edge_ref(buf, edge);
        }
        Mutation::SetNodeProp { node, key, value } => {
            buf.push(4);
            put_node_ref(buf, node);
            put_str(buf, key.as_str());
            put_value(buf, value);
        }
        Mutation::SetEdgeProp { edge, key, value } => {
            buf.push(5);
            put_edge_ref(buf, edge);
            put_str(buf, key.as_str());
            put_value(buf, value);
        }
    }
}

/// Serializes a delta as an op count followed by its operations (the
/// shared shape of WAL record bodies and wire-protocol commit frames).
pub(crate) fn put_delta(buf: &mut Vec<u8>, delta: &Delta) {
    put_u32(buf, delta.ops().len() as u32);
    for op in delta.ops() {
        put_mutation(buf, op);
    }
}

/// Record flag bit: the payload carries a 16-byte idempotency token
/// between the flags byte and the delta.
const FLAG_TOKEN: u8 = 1;

/// Serializes one record payload: generation, a flags byte, the
/// commit's idempotency token (when the client supplied one), then the
/// delta's operations.  The token rides in the WAL so recovery can
/// rebuild the store's dedup table and a retried commit stays
/// exactly-once across a crash.
fn encode_record(generation: u64, token: Option<u128>, delta: &Delta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u64(&mut buf, generation);
    match token {
        Some(t) => {
            buf.push(FLAG_TOKEN);
            put_u64(&mut buf, (t >> 64) as u64);
            put_u64(&mut buf, t as u64);
        }
        None => buf.push(0),
    }
    put_delta(&mut buf, delta);
    buf
}

// ---------------------------------------------------------------- decoding

/// The most elements a decoder pre-allocates for a count it read off
/// the bytes.  Counts come off the wire or the disk, so a hostile one
/// must not allocate gigabytes (an allocation failure aborts the process)
/// before the bounds checks reject the payload.
pub(crate) const PREALLOC_CAP: usize = 1024;

/// A bounds-checked reader over a byte slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(Error::instance("wal: record payload is truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::instance("wal: string is not valid UTF-8"))
    }

    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::str_owned(self.str()?),
            t => return Err(Error::instance(format!("wal: unknown value tag {t}"))),
        })
    }

    fn props(&mut self) -> Result<Vec<(Ident, Value)>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            let k = Ident::new(self.str()?);
            let v = self.value()?;
            out.push((k, v));
        }
        Ok(out)
    }

    fn node_ref(&mut self) -> Result<NodeRef> {
        Ok(match self.u8()? {
            0 => NodeRef::Key(NodeKey(self.u64()?)),
            1 => NodeRef::New(self.u64()? as usize),
            t => return Err(Error::instance(format!("wal: unknown node-ref tag {t}"))),
        })
    }

    fn edge_ref(&mut self) -> Result<EdgeRef> {
        Ok(match self.u8()? {
            0 => EdgeRef::Key(EdgeKey(self.u64()?)),
            1 => EdgeRef::New(self.u64()? as usize),
            t => return Err(Error::instance(format!("wal: unknown edge-ref tag {t}"))),
        })
    }

    fn mutation(&mut self) -> Result<Mutation> {
        Ok(match self.u8()? {
            0 => Mutation::AddNode { label: Ident::new(self.str()?), props: self.props()? },
            1 => {
                let label = Ident::new(self.str()?);
                let src = self.node_ref()?;
                let tgt = self.node_ref()?;
                Mutation::AddEdge { label, src, tgt, props: self.props()? }
            }
            2 => Mutation::RemoveNode { node: self.node_ref()? },
            3 => Mutation::RemoveEdge { edge: self.edge_ref()? },
            4 => {
                let node = self.node_ref()?;
                let key = Ident::new(self.str()?);
                Mutation::SetNodeProp { node, key, value: self.value()? }
            }
            5 => {
                let edge = self.edge_ref()?;
                let key = Ident::new(self.str()?);
                Mutation::SetEdgeProp { edge, key, value: self.value()? }
            }
            t => return Err(Error::instance(format!("wal: unknown mutation tag {t}"))),
        })
    }

    /// Decodes a [`put_delta`]-shaped delta: op count, then operations.
    pub(crate) fn delta(&mut self) -> Result<Delta> {
        let n = self.u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            ops.push(self.mutation()?);
        }
        Ok(delta_from_ops(ops))
    }
}

/// Rebuilds a [`Delta`] from decoded mutations (the builder counters are
/// derived from the operations themselves).
fn delta_from_ops(ops: Vec<Mutation>) -> Delta {
    let nodes_added = ops.iter().filter(|op| matches!(op, Mutation::AddNode { .. })).count();
    let edges_added = ops.iter().filter(|op| matches!(op, Mutation::AddEdge { .. })).count();
    Delta { ops, nodes_added, edges_added }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut c = Cursor::new(payload);
    let generation = c.u64()?;
    let flags = c.u8()?;
    if flags & !FLAG_TOKEN != 0 {
        return Err(Error::instance("wal: unknown record flags"));
    }
    let token = if flags & FLAG_TOKEN != 0 {
        let hi = c.u64()?;
        let lo = c.u64()?;
        Some(((hi as u128) << 64) | lo as u128)
    } else {
        None
    };
    let delta = c.delta()?;
    if !c.is_done() {
        return Err(Error::instance("wal: trailing bytes after record payload"));
    }
    Ok(WalRecord { generation, token, delta })
}

// ----------------------------------------------------------------- segments

/// One decoded WAL record: the generation a commit published and the
/// delta that produced it.
#[derive(Debug)]
pub(crate) struct WalRecord {
    pub(crate) generation: u64,
    /// The client-supplied idempotency token, if the commit carried one.
    pub(crate) token: Option<u128>,
    pub(crate) delta: Delta,
}

/// The result of scanning one segment file.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// Every intact record, in file order.
    pub(crate) records: Vec<WalRecord>,
    /// Byte length of the valid prefix (where the torn tail, if any,
    /// starts).
    pub(crate) valid_len: u64,
    /// Whether bytes past `valid_len` exist (a torn or corrupt tail).
    pub(crate) torn: bool,
}

/// Scans a segment, stopping at the first torn record (a short header, a
/// short payload, a zero length or a CRC mismatch).  Never fails on a
/// tear — only on an unreadable file, or with `Corrupt` on a record whose
/// CRC passes but which does not decode.
pub(crate) fn read_segment(vfs: &dyn Vfs, path: &Path) -> StoreResult<SegmentScan> {
    let bytes = vfs.read(path).map_err(|e| StoreError::io("wal: reading", path, e))?;
    let mut records = Vec::new();
    let mut pos: usize = 0;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(SegmentScan { records, valid_len: pos as u64, torn: false });
        }
        if remaining < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - 8 {
            break; // torn payload
        }
        if len == 0 {
            // No record is empty: a zero-filled tail, whose zero checksum
            // matches the empty payload's.
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // corrupt payload (e.g. a partial overwrite)
        }
        let rec = decode_record(payload).map_err(|e| {
            StoreError::corrupt(
                path,
                format!("wal: the record at byte offset {pos} passes its checksum but does not decode: {e}"),
            )
        })?;
        records.push(rec);
        pos += 8 + len;
    }
    Ok(SegmentScan { records, valid_len: pos as u64, torn: true })
}

/// The path of the segment that starts after `base` generations.
pub(crate) fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("wal-{base:020}.wal"))
}

/// Every segment in `dir` as `(base generation, path)`, ascending.
pub(crate) fn list_segments(vfs: &dyn Vfs, dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let names = vfs.list_dir(dir).map_err(|e| StoreError::io("wal: listing", dir, e))?;
    for name in names {
        if let Some(base) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse().ok())
        {
            out.push((base, dir.join(&name)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// A failed append: the error, plus whether the file was successfully
/// rolled back to the previous record boundary.  `rolled_back == false`
/// means bytes of unknown validity may sit past the valid prefix — the
/// caller must fence, not retry.
#[derive(Debug)]
pub(crate) struct AppendError {
    pub(crate) error: StoreError,
    pub(crate) rolled_back: bool,
}

/// The append side of one segment: buffered writes with an explicit
/// flush (and optional fsync) per record, so a record is on its way to
/// disk before the commit that logged it publishes.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    len: u64,
    /// Whether the directory was synced since this process opened the
    /// segment, making its name durable.
    name_synced: bool,
}

impl WalWriter {
    /// Creates a fresh (empty) segment.  Its name is durable only after
    /// [`WalWriter::sync_name`], which must run before any commit is
    /// acknowledged from it.
    pub(crate) fn create(vfs: &dyn Vfs, path: PathBuf) -> StoreResult<WalWriter> {
        let file = vfs.create(&path).map_err(|e| StoreError::io("wal: creating", &path, e))?;
        Ok(WalWriter { file, path, len: 0, name_synced: false })
    }

    /// Opens an existing segment for appending, first truncating it to
    /// its valid prefix (dropping any torn tail).  Its name, too, is
    /// synced before the first commit acknowledged from it: the process
    /// that created it may have crashed before doing so.
    pub(crate) fn open_append(
        vfs: &dyn Vfs,
        path: PathBuf,
        valid_len: u64,
    ) -> StoreResult<WalWriter> {
        let mut file = vfs.open_rw(&path).map_err(|e| StoreError::io("wal: opening", &path, e))?;
        file.set_len(valid_len).map_err(|e| StoreError::io("wal: truncating", &path, e))?;
        Ok(WalWriter { file, path, len: valid_len, name_synced: false })
    }

    /// Appends and flushes one record (no fsync — that is the caller's
    /// separate, *unretriable* step; see [`WalWriter::sync`]).  Returns
    /// the record's size in bytes.  On failure the file is truncated
    /// back to the previous record boundary; if even that truncation
    /// fails, the returned [`AppendError`] says so and the caller must
    /// fence rather than reuse the segment.
    pub(crate) fn append(
        &mut self,
        generation: u64,
        token: Option<u128>,
        delta: &Delta,
    ) -> std::result::Result<u64, AppendError> {
        let payload = encode_record(generation, token, delta);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let write = self.file.write_at(self.len, &frame).and_then(|()| self.file.flush());
        if let Err(e) = write {
            let rolled_back = self.file.set_len(self.len).is_ok();
            return Err(AppendError {
                error: StoreError::io("wal: appending", &self.path, e),
                rolled_back,
            });
        }
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Forces everything appended so far to stable storage.  A failure
    /// here must never be retried: the kernel may already have dropped
    /// the dirty pages, so a later "successful" fsync would prove
    /// nothing (fsyncgate).  Callers fence instead.
    pub(crate) fn sync(&mut self) -> StoreResult<()> {
        self.file.sync_data().map_err(|e| StoreError::io("wal: syncing", &self.path, e))
    }

    /// Truncates the segment back to `len` bytes (used to drop a record
    /// whose fsync failed).  Returns whether the truncation succeeded.
    pub(crate) fn truncate_to(&mut self, len: u64) -> bool {
        debug_assert!(len <= self.len, "truncate_to only rewinds");
        if self.file.set_len(len).is_ok() {
            self.len = len;
            true
        } else {
            false
        }
    }

    /// Bytes of valid records in this segment.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Makes the segment's name durable, once per segment: syncs its
    /// directory, best effort as for a checkpoint's rename (not all
    /// platforms can sync a directory).
    pub(crate) fn sync_name(&mut self, vfs: &dyn Vfs) {
        if !self.name_synced {
            if let Some(dir) = self.path.parent() {
                let _ = vfs.sync_dir(dir);
            }
            self.name_synced = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use graphiti_common::Value;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/wal-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_delta() -> Delta {
        let mut d = Delta::new();
        let n = d.add_node(
            "EMP",
            [
                ("id", Value::Int(-3)),
                ("name", Value::str("Ada")),
                ("score", Value::Float(1.5)),
                ("flag", Value::Bool(true)),
                ("nil", Value::Null),
            ],
        );
        let m = d.add_node("DEPT", [("dnum", Value::Int(1))]);
        let e = d.add_edge("WORK_AT", n, m, [("wid", Value::Int(7))]);
        d.set_node_prop(NodeKey(4), "name", Value::str("Bob"));
        d.set_edge_prop(e, "wid", Value::Int(8));
        d.remove_edge(EdgeKey(9));
        d.remove_node(NodeKey(2));
        d
    }

    /// A record that passes its checksum but claims `u32::MAX`
    /// properties for its one `AddNode` is refused by the decoder (an
    /// uncapped pre-allocation for that count aborted the process), and
    /// the segment scan stops before it.
    #[test]
    fn a_crc_valid_record_with_a_hostile_count_is_refused() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        payload.push(0); // flags: no token
        put_u32(&mut payload, 1); // one operation
        payload.push(0); // AddNode
        put_str(&mut payload, "EMP");
        put_u32(&mut payload, u32::MAX);
        assert!(decode_record(&payload).is_err());
        let path = scratch_dir("hostile-count").join(segment_path(Path::new(""), 0));
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        match read_segment(&StdVfs, &path) {
            Err(StoreError::Corrupt { file, detail }) => {
                assert_eq!(file, path);
                assert!(detail.contains("byte offset 0"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_filled_tail_is_a_tear() {
        let dir = scratch_dir("zero-tail");
        let path = segment_path(&dir, 0);
        let mut w = WalWriter::create(&StdVfs, path.clone()).unwrap();
        w.append(1, None, &sample_delta()).unwrap();
        let one = w.len();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0; 24]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&StdVfs, &path).unwrap();
        assert_eq!((scan.records.len(), scan.valid_len, scan.torn), (1, one, true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trip() {
        let delta = sample_delta();
        let payload = encode_record(42, None, &delta);
        let rec = decode_record(&payload).unwrap();
        assert_eq!(rec.generation, 42);
        assert_eq!(rec.token, None);
        assert_eq!(rec.delta.ops().len(), delta.ops().len());
        assert_eq!(rec.delta.nodes_added, 2);
        assert_eq!(rec.delta.edges_added, 1);
        assert_eq!(format!("{:?}", rec.delta.ops()), format!("{:?}", delta.ops()));
    }

    #[test]
    fn tokened_record_round_trip() {
        let delta = sample_delta();
        let token = (7u128 << 64) | 0xDEAD_BEEF;
        let payload = encode_record(9, Some(token), &delta);
        let rec = decode_record(&payload).unwrap();
        assert_eq!(rec.generation, 9);
        assert_eq!(rec.token, Some(token));
        assert_eq!(format!("{:?}", rec.delta.ops()), format!("{:?}", delta.ops()));
        // Unknown flag bits are refused, not silently skipped.
        let mut bad = encode_record(9, None, &delta);
        bad[8] |= 0x80;
        assert!(decode_record(&bad).is_err());
    }

    #[test]
    fn append_then_scan_round_trips_and_detects_tears() {
        let dir = scratch_dir("roundtrip");
        let vfs = StdVfs;
        let path = segment_path(&dir, 0);
        let mut w = WalWriter::create(&vfs, path.clone()).unwrap();
        w.append(1, None, &sample_delta()).unwrap();
        w.append(2, None, &sample_delta()).unwrap();
        w.sync().unwrap();
        let full = w.len();
        let scan = read_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].generation, 1);
        assert_eq!(scan.records[1].generation, 2);
        assert_eq!(scan.valid_len, full);
        assert!(!scan.torn);
        // Truncating anywhere inside the second record tears it off.
        let first_len = {
            let bytes = std::fs::read(&path).unwrap();
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as u64;
            8 + len
        };
        for cut in [first_len + 1, full - 1] {
            std::fs::copy(&path, dir.join("cut.wal")).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(dir.join("cut.wal")).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let scan = read_segment(&vfs, &dir.join("cut.wal")).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut} keeps one record");
            assert_eq!(scan.valid_len, first_len);
            assert!(scan.torn);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_payload_is_a_tear_not_a_panic() {
        let dir = scratch_dir("corrupt");
        let vfs = StdVfs;
        let path = segment_path(&dir, 7);
        let mut w = WalWriter::create(&vfs, path.clone()).unwrap();
        w.append(1, None, &sample_delta()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&vfs, &path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_listing_sorts_by_base() {
        let dir = scratch_dir("list");
        let vfs = StdVfs;
        for base in [30u64, 2, 700] {
            WalWriter::create(&vfs, segment_path(&dir, base)).unwrap();
        }
        std::fs::write(dir.join("not-a-segment.txt"), b"x").unwrap();
        let segs = list_segments(&vfs, &dir).unwrap();
        assert_eq!(segs.iter().map(|(b, _)| *b).collect::<Vec<_>>(), vec![2, 30, 700]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_reports_rollback_and_keeps_the_prefix() {
        let dir = scratch_dir("fault");
        let vfs = crate::vfs::FaultVfs::default();
        let path = segment_path(&dir, 0);
        let mut w = WalWriter::create(&vfs, path.clone()).unwrap();
        w.append(1, None, &sample_delta()).unwrap();
        let one = w.len();
        // Short-write the next record, then let the rollback set_len
        // succeed: the scan must still see exactly one intact record.
        let at = vfs.ops() + 1;
        vfs.fail_nth_kind(at, crate::vfs::FaultKind::ShortWrite);
        let err = w.append(2, None, &sample_delta()).unwrap_err();
        assert!(err.rolled_back, "one-shot fault lets the rollback succeed");
        assert!(err.error.is_io());
        assert_eq!(w.len(), one);
        let scan = read_segment(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.torn, "the torn tail was rolled back");
        // A sticky fault makes the rollback itself fail.
        vfs.fail_from(vfs.ops() + 1);
        let err = w.append(3, None, &sample_delta()).unwrap_err();
        assert!(!err.rolled_back, "sticky fault blocks the rollback too");
        vfs.clear();
        std::fs::remove_dir_all(&dir).ok();
    }
}
