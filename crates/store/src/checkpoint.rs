//! Checkpoints: checksummed snapshots of the writer-side store state
//! that bound WAL replay cost.
//!
//! A checkpoint captures everything [`GraphStore`](crate::GraphStore)
//! needs to resume at a generation without replaying the log from the
//! beginning: the counters, the master graph **in arena order** with its
//! stable keys, and every induced table's published rows *in published
//! order*.  Recovery publishes those rows as they are and builds each
//! table's default-key → position map from them, so a recovered store
//! serves images identical to the crashed process's, and later commits
//! patch them at the same positions.
//!
//! The file is one length-prefixed, CRC-checksummed blob (same framing
//! as a WAL record) written atomically: serialize to `*.tmp`, fsync,
//! rename into place.  Recovery loads the newest checkpoint that passes
//! its checksum and falls back to older ones (or to an empty store) if
//! the newest is unreadable.  The payload opens with [`MAGIC`]; a file
//! in any other layout fails to load.
//!
//! Every checkpoint is one [`Job`] in two steps.  [`Job::pin`] takes
//! what the image needs while the caller holds the state lock: the
//! published snapshot of the generation (its graph is a copy-on-write
//! clone of the master graph, and its tables are the published rows),
//! the key vectors, the token entries and the counters.  [`Job::write`]
//! needs no lock: it builds and encodes the image, writes it atomically,
//! and only then vacuums what the new file covers.  The store runs a
//! periodic job's write step on a checkpointer thread.

use crate::delta::{EdgeKey, NodeKey};
use crate::error::{StoreError, StoreResult};
use crate::vfs::Vfs;
use crate::wal::{self, crc32, put_str, put_u32, put_u64, put_value, Cursor, PREALLOC_CAP};
use crate::StoreState;
use graphiti_common::{Error, Ident, Result, Value};
use graphiti_engine::Snapshot;
use graphiti_obs::metrics::{Counter, Histogram, Registry};
use graphiti_relational::Row;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The first eight bytes of every checkpoint payload.
const MAGIC: &[u8; 8] = b"GRCKPT02";

/// One node of the master graph, in arena order.
#[derive(Debug)]
pub(crate) struct CkptNode {
    pub(crate) key: u64,
    pub(crate) label: String,
    pub(crate) props: Vec<(String, Value)>,
}

/// One edge of the master graph, in arena order.  Endpoints are arena
/// indexes (valid because nodes are restored in arena order).
#[derive(Debug)]
pub(crate) struct CkptEdge {
    pub(crate) key: u64,
    pub(crate) label: String,
    pub(crate) src: u64,
    pub(crate) tgt: u64,
    pub(crate) props: Vec<(String, Value)>,
}

/// One induced table: its published rows, in published order.
#[derive(Debug)]
pub(crate) struct CkptTable {
    pub(crate) name: String,
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<Row>,
}

/// A complete writer-side image at one generation.
#[derive(Debug)]
pub(crate) struct CheckpointImage {
    pub(crate) generation: u64,
    pub(crate) commits: u64,
    pub(crate) rejected: u64,
    pub(crate) next_key: u64,
    pub(crate) nodes: Vec<CkptNode>,
    pub(crate) edges: Vec<CkptEdge>,
    pub(crate) tables: Vec<CkptTable>,
    /// The commit-idempotency dedup entries `(token, generation)` in
    /// insertion (eviction) order, so a retried commit stays
    /// exactly-once across a crash+recovery.
    pub(crate) tokens: Vec<(u128, u64)>,
}

fn put_string_props(buf: &mut Vec<u8>, props: &[(String, Value)]) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k);
        put_value(buf, v);
    }
}

fn encode(image: &CheckpointImage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, image.generation);
    put_u64(&mut buf, image.commits);
    put_u64(&mut buf, image.rejected);
    put_u64(&mut buf, image.next_key);
    put_u32(&mut buf, image.nodes.len() as u32);
    for n in &image.nodes {
        put_u64(&mut buf, n.key);
        put_str(&mut buf, &n.label);
        put_string_props(&mut buf, &n.props);
    }
    put_u32(&mut buf, image.edges.len() as u32);
    for e in &image.edges {
        put_u64(&mut buf, e.key);
        put_str(&mut buf, &e.label);
        put_u64(&mut buf, e.src);
        put_u64(&mut buf, e.tgt);
        put_string_props(&mut buf, &e.props);
    }
    put_u32(&mut buf, image.tables.len() as u32);
    for t in &image.tables {
        put_str(&mut buf, &t.name);
        put_u32(&mut buf, t.columns.len() as u32);
        for c in &t.columns {
            put_str(&mut buf, c);
        }
        put_u32(&mut buf, t.rows.len() as u32);
        for row in &t.rows {
            debug_assert_eq!(row.len(), t.columns.len(), "checkpoint row arity");
            for v in row {
                put_value(&mut buf, v);
            }
        }
    }
    put_u32(&mut buf, image.tokens.len() as u32);
    for (token, generation) in &image.tokens {
        put_u64(&mut buf, (*token >> 64) as u64);
        put_u64(&mut buf, *token as u64);
        put_u64(&mut buf, *generation);
    }
    buf
}

/// Reads a count and an empty vector for that many elements, its
/// pre-allocation capped at [`PREALLOC_CAP`].
fn counted<T>(c: &mut Cursor<'_>) -> Result<(usize, Vec<T>)> {
    let n = c.u32()? as usize;
    Ok((n, Vec::with_capacity(n.min(PREALLOC_CAP))))
}

fn decode_string_props(c: &mut Cursor<'_>) -> Result<Vec<(String, Value)>> {
    let (n, mut out) = counted(c)?;
    for _ in 0..n {
        let k = c.str()?;
        let v = c.value()?;
        out.push((k, v));
    }
    Ok(out)
}

fn decode(payload: &[u8]) -> Result<CheckpointImage> {
    if !payload.starts_with(MAGIC) {
        return Err(Error::instance("checkpoint: not a checkpoint of this store's layout"));
    }
    let mut c = Cursor::new(&payload[MAGIC.len()..]);
    let generation = c.u64()?;
    let commits = c.u64()?;
    let rejected = c.u64()?;
    let next_key = c.u64()?;
    let (node_count, mut nodes) = counted(&mut c)?;
    for _ in 0..node_count {
        let key = c.u64()?;
        let label = c.str()?;
        nodes.push(CkptNode { key, label, props: decode_string_props(&mut c)? });
    }
    let (edge_count, mut edges) = counted(&mut c)?;
    for _ in 0..edge_count {
        let key = c.u64()?;
        let label = c.str()?;
        let src = c.u64()?;
        let tgt = c.u64()?;
        edges.push(CkptEdge { key, label, src, tgt, props: decode_string_props(&mut c)? });
    }
    let (table_count, mut tables) = counted(&mut c)?;
    for _ in 0..table_count {
        let name = c.str()?;
        let (col_count, mut columns) = counted(&mut c)?;
        for _ in 0..col_count {
            columns.push(c.str()?);
        }
        let (row_count, mut rows) = counted(&mut c)?;
        for _ in 0..row_count {
            let mut row = Vec::with_capacity(col_count.min(PREALLOC_CAP));
            for _ in 0..col_count {
                row.push(c.value()?);
            }
            rows.push(row);
        }
        tables.push(CkptTable { name, columns, rows });
    }
    let (token_count, mut tokens) = counted(&mut c)?;
    for _ in 0..token_count {
        let hi = c.u64()?;
        let lo = c.u64()?;
        let generation = c.u64()?;
        tokens.push((((hi as u128) << 64) | lo as u128, generation));
    }
    if !c.is_done() {
        return Err(Error::instance("checkpoint: trailing bytes after image"));
    }
    Ok(CheckpointImage { generation, commits, rejected, next_key, nodes, edges, tables, tokens })
}

/// The path of the checkpoint taken at `generation`.
pub(crate) fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:020}.ckpt"))
}

/// Every checkpoint in `dir` as `(generation, path)`, ascending.
pub(crate) fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let names = vfs.list_dir(dir).map_err(|e| StoreError::io("checkpoint: listing", dir, e))?;
    for name in names {
        if let Some(generation) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse().ok())
        {
            out.push((generation, dir.join(&name)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Removes leftover `ckpt-*.tmp` files from interrupted checkpoint
/// attempts (best effort — a removal failure just leaves the stray for
/// the next pass).
pub(crate) fn sweep_tmp(vfs: &dyn Vfs, dir: &Path) {
    let Ok(names) = vfs.list_dir(dir) else { return };
    for name in names {
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
}

/// Writes a checkpoint atomically: `*.tmp` + fsync + rename.  Sweeps
/// stray tmp files from earlier failed attempts first, so a crashed or
/// faulted checkpoint is cleaned up by the next one.
pub(crate) fn write(vfs: &dyn Vfs, dir: &Path, image: &CheckpointImage) -> StoreResult<PathBuf> {
    sweep_tmp(vfs, dir);
    let payload = encode(image);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    let final_path = checkpoint_path(dir, image.generation);
    let tmp_path = final_path.with_extension("tmp");
    let mut file =
        vfs.create(&tmp_path).map_err(|e| StoreError::io("checkpoint: creating", &tmp_path, e))?;
    file.write_at(0, &frame)
        .and_then(|()| file.sync_all())
        .map_err(|e| StoreError::io("checkpoint: writing", &tmp_path, e))?;
    drop(file);
    vfs.rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io("checkpoint: publishing", &final_path, e))?;
    // Make the rename itself durable (best effort: not all platforms
    // support fsync on directories).
    let _ = vfs.sync_dir(dir);
    Ok(final_path)
}

/// Loads and validates one checkpoint file.  Validation failures are
/// typed [`StoreError::Corrupt`] naming the file; only the initial read
/// maps to [`StoreError::Io`].
pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> StoreResult<CheckpointImage> {
    let bytes = vfs.read(path).map_err(|e| StoreError::io("checkpoint: reading", path, e))?;
    if bytes.len() < 8 {
        return Err(StoreError::corrupt(path, format!("truncated ({} bytes)", bytes.len())));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if bytes.len() != 8 + len {
        return Err(StoreError::corrupt(
            path,
            format!("has {} bytes, header declares {}", bytes.len(), 8 + len),
        ));
    }
    let payload = &bytes[8..];
    if crc32(payload) != crc {
        return Err(StoreError::corrupt(path, "fails its checksum"));
    }
    decode(payload).map_err(|e| StoreError::corrupt(path, e.to_string()))
}

/// The directory of a durable store, the VFS it is reached through, and
/// the counters a checkpoint's outcome moves: what the store shares with
/// the job on the checkpointer thread.
#[derive(Debug)]
pub(crate) struct Disk {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) dir: PathBuf,
    /// How many checkpoint files a completed job retains.
    keep: usize,
    /// Generation of the newest completed checkpoint.
    last_checkpoint: AtomicU64,
    /// Completed checkpoints, registry-backed like every store counter.
    pub(crate) checkpoints_written: Counter,
    /// Periodic checkpoints that failed.
    pub(crate) checkpoint_failures: Counter,
    /// WAL segments vacuumed after a checkpoint covered them.
    pub(crate) segments_removed: Counter,
    /// Duration of each write step.
    write_micros: Arc<Histogram>,
}

impl Disk {
    /// Registers the checkpoint counters in `registry` under the shared
    /// `graphiti_checkpoint*` names.
    pub(crate) fn new(
        vfs: Arc<dyn Vfs>,
        dir: PathBuf,
        keep: usize,
        last_checkpoint: u64,
        registry: &Registry,
    ) -> Disk {
        Disk {
            vfs,
            dir,
            keep: keep.max(1),
            last_checkpoint: AtomicU64::new(last_checkpoint),
            checkpoints_written: registry.counter("graphiti_checkpoints_written_total"),
            checkpoint_failures: registry.counter("graphiti_checkpoint_failures_total"),
            segments_removed: registry.counter("graphiti_wal_segments_removed_total"),
            write_micros: registry.histogram("graphiti_checkpoint_write_micros"),
        }
    }

    /// Generation of the newest completed checkpoint.
    pub(crate) fn last_checkpoint(&self) -> u64 {
        self.last_checkpoint.load(Ordering::SeqCst)
    }
}

/// One checkpoint: the writer state at one generation, pinned under the
/// state lock, and the disk it is written to.
#[derive(Debug)]
pub(crate) struct Job {
    generation: u64,
    commits: u64,
    rejected: u64,
    next_key: u64,
    /// The published generation `generation`: its graph is a
    /// copy-on-write clone of the master graph, and its induced tables
    /// are the published rows the image stores.
    snapshot: Arc<Snapshot>,
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
    tokens: Vec<(u128, u64)>,
    disk: Arc<Disk>,
}

impl Job {
    /// The pin step: takes what the image of `st` needs, given that
    /// `published` is the generation `st` published last.  Its snapshot
    /// already shares the graph's arena chunks and every published row,
    /// so the pin copies only the key vectors, the token entries and the
    /// counters.
    pub(crate) fn pin(st: &StoreState, published: (u64, Arc<Snapshot>), disk: Arc<Disk>) -> Job {
        let (generation, snapshot) = published;
        Job {
            generation,
            commits: st.commits.get(),
            rejected: st.rejected.get(),
            next_key: st.next_key,
            snapshot,
            node_keys: st.node_keys.clone(),
            edge_keys: st.edge_keys.clone(),
            tokens: st.idempotency.entries(),
            disk,
        }
    }

    /// The write step: builds and encodes the image, writes `ckpt-G.tmp`,
    /// fsyncs it, renames it and syncs the directory.  Only then does it
    /// vacuum the WAL segments below the checkpoint's generation and the
    /// checkpoints past the retention count.  A failure before the rename
    /// vacuums nothing, so recovery still has the previous checkpoint and
    /// every segment after it.
    pub(crate) fn write(self) -> StoreResult<()> {
        let started = Instant::now();
        let (generation, disk) = (self.generation, Arc::clone(&self.disk));
        let written = write(&*disk.vfs, &disk.dir, &self.into_image());
        disk.write_micros.record(started.elapsed().as_micros() as u64);
        written?;
        // The file is a complete, fsynced image of everything it covers,
        // so it supersedes the log: no separate WAL sync is needed before
        // vacuuming covered segments.  (This also keeps the unretriable
        // fsync problem out of the checkpoint path, which is what lets
        // `checkpoint_now` recover a fenced store.)
        disk.last_checkpoint.store(generation, Ordering::SeqCst);
        disk.checkpoints_written.inc();
        for (base, path) in wal::list_segments(&*disk.vfs, &disk.dir)? {
            if base < generation && disk.vfs.remove_file(&path).is_ok() {
                disk.segments_removed.inc();
            }
        }
        let ckpts = list_checkpoints(&*disk.vfs, &disk.dir)?;
        if ckpts.len() > disk.keep {
            for (_, path) in &ckpts[..ckpts.len() - disk.keep] {
                let _ = disk.vfs.remove_file(path);
            }
        }
        Ok(())
    }

    /// The image: counters, the graph in arena order with its stable
    /// keys, every induced table's published rows and the token entries.
    fn into_image(self) -> CheckpointImage {
        let (graph, induced) = (self.snapshot.graph(), self.snapshot.induced());
        let props = |props: &BTreeMap<Ident, Value>| {
            props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect()
        };
        let nodes = graph
            .nodes()
            .map(|n| CkptNode {
                key: self.node_keys[n.id.0].0,
                label: n.label.as_str().to_owned(),
                props: props(&n.props),
            })
            .collect();
        let edges = graph
            .edges()
            .map(|e| CkptEdge {
                key: self.edge_keys[e.id.0].0,
                label: e.label.as_str().to_owned(),
                src: e.src.0 as u64,
                tgt: e.tgt.0 as u64,
                props: props(&e.props),
            })
            .collect();
        let tables = induced
            .tables()
            .map(|(name, t)| CkptTable {
                name: name.clone(),
                columns: t.columns.clone(),
                rows: t.rows.clone(),
            })
            .collect();
        CheckpointImage {
            generation: self.generation,
            commits: self.commits,
            rejected: self.rejected,
            next_key: self.next_key,
            nodes,
            edges,
            tables,
            tokens: self.tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ckpt-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_image(generation: u64) -> CheckpointImage {
        CheckpointImage {
            generation,
            commits: 9,
            rejected: 2,
            next_key: 11,
            nodes: vec![CkptNode {
                key: 3,
                label: "EMP".into(),
                props: vec![("id".into(), Value::Int(1)), ("name".into(), Value::str("A"))],
            }],
            edges: vec![CkptEdge {
                key: 7,
                label: "WORK_AT".into(),
                src: 0,
                tgt: 0,
                props: vec![("wid".into(), Value::Float(2.5))],
            }],
            tables: vec![CkptTable {
                name: "EMP".into(),
                columns: vec!["id".into(), "name".into()],
                rows: vec![vec![Value::Int(1), Value::str("A")], vec![Value::Int(2), Value::Null]],
            }],
            tokens: vec![((5u128 << 64) | 6, generation)],
        }
    }

    #[test]
    fn write_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let vfs = StdVfs;
        let path = write(&vfs, &dir, &sample_image(12)).unwrap();
        let image = load(&vfs, &path).unwrap();
        assert_eq!(image.generation, 12);
        assert_eq!(image.commits, 9);
        assert_eq!(image.next_key, 11);
        assert_eq!(image.nodes.len(), 1);
        assert_eq!(image.nodes[0].label, "EMP");
        assert_eq!(image.edges[0].props[0].1, Value::Float(2.5));
        assert_eq!(image.tables[0].rows[1], vec![Value::Int(2), Value::Null]);
        assert_eq!(image.tokens, vec![((5u128 << 64) | 6, 12)]);
        assert!(list_checkpoints(&vfs, &dir).unwrap().iter().any(|(g, _)| *g == 12));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_fails_the_checksum() {
        let dir = scratch_dir("flip");
        let vfs = StdVfs;
        let path = write(&vfs, &dir, &sample_image(3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&vfs, &path).unwrap_err();
        assert!(err.is_corrupt(), "typed corruption: {err}");
        assert!(err.to_string().contains("ckpt-"), "names the file: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_of_another_layout_is_refused() {
        let dir = scratch_dir("layout");
        let vfs = StdVfs;
        let path = write(&vfs, &dir, &sample_image(6)).unwrap();
        // The same image without its layout tag, framed with a valid
        // checksum.
        let bytes = std::fs::read(&path).unwrap();
        let payload = &bytes[8 + MAGIC.len()..];
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(payload));
        frame.extend_from_slice(payload);
        std::fs::write(&path, &frame).unwrap();
        assert!(load(&vfs, &path).unwrap_err().is_corrupt());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_checkpoint_is_rejected() {
        let dir = scratch_dir("trunc");
        let vfs = StdVfs;
        let path = write(&vfs, &dir, &sample_image(5)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load(&vfs, &path).unwrap_err().is_corrupt());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_are_swept_by_the_next_write() {
        let dir = scratch_dir("sweep");
        let vfs = StdVfs;
        std::fs::write(dir.join("ckpt-00000000000000000003.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("unrelated.tmp.txt"), b"keep").unwrap();
        write(&vfs, &dir, &sample_image(4)).unwrap();
        let names = vfs.list_dir(&dir).unwrap();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "stray tmp removed: {names:?}");
        assert!(names.contains(&"unrelated.tmp.txt".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
