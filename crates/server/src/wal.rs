//! Write-ahead durability for the catalog.
//!
//! A [`Wal`] owns a data directory with two files:
//!
//! * `wal.log` — an append-only sequence of checksummed frames
//!   (`sirup_core::frame`): one **header** frame (magic + epoch) followed by
//!   [`WalRecord`]s. A mutation is appended **and fsync'd before it is
//!   applied** to the catalog, so an acknowledged mutation is always
//!   recoverable.
//! * `snapshot.bin` — the folded catalog as of some prefix of the log:
//!   a header frame (magic + epoch + instance count) followed by one frame
//!   per instance (name, per-instance mutation `seq`, node count, the
//!   structure as `Add*` ops). Written to a temp file, fsync'd, and
//!   atomically renamed into place.
//!
//! ## Epochs and the compaction crash windows
//!
//! Compaction writes a fresh snapshot at epoch `E+1`, renames it in, then
//! truncates `wal.log` and writes a new header at epoch `E+1`. A crash can
//! land in either window:
//!
//! * after the temp snapshot is written but before the rename — the temp
//!   file is simply ignored on recovery (only `snapshot.bin` is read);
//! * after the rename but before the log truncate — the old log (epoch `E`)
//!   now *precedes* the snapshot (epoch `E+1`). Recovery detects this by
//!   comparing epochs: a log header older than the snapshot means every
//!   logged record is already folded into the snapshot, so the log is
//!   discarded and re-initialised.
//!
//! Replaying a log on top of a snapshot is only sound when the epochs
//! match; [`Wal::open`] enforces exactly that.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a torn final frame. Recovery scans the log's
//! checksum-valid prefix ([`frame::scan`]), folds those records, and
//! truncates the file to the clean prefix before appending resumes — the
//! torn bytes can never corrupt later records. The same applies to a
//! record that framed correctly but decodes to garbage: that is not a torn
//! tail but real corruption, and `open` refuses the directory rather than
//! silently dropping acknowledged writes.
//!
//! ## Fail-stop
//!
//! Because recovery keeps only the clean prefix, a torn frame left by a
//! failed append would also hide every record appended after it, acked or
//! not. So a [`Wal`] whose append or `sync_data` fails once refuses every
//! later append and compaction; the process must reopen the directory
//! (recovery truncates the tear) before it logs again. The server fails
//! the log the same way when a write panics between its append and its
//! apply: the log then holds a record the live catalog never applied, and
//! a later write would log the same seq again.

use sirup_core::delta::{decode_ops, encode_ops};
use sirup_core::frame;
use sirup_core::telemetry::{self, Counter, Family};
use sirup_core::{FactOp, Structure};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8] = b"sirup-wal v1";
const SNAP_MAGIC: &[u8] = b"sirup-snap v1";

/// One durable event in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An instance was loaded (or replaced): `nodes` then the structure's
    /// atoms as `Add*` ops. Resets the instance's mutation sequence to 0.
    Load {
        /// Instance name.
        name: String,
        /// Node count (ops alone cannot express trailing isolated nodes).
        nodes: u32,
        /// The structure as insert ops.
        ops: Vec<FactOp>,
    },
    /// A mutation batch applied as the instance's `seq`-th mutation.
    Mutate {
        /// Instance name.
        name: String,
        /// Per-instance mutation sequence number (1-based).
        seq: u64,
        /// The fact batch.
        ops: Vec<FactOp>,
    },
    /// An instance was dropped.
    Remove {
        /// Instance name.
        name: String,
    },
}

impl WalRecord {
    /// Binary form: `u8` kind tag, name as `u16 LE` length + UTF-8, then
    /// the kind's payload.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (tag, name) = match self {
            WalRecord::Load { name, .. } => (0u8, name),
            WalRecord::Mutate { name, .. } => (1, name),
            WalRecord::Remove { name } => (2, name),
        };
        out.push(tag);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        match self {
            WalRecord::Load { nodes, ops, .. } => {
                out.extend_from_slice(&nodes.to_le_bytes());
                out.extend_from_slice(&encode_ops(ops));
            }
            WalRecord::Mutate { seq, ops, .. } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&encode_ops(ops));
            }
            WalRecord::Remove { .. } => {}
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<WalRecord, String> {
        let take = |at: usize, n: usize| -> Result<&[u8], String> {
            buf.get(at..at + n)
                .ok_or_else(|| format!("wal record truncated at byte {at}"))
        };
        let tag = take(0, 1)?[0];
        let name_len = u16::from_le_bytes(take(1, 2)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(take(3, name_len)?)
            .map_err(|_| "wal record name is not UTF-8".to_owned())?
            .to_owned();
        let at = 3 + name_len;
        match tag {
            0 => {
                let nodes = u32::from_le_bytes(take(at, 4)?.try_into().unwrap());
                let (ops, _) = decode_ops(&buf[at + 4..])?;
                Ok(WalRecord::Load { name, nodes, ops })
            }
            1 => {
                let seq = u64::from_le_bytes(take(at, 8)?.try_into().unwrap());
                let (ops, _) = decode_ops(&buf[at + 8..])?;
                Ok(WalRecord::Mutate { name, seq, ops })
            }
            2 => Ok(WalRecord::Remove { name }),
            t => Err(format!("unknown wal record tag {t}")),
        }
    }
}

/// One instance as reconstructed by [`Wal::open`].
#[derive(Debug, Clone)]
pub struct RecoveredInstance {
    /// Instance name.
    pub name: String,
    /// The folded structure.
    pub data: Structure,
    /// Mutation sequence the instance had reached (0 = freshly loaded).
    pub seq: u64,
}

/// The write-ahead log plus snapshot of one data directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: File,
    epoch: u64,
    /// Set by the first failed append or fsync, or by [`Wal::fail`]; see
    /// § Fail-stop.
    failed: bool,
    /// Test-only fault switch: the next append fails before writing.
    #[cfg(test)]
    fail_next: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parse a header frame: `magic ++ u64 LE epoch ++ rest`; returns
/// `(epoch, rest)`.
fn parse_header<'a>(payload: &'a [u8], magic: &[u8], what: &str) -> io::Result<(u64, &'a [u8])> {
    if payload.len() < magic.len() + 8 || &payload[..magic.len()] != magic {
        return Err(bad(format!(
            "{what} header is not a {}",
            String::from_utf8_lossy(magic)
        )));
    }
    let epoch = u64::from_le_bytes(payload[magic.len()..magic.len() + 8].try_into().unwrap());
    Ok((epoch, &payload[magic.len() + 8..]))
}

/// Serialise one instance for the snapshot file.
fn encode_instance(name: &str, seq: u64, data: &Structure) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(data.node_count() as u32).to_le_bytes());
    out.extend_from_slice(&encode_ops(&data.to_ops()));
    out
}

fn decode_instance(buf: &[u8]) -> Result<RecoveredInstance, String> {
    let take = |at: usize, n: usize| -> Result<&[u8], String> {
        buf.get(at..at + n)
            .ok_or_else(|| format!("snapshot instance truncated at byte {at}"))
    };
    let name_len = u16::from_le_bytes(take(0, 2)?.try_into().unwrap()) as usize;
    let name = std::str::from_utf8(take(2, name_len)?)
        .map_err(|_| "snapshot instance name is not UTF-8".to_owned())?
        .to_owned();
    let at = 2 + name_len;
    let seq = u64::from_le_bytes(take(at, 8)?.try_into().unwrap());
    let nodes = u32::from_le_bytes(take(at + 8, 4)?.try_into().unwrap());
    let (ops, _) = decode_ops(&buf[at + 12..])?;
    let mut data = Structure::with_nodes(nodes as usize);
    data.apply_all(&ops);
    Ok(RecoveredInstance { name, data, seq })
}

/// Rebuild a structure from a `Load` record.
fn structure_of(nodes: u32, ops: &[FactOp]) -> Structure {
    let mut data = Structure::with_nodes(nodes as usize);
    data.apply_all(ops);
    data
}

impl Wal {
    /// Open (creating if needed) the WAL in `dir` and recover the catalog
    /// state it describes: the snapshot (if any) with the log's clean
    /// prefix folded on top. Torn log tails are truncated away; a log whose
    /// epoch predates the snapshot (a crash between snapshot rename and log
    /// truncate) is discarded as already-folded.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Wal, Vec<RecoveredInstance>)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        // 1. The snapshot, if present, seeds the fold.
        let mut instances: Vec<RecoveredInstance> = Vec::new();
        let mut snap_epoch = 0u64;
        let snap_path = dir.join("snapshot.bin");
        if snap_path.exists() {
            let bytes = fs::read(&snap_path)?;
            let (frames, clean) = frame::scan(&bytes);
            if clean != bytes.len() || frames.is_empty() {
                return Err(bad("snapshot.bin is corrupt (torn or bad checksum)"));
            }
            let (epoch, rest) = parse_header(frames[0], SNAP_MAGIC, "snapshot")?;
            snap_epoch = epoch;
            let count = u32::from_le_bytes(
                rest.get(0..4)
                    .ok_or_else(|| bad("snapshot header is missing its count"))?
                    .try_into()
                    .unwrap(),
            ) as usize;
            if frames.len() != count + 1 {
                return Err(bad(format!(
                    "snapshot.bin holds {} instance frame(s), header promises {count}",
                    frames.len() - 1
                )));
            }
            for f in &frames[1..] {
                instances.push(decode_instance(f).map_err(bad)?);
            }
        }

        // 2. The log's checksum-valid prefix, unless it predates the
        //    snapshot.
        let log_path = dir.join("wal.log");
        let mut log_bytes = Vec::new();
        if log_path.exists() {
            File::open(&log_path)?.read_to_end(&mut log_bytes)?;
        }
        let (frames, clean) = frame::scan(&log_bytes);
        let mut epoch = snap_epoch;
        let mut stale = frames.is_empty();
        if let Some(header) = frames.first() {
            let (log_epoch, _) = parse_header(header, WAL_MAGIC, "wal")?;
            if log_epoch < snap_epoch {
                stale = true; // already folded into the snapshot
            } else {
                epoch = log_epoch;
                for f in &frames[1..] {
                    let record = WalRecord::decode(f).map_err(bad)?;
                    Wal::fold(&mut instances, record);
                }
            }
        }

        // 3. Re-initialise a stale/fresh log, or truncate a torn tail so
        //    appends land right after the last complete record.
        let mut log = OpenOptions::new()
            .create(true)
            .truncate(false) // recovery decides below how much tail to keep
            .read(true)
            .write(true)
            .open(&log_path)?;
        if stale {
            log.set_len(0)?;
            let mut header = Vec::from(WAL_MAGIC);
            header.extend_from_slice(&epoch.to_le_bytes());
            let mut framed = Vec::new();
            frame::encode_frame(&mut framed, &header);
            log.write_all(&framed)?;
            log.sync_data()?;
        } else if clean as u64 != log.metadata()?.len() {
            log.set_len(clean as u64)?;
            log.sync_data()?;
        }
        use std::io::Seek as _;
        log.seek(io::SeekFrom::End(0))?;

        instances.sort_by(|a, b| a.name.cmp(&b.name));
        let wal = Wal {
            dir,
            log,
            epoch,
            failed: false,
            #[cfg(test)]
            fail_next: false,
        };
        Ok((wal, instances))
    }

    fn fold(instances: &mut Vec<RecoveredInstance>, record: WalRecord) {
        match record {
            WalRecord::Load { name, nodes, ops } => {
                let data = structure_of(nodes, &ops);
                match instances.iter_mut().find(|i| i.name == name) {
                    Some(i) => {
                        i.data = data;
                        i.seq = 0;
                    }
                    None => instances.push(RecoveredInstance { name, data, seq: 0 }),
                }
            }
            WalRecord::Mutate { name, seq, ops } => {
                if let Some(i) = instances.iter_mut().find(|i| i.name == name) {
                    i.data.apply_all(&ops);
                    i.seq = seq;
                }
            }
            WalRecord::Remove { name } => instances.retain(|i| i.name != name),
        }
    }

    /// Durably append one record: framed write + `fdatasync` before
    /// returning. Callers apply the change to the catalog only after this
    /// returns `Ok`, so an acknowledged effect is always on disk. After
    /// one failure every later call fails too (§ Fail-stop).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.fail_stop(|wal| wal.write_and_sync(record))
    }

    /// Run `step` unless an earlier step failed, and remember if this one
    /// does (§ Fail-stop).
    fn fail_stop(&mut self, step: impl FnOnce(&mut Wal) -> io::Result<()>) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other(
                "an earlier write failed; reopen the log to recover",
            ));
        }
        let result = step(self);
        self.failed = result.is_err();
        result
    }

    fn write_and_sync(&mut self, record: &WalRecord) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next) {
            return Err(io::Error::other("injected append failure"));
        }
        telemetry::counter_add(Counter::WalAppends, 1);
        {
            let _t = telemetry::timed(Family::WalAppend, "wal_append");
            frame::write_frame(&mut self.log, &record.encode())?;
        }
        let _t = telemetry::timed(Family::WalFsync, "wal_fsync");
        self.log.sync_data()
    }

    /// Refuse every later append and compaction (§ Fail-stop): the caller
    /// logged a write it could not apply.
    pub(crate) fn fail(&mut self) {
        self.failed = true;
    }

    /// Make the next append fail before it writes anything.
    #[cfg(test)]
    pub(crate) fn fail_next_append(&mut self) {
        self.fail_next = true;
    }

    /// Bytes currently in the log file (header included) — the compaction
    /// trigger reads this.
    pub fn log_len(&self) -> io::Result<u64> {
        Ok(self.log.metadata()?.len())
    }

    /// The current snapshot/log epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compact: write `instances` as the new snapshot at epoch `E+1`
    /// (temp file, fsync, atomic rename, directory fsync), then truncate
    /// the log and start it fresh at the same epoch. Every appended record
    /// must be reflected in `instances`, and the caller must block appends
    /// for the duration (the server holds every catalog writer lock).
    ///
    /// A failed compaction fails the log like a failed append: it may
    /// have cut the log short of its header.
    pub fn compact(&mut self, instances: &[(String, u64, &Structure)]) -> io::Result<()> {
        self.fail_stop(|wal| wal.write_snapshot(instances))
    }

    fn write_snapshot(&mut self, instances: &[(String, u64, &Structure)]) -> io::Result<()> {
        telemetry::counter_add(Counter::WalCompactions, 1);
        let _t = telemetry::timed(Family::WalCompact, "wal_compact");
        let epoch = self.epoch + 1;
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut header = Vec::from(SNAP_MAGIC);
            header.extend_from_slice(&epoch.to_le_bytes());
            header.extend_from_slice(&(instances.len() as u32).to_le_bytes());
            frame::write_frame(&mut f, &header)?;
            for (name, seq, data) in instances {
                frame::write_frame(&mut f, &encode_instance(name, *seq, data))?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join("snapshot.bin"))?;
        // Make the rename itself durable before truncating the log: once
        // the log is empty, recovery must be guaranteed to see the new
        // snapshot.
        File::open(&self.dir)?.sync_all()?;

        self.log.set_len(0)?;
        use std::io::Seek as _;
        self.log.seek(io::SeekFrom::Start(0))?;
        let mut header = Vec::from(WAL_MAGIC);
        header.extend_from_slice(&epoch.to_le_bytes());
        frame::write_frame(&mut self.log, &header)?;
        self.log.sync_data()?;
        self.epoch = epoch;
        Ok(())
    }

    /// The directory this WAL persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::{Node, Pred};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sirup-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn load_record(name: &str, data: &Structure) -> WalRecord {
        WalRecord::Load {
            name: name.to_owned(),
            nodes: data.node_count() as u32,
            ops: data.to_ops(),
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let records = [
            load_record("alpha", &st("F(a), R(a,b), T(b)")),
            WalRecord::Mutate {
                name: "alpha".into(),
                seq: 3,
                ops: vec![
                    FactOp::AddLabel(Pred::A, Node(1)),
                    FactOp::RemoveEdge(Pred::R, Node(0), Node(1)),
                ],
            },
            WalRecord::Remove {
                name: "gone".into(),
            },
        ];
        for r in &records {
            assert_eq!(&WalRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn reopen_recovers_loads_and_mutations() {
        let dir = tmpdir("reopen");
        let data = st("F(a), R(a,b), T(b)");
        {
            let (mut wal, recovered) = Wal::open(&dir).unwrap();
            assert!(recovered.is_empty());
            wal.append(&load_record("d", &data)).unwrap();
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 1,
                ops: vec![FactOp::AddLabel(Pred::A, Node(0))],
            })
            .unwrap();
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 2,
                ops: vec![FactOp::RemoveLabel(Pred::T, Node(1))],
            })
            .unwrap();
            wal.append(&load_record("e", &st("T(u)"))).unwrap();
            wal.append(&WalRecord::Remove { name: "e".into() }).unwrap();
        }
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        let d = &recovered[0];
        assert_eq!((d.name.as_str(), d.seq), ("d", 2));
        let mut oracle = data.clone();
        oracle.apply_all(&[
            FactOp::AddLabel(Pred::A, Node(0)),
            FactOp::RemoveLabel(Pred::T, Node(1)),
        ]);
        assert_eq!(d.data.to_string(), oracle.to_string());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bytes_are_identical_across_mutation_histories() {
        // Two WALs reach the same logical instance along different paths:
        // one loads the final state directly, the other loads a precursor
        // and mutates its way there (including retractions, so page and
        // chunk layouts inside the paged storage differ along the way).
        // `snapshot.bin` serialises through the canonical `to_ops` order,
        // so compaction must produce byte-identical files — recovery and
        // crash-check stay stable across the storage representation.
        let final_state = {
            let mut s = st("F(a), R(a,b), T(b), S(b,c), A(c)");
            s.apply(FactOp::AddLabel(Pred::A, Node(0)));
            s
        };
        let dir_direct = tmpdir("snap-direct");
        let dir_mutated = tmpdir("snap-mutated");
        {
            let (mut wal, _) = Wal::open(&dir_direct).unwrap();
            wal.append(&load_record("d", &final_state)).unwrap();
            wal.compact(&[("d".to_owned(), 2, &final_state)]).unwrap();
        }
        {
            let (mut wal, _) = Wal::open(&dir_mutated).unwrap();
            let mut data = st("F(a), R(a,b), T(b), S(b,c), A(c), S(c,a)");
            wal.append(&load_record("d", &data)).unwrap();
            for (seq, ops) in [
                (1u64, vec![FactOp::RemoveEdge(Pred::S, Node(2), Node(0))]),
                (2u64, vec![FactOp::AddLabel(Pred::A, Node(0))]),
            ] {
                data.apply_all(&ops);
                wal.append(&WalRecord::Mutate {
                    name: "d".into(),
                    seq,
                    ops,
                })
                .unwrap();
            }
            assert_eq!(data, final_state, "histories converge logically");
            wal.compact(&[("d".to_owned(), 2, &data)]).unwrap();
        }
        let direct = fs::read(dir_direct.join("snapshot.bin")).unwrap();
        let mutated = fs::read(dir_mutated.join("snapshot.bin")).unwrap();
        assert_eq!(direct, mutated, "snapshot bytes diverged across histories");
        // And recovery from those bytes reproduces the instance exactly.
        let (_, recovered) = Wal::open(&dir_mutated).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].data, final_state);
        assert_eq!(recovered[0].seq, 2);
        fs::remove_dir_all(&dir_direct).unwrap();
        fs::remove_dir_all(&dir_mutated).unwrap();
    }

    #[test]
    fn torn_final_record_recovers_at_every_cut() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&load_record("d", &st("T(a)"))).unwrap();
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 1,
                ops: vec![FactOp::AddLabel(Pred::A, Node(0))],
            })
            .unwrap();
        }
        let full = fs::read(dir.join("wal.log")).unwrap();
        // Find where the final record's frame starts: scan all frames and
        // drop the last one's length.
        let (frames, _) = frame::scan(&full);
        let last_len = 8 + frames.last().unwrap().len();
        let boundary = full.len() - last_len;
        for cut in boundary..full.len() {
            fs::write(dir.join("wal.log"), &full[..cut]).unwrap();
            let (mut wal, recovered) =
                Wal::open(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            // The torn mutation is gone; the load survives.
            assert_eq!(recovered.len(), 1, "cut at {cut}");
            assert_eq!(recovered[0].seq, 0, "cut at {cut}");
            assert!(
                !recovered[0].data.has_label(Node(0), Pred::A),
                "cut at {cut}"
            );
            // The file was truncated to the clean prefix: appending after
            // recovery yields a log whose fold includes the new record.
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 1,
                ops: vec![FactOp::AddLabel(Pred::F, Node(0))],
            })
            .unwrap();
            drop(wal);
            let (_, again) = Wal::open(&dir).unwrap();
            assert!(again[0].data.has_label(Node(0), Pred::F), "cut at {cut}");
            assert_eq!(again[0].seq, 1, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_the_fold_and_bumps_the_epoch() {
        let dir = tmpdir("compact");
        let before;
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            assert_eq!(wal.epoch(), 0);
            wal.append(&load_record("d", &st("F(a), R(a,b), T(b)")))
                .unwrap();
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 1,
                ops: vec![FactOp::AddLabel(Pred::A, Node(1))],
            })
            .unwrap();
            let (_, folded) = Wal::open(&dir).unwrap();
            before = folded[0].data.to_string();
            // Compact at the fold, then keep appending.
            let snap: Vec<(String, u64, &Structure)> = vec![("d".into(), 1, &folded[0].data)];
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.compact(&snap).unwrap();
            assert_eq!(wal.epoch(), 1);
            assert!(wal.log_len().unwrap() < 100, "log was compacted");
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 2,
                ops: vec![FactOp::RemoveLabel(Pred::T, Node(1))],
            })
            .unwrap();
        }
        let (wal, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(wal.epoch(), 1);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].seq, 2);
        // The recovered fold equals the full-history oracle: the load, the
        // pre-compaction mutation (checked against `before`), and the
        // post-compaction one.
        let mut oracle = st("F(a), R(a,b), T(b)");
        oracle.apply(FactOp::AddLabel(Pred::A, Node(1)));
        assert_eq!(before, oracle.to_string());
        oracle.apply(FactOp::RemoveLabel(Pred::T, Node(1)));
        assert_eq!(recovered[0].data.to_string(), oracle.to_string());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_after_snapshot_rename_is_discarded() {
        // Simulate the crash window between snapshot rename and log
        // truncate: the snapshot is at epoch 1 but the log still holds the
        // epoch-0 records it folded.
        let dir = tmpdir("stale");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&load_record("d", &st("T(a)"))).unwrap();
            wal.append(&WalRecord::Mutate {
                name: "d".into(),
                seq: 1,
                ops: vec![FactOp::AddLabel(Pred::A, Node(0))],
            })
            .unwrap();
        }
        let old_log = fs::read(dir.join("wal.log")).unwrap();
        {
            let (_, folded) = Wal::open(&dir).unwrap();
            let snap: Vec<(String, u64, &Structure)> = vec![("d".into(), 1, &folded[0].data)];
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.compact(&snap).unwrap();
        }
        // Crash simulation: the pre-compaction log reappears.
        fs::write(dir.join("wal.log"), &old_log).unwrap();
        let (wal, recovered) = Wal::open(&dir).unwrap();
        // The stale records were NOT applied a second time on top of the
        // snapshot: seq stays 1, the A label appears once.
        assert_eq!(wal.epoch(), 1);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].seq, 1);
        assert!(recovered[0].data.has_label(Node(0), Pred::A));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_failed_append_stops_the_log_until_reopened() {
        let dir = tmpdir("failstop");
        let mutate = |seq| WalRecord::Mutate {
            name: "d".into(),
            seq,
            ops: vec![FactOp::AddLabel(Pred::A, Node(0))],
        };
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&load_record("d", &st("T(a)"))).unwrap();
            wal.fail_next_append();
            assert!(wal.append(&mutate(1)).is_err());
            // Fail-stop: a healthy-looking later append and a compaction
            // are refused too, so nothing lands behind a possible tear.
            assert!(wal.append(&mutate(1)).is_err());
            assert!(wal.compact(&[]).is_err());
        }
        // Reopening recovers the clean prefix and logs again.
        let (mut wal, recovered) = Wal::open(&dir).unwrap();
        assert_eq!((recovered.len(), recovered[0].seq), (1, 0));
        wal.append(&mutate(1)).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered[0].seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
