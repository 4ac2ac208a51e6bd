//! Disk-backed second cache tier: append-only segment files with an
//! in-memory index, so a drained or SIGKILL'd daemon restarts warm.
//!
//! Modeled on crash-safe artifact pools (append-only log + index): writers
//! only ever append whole records and `fsync` before publishing the index
//! entry, so the on-disk state is always a valid prefix plus at most one
//! torn tail record. Each record carries its own checksum; recovery scans
//! every segment, keeps each record that parses and checksums, and
//! truncates the active segment at the first torn byte so future appends
//! never interleave with garbage.
//!
//! ## Record format
//!
//! One NDJSON line per record:
//!
//! ```text
//! {"k":"<32-hex cache key>","c":"<16-hex FNV-1a64 of v>","v":<Degraded JSON>}
//! ```
//!
//! The key is hex-encoded because the vendored serde's integer content is
//! `i128` and 128-bit digests routinely exceed it. The checksum covers the
//! serialized value bytes exactly as written.
//!
//! ## Segments
//!
//! Records append to `seg-NNNNNNNN.log`; the file rotates at a fixed size
//! and the oldest segments are deleted once the tier exceeds its byte cap
//! (the in-memory index drops their keys with them). Within the index a
//! later record for a key shadows earlier ones, so refreshes are plain
//! appends.

use crate::degrade::Degraded;
use crate::hash::CacheKey;
use crate::sync_util::lock_recover;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Rotate the active segment once it grows past this many bytes.
const SEGMENT_BYTES: u64 = 4 << 20;

/// Where one record lives.
#[derive(Clone, Copy, Debug)]
struct Loc {
    seg: u64,
    off: u64,
    len: u32,
}

struct DiskInner {
    dir: PathBuf,
    cap: u64,
    index: HashMap<u128, Loc>,
    /// Byte length of every live segment, keyed by segment id (sorted
    /// iteration gives age order).
    segments: std::collections::BTreeMap<u64, u64>,
    /// Open handle on the active (highest-id) segment.
    active: Option<File>,
}

/// Counters for the disk tier (all monotone since open, except
/// `recovered`/`dropped`, which describe the opening scan).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Index lookups that returned a deserialized record.
    pub hits: u64,
    /// Lookups that missed the index (or failed to read back).
    pub misses: u64,
    /// Records accepted by the recovery scan at open.
    pub recovered: u64,
    /// Records dropped by the recovery scan (torn or corrupt).
    pub dropped: u64,
}

/// The persistent tier. All methods take `&self`; a single mutex serializes
/// writers, lookups hit the shared index then read the segment file.
pub struct DiskCache {
    inner: Mutex<DiskInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    recovered: u64,
    dropped: u64,
}

impl DiskCache {
    /// Opens (or creates) the tier at `dir`, capping on-disk bytes at
    /// `cap` (0 = uncapped), and recovers every intact record.
    pub fn open(dir: &Path, cap: u64) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        let mut segments = std::collections::BTreeMap::new();
        let (mut recovered, mut dropped) = (0u64, 0u64);

        let mut ids: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|e| segment_id(&e.ok()?.file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();
        for (i, &seg) in ids.iter().enumerate() {
            let path = segment_path(dir, seg);
            let bytes = fs::read(&path)?;
            let (valid_end, kept, torn) = scan_segment(seg, &bytes, &mut index);
            recovered += kept;
            dropped += torn;
            let active_seg = i + 1 == ids.len();
            if active_seg && valid_end < bytes.len() as u64 {
                // Torn tail on the segment we will append to: cut it off so
                // new records never splice into garbage.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_end)?;
                f.sync_data()?;
            }
            segments.insert(
                seg,
                if active_seg {
                    valid_end
                } else {
                    bytes.len() as u64
                },
            );
        }

        let mut cache = DiskCache {
            inner: Mutex::new(DiskInner {
                dir: dir.to_path_buf(),
                cap,
                index,
                segments,
                active: None,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recovered,
            dropped,
        };
        // Enforce the cap on what recovery kept, oldest first.
        lock_recover(&cache.inner).enforce_cap()?;
        let _ = &mut cache;
        Ok(cache)
    }

    /// Number of live records in the index.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).index.len()
    }

    /// True when no records are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recovered: self.recovered,
            dropped: self.dropped,
        }
    }

    /// Looks up `key`, reading its record back from the owning segment.
    pub fn get(&self, key: CacheKey) -> Option<Degraded> {
        // Chaos hook: `cache.disk_read=err` simulates unreadable media.
        krsp_failpoint::fail_point!("cache.disk_read", |_msg| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        });
        let line = {
            let inner = lock_recover(&self.inner);
            let loc = match inner.index.get(&key.0) {
                Some(loc) => *loc,
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
            read_record(&inner.dir, loc)
        };
        match line.ok().and_then(|raw| decode_record(&raw)) {
            Some((k, value)) if k == key.0 => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends a record for `key`, fsyncs it, then publishes the index
    /// entry. On any I/O failure the tier just misses later — it never
    /// blocks the solve path.
    pub fn put(&self, key: CacheKey, value: &Degraded) -> io::Result<()> {
        // Chaos hook: `cache.disk_write=err` simulates a full/failing disk.
        krsp_failpoint::fail_point!("cache.disk_write", |msg| Err(io::Error::other(msg)));
        let line = encode_record(key.0, value);
        let mut inner = lock_recover(&self.inner);
        inner.append(&line, key.0)
    }

    /// Drops `key` from the live index (quarantine purge), so lookups miss
    /// until a fresh `put`. The record's bytes stay in their segment —
    /// unreachable for the rest of this run; like the quarantine table
    /// itself, the purge does not survive a restart. Returns whether a
    /// record was indexed.
    pub fn remove(&self, key: CacheKey) -> bool {
        lock_recover(&self.inner).index.remove(&key.0).is_some()
    }

    /// The segment files currently on disk, oldest first (test hook for the
    /// kill-mid-write recovery suite).
    #[must_use]
    pub fn segment_files(&self) -> Vec<PathBuf> {
        let inner = lock_recover(&self.inner);
        inner
            .segments
            .keys()
            .map(|&seg| segment_path(&inner.dir, seg))
            .collect()
    }
}

impl DiskInner {
    fn append(&mut self, line: &str, key: u128) -> io::Result<()> {
        let seg = self.rotate_if_needed(line.len() as u64)?;
        let off = *self.segments.get(&seg).unwrap_or(&0);
        let file = match self.active.as_mut() {
            Some(f) => f,
            None => {
                let f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(segment_path(&self.dir, seg))?;
                self.active.insert(f)
            }
        };
        file.write_all(line.as_bytes())?;
        // Publish order: data durable before the index points at it.
        file.sync_data()?;
        self.segments.insert(seg, off + line.len() as u64);
        self.index.insert(
            key,
            Loc {
                seg,
                off,
                len: line.len() as u32,
            },
        );
        self.enforce_cap()
    }

    /// The active segment id, rotating first when the incoming record
    /// would push it past [`SEGMENT_BYTES`].
    fn rotate_if_needed(&mut self, incoming: u64) -> io::Result<u64> {
        let (seg, len) = match self.segments.iter().next_back() {
            Some((&seg, &len)) => (seg, len),
            None => {
                self.segments.insert(0, 0);
                (0, 0)
            }
        };
        if len + incoming <= SEGMENT_BYTES || len == 0 {
            return Ok(seg);
        }
        self.active = None; // close the old handle
        let next = seg + 1;
        self.segments.insert(next, 0);
        // Make the rotation itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(next)
    }

    /// Deletes oldest segments (and their index entries) while the tier
    /// exceeds its byte cap; the active segment always survives.
    fn enforce_cap(&mut self) -> io::Result<()> {
        if self.cap == 0 {
            return Ok(());
        }
        while self.segments.len() > 1 && self.segments.values().sum::<u64>() > self.cap {
            let Some((&oldest, _)) = self.segments.iter().next() else {
                break;
            };
            let _ = fs::remove_file(segment_path(&self.dir, oldest));
            self.segments.remove(&oldest);
            self.index.retain(|_, loc| loc.seg != oldest);
        }
        Ok(())
    }
}

fn segment_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("seg-{seg:08}.log"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn read_record(dir: &Path, loc: Loc) -> io::Result<String> {
    let mut f = File::open(segment_path(dir, loc.seg))?;
    f.seek(SeekFrom::Start(loc.off))?;
    let mut buf = vec![0u8; loc.len as usize];
    f.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::other("record is not UTF-8"))
}

/// Scans one segment's bytes line by line, inserting every intact record
/// into `index` (later shadows earlier). Returns `(valid_end, kept,
/// dropped)` where `valid_end` is the byte offset just past the last intact
/// record.
fn scan_segment(seg: u64, bytes: &[u8], index: &mut HashMap<u128, Loc>) -> (u64, u64, u64) {
    let (mut off, mut kept, mut dropped) = (0u64, 0u64, 0u64);
    let mut valid_end = 0u64;
    for chunk in bytes.split_inclusive(|&b| b == b'\n') {
        let len = chunk.len() as u64;
        let intact = chunk.ends_with(b"\n")
            && std::str::from_utf8(chunk)
                .ok()
                .and_then(decode_record)
                .map(|(key, _)| {
                    index.insert(
                        key,
                        Loc {
                            seg,
                            off,
                            len: len as u32,
                        },
                    );
                })
                .is_some();
        if intact {
            kept += 1;
            valid_end = off + len;
        } else {
            dropped += 1;
        }
        off += len;
    }
    (valid_end, kept, dropped)
}

/// FNV-1a 64 over the serialized value bytes.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn encode_record(key: u128, value: &Degraded) -> String {
    let v = serde_json::to_string(value).unwrap_or_else(|_| "null".to_owned());
    format!(
        "{{\"k\":\"{key:032x}\",\"c\":\"{:016x}\",\"v\":{v}}}\n",
        checksum(v.as_bytes())
    )
}

/// Parses one line back into `(key, value)`; `None` for anything torn,
/// corrupt, or checksum-mismatched.
fn decode_record(line: &str) -> Option<(u128, Degraded)> {
    let content: serde::Content = serde_json::from_str(line.trim_end()).ok()?;
    let serde::Content::Str(key_hex) = content.field("k").ok()? else {
        return None;
    };
    let serde::Content::Str(sum_hex) = content.field("c").ok()? else {
        return None;
    };
    let key = hex_u128(key_hex)?;
    let sum = hex_u64(sum_hex)?;
    let value = content.field("v").ok()?;
    // Checksum covers the value exactly as serialized at write time;
    // re-serializing the parsed tree reproduces those bytes (the writer
    // used the same serializer).
    let reserialized = serde_json::to_string(value).ok()?;
    if checksum(reserialized.as_bytes()) != sum {
        return None;
    }
    serde::Deserialize::from_content(value)
        .ok()
        .map(|v| (key, v))
}

fn hex_u128(s: &str) -> Option<u128> {
    (s.len() == 32).then(|| u128::from_str_radix(s, 16).ok())?
}

fn hex_u64(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::degrade::Rung;
    use krsp_graph::EdgeSet;

    fn answer(cost: i64) -> Degraded {
        let mut edges = EdgeSet::with_capacity(8);
        edges.insert(krsp_graph::EdgeId((cost % 8) as u32));
        Degraded {
            solution: krsp::Solution {
                edges,
                cost,
                delay: 3,
                lower_bound: None,
            },
            rung: Rung::Full,
            guarantee: Rung::Full.guarantee(),
            kernel: krsp::KernelKind::Classic,
            warm: false,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("krsp-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_reopen() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("roundtrip");
        let c = DiskCache::open(&dir, 0).unwrap();
        for v in 0..20u64 {
            c.put(CacheKey(u128::from(v) << 100 | 0xabc), &answer(v as i64))
                .unwrap();
        }
        assert_eq!(c.len(), 20);
        let got = c.get(CacheKey(5u128 << 100 | 0xabc)).unwrap();
        assert_eq!(got.solution.cost, 5);
        assert!(got.solution.lower_bound.is_none());
        assert!(c.get(CacheKey(999)).is_none());
        drop(c);
        // Reopen: everything recovers.
        let c2 = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(c2.len(), 20);
        assert_eq!(c2.stats().recovered, 20);
        assert_eq!(c2.stats().dropped, 0);
        assert_eq!(
            c2.get(CacheKey(7u128 << 100 | 0xabc))
                .unwrap()
                .solution
                .cost,
            7
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_shadows_older_record() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("shadow");
        let c = DiskCache::open(&dir, 0).unwrap();
        let key = CacheKey(42u128 << 64);
        c.put(key, &answer(1)).unwrap();
        c.put(key, &answer(2)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(key).unwrap().solution.cost, 2);
        drop(c);
        let c2 = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(c2.get(key).unwrap().solution.cost, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_rest_recovers() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("torn");
        let c = DiskCache::open(&dir, 0).unwrap();
        for v in 0..10u64 {
            c.put(CacheKey(u128::from(v) << 96 | 7), &answer(v as i64))
                .unwrap();
        }
        let seg = c.segment_files()[0].clone();
        drop(c);
        // Tear the last record mid-way (kill-9 mid-write).
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();
        let c2 = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(c2.stats().recovered, 9);
        assert_eq!(c2.stats().dropped, 1);
        assert_eq!(c2.len(), 9);
        // The torn record misses; every earlier record still answers.
        assert!(c2.get(CacheKey(9u128 << 96 | 7)).is_none());
        for v in 0..9u64 {
            assert_eq!(
                c2.get(CacheKey(u128::from(v) << 96 | 7))
                    .unwrap()
                    .solution
                    .cost,
                v as i64
            );
        }
        // Appends after recovery land on the truncated tail cleanly.
        c2.put(CacheKey(1234), &answer(77)).unwrap();
        drop(c2);
        let c3 = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(c3.stats().dropped, 0);
        assert_eq!(c3.get(CacheKey(1234)).unwrap().solution.cost, 77);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_unindexes_the_record() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("remove");
        let c = DiskCache::open(&dir, 0).unwrap();
        c.put(CacheKey(9), &answer(4)).unwrap();
        assert!(c.remove(CacheKey(9)));
        assert!(c.get(CacheKey(9)).is_none());
        assert!(!c.remove(CacheKey(9)), "double remove is a no-op");
        assert!(c.is_empty());
        // A fresh put re-serves the key.
        c.put(CacheKey(9), &answer(5)).unwrap();
        assert_eq!(c.get(CacheKey(9)).unwrap().solution.cost, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("cksum");
        let c = DiskCache::open(&dir, 0).unwrap();
        c.put(CacheKey(1), &answer(10)).unwrap();
        c.put(CacheKey(2), &answer(20)).unwrap();
        let seg = c.segment_files()[0].clone();
        drop(c);
        // Flip one byte inside the first record's value.
        let mut bytes = fs::read(&seg).unwrap();
        let flip = 60.min(bytes.len() / 2);
        bytes[flip] = bytes[flip].wrapping_add(1);
        fs::write(&seg, &bytes).unwrap();
        let c2 = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(c2.stats().dropped, 1);
        assert_eq!(c2.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_drops_oldest_segments() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("cap");
        // Tiny cap: after enough records the earliest segments must go.
        let c = DiskCache::open(&dir, 8192).unwrap();
        let one = encode_record(0, &answer(0)).len() as u64;
        // Enough records to overflow several segments' worth of the cap.
        let n = (3 * 8192 / one).max(8);
        for v in 0..n {
            c.put(CacheKey(u128::from(v)), &answer(v as i64)).unwrap();
        }
        // Everything still in one active segment under SEGMENT_BYTES is
        // never deleted; the cap only prunes *older* segments.
        assert!(!c.segment_files().is_empty());
        drop(c);
        let c2 = DiskCache::open(&dir, 8192).unwrap();
        // Most recent record always survives.
        assert_eq!(
            c2.get(CacheKey(u128::from(n - 1))).unwrap().solution.cost,
            (n - 1) as i64
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoints_gate_disk_io() {
        let _fp = crate::sync_util::fp_lock();
        let dir = tmpdir("fp");
        let c = DiskCache::open(&dir, 0).unwrap();
        krsp_failpoint::setup_str("cache.disk_write=err").unwrap();
        assert!(c.put(CacheKey(1), &answer(1)).is_err());
        krsp_failpoint::setup_str("cache.disk_write=off").unwrap();
        c.put(CacheKey(1), &answer(1)).unwrap();
        krsp_failpoint::setup_str("cache.disk_read=err").unwrap();
        assert!(c.get(CacheKey(1)).is_none());
        krsp_failpoint::setup_str("cache.disk_read=off").unwrap();
        assert_eq!(c.get(CacheKey(1)).unwrap().solution.cost, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
