//! The out-of-core storage tier: digest-verified segment files.
//!
//! Two consumers share this module:
//!
//! * the **spill tier** ([`merge_spilling`]) — when a positive
//!   [`spill_budget_bytes`](crate::EvalConfig::spill_budget_bytes) is
//!   configured, pure-operator chunk outputs heavier than the budget are
//!   encoded with [`urel::segment`], framed, written to temporary segment
//!   files, and merged back by *streaming* decode (header + row-at-a-time
//!   insert), so the merged result is built without ever holding two copies
//!   of a heavy chunk.  Set semantics make the merge order-independent, so
//!   spilled execution is bit-identical to resident execution;
//! * the **checkpoint store** ([`crate::ServingEngine::checkpoint`] /
//!   [`restore`](crate::ServingEngine::restore)) — a directory of segment
//!   files (catalog, W-table, one segment per relation, one per warm pool
//!   entry — what its prefix *added*: introduced variables, counters and
//!   the sub-plan results that depend on its spine — and one for the
//!   pool's store of spine-free results, each written once; never a scan,
//!   whose content lives once in its relation segment) plus a `MANIFEST`
//!   segment, written last, recording every
//!   segment's payload length and digest pair.  The shape follows the
//!   state-layout/state-manager design of replicated-state systems: readers
//!   trust nothing until the manifest digest *and* each segment's own framed
//!   digest both verify.
//!
//! Every segment file is framed: magic `USEG`, format version, payload
//! length, and a pair of independently seeded 64-bit digests over the
//! payload, followed by the payload itself.  [`read_segment`] rejects any
//! mismatch with [`EngineError::Storage`] — a flipped bit anywhere in the
//! file (header or payload) surfaces as a classified error, never as
//! silently wrong rows.  The `storage` failpoint
//! ([`crate::faults::corrupt_bytes`]) flips a deterministic bit of a
//! checkpoint segment just before it hits disk to prove exactly that.

use crate::error::{EngineError, Result};
use crate::exec::{EvalStats, EvaluatedRelation};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use urel::segment::{self, SegmentCursor};
use urel::{URelation, WTable};

/// Segment file magic.
const MAGIC: [u8; 4] = *b"USEG";
/// Segment format version; bump on any wire-format change.
/// Version 2 widened the warm-entry statistics block with the estimation
/// backend counters (exact-compiled / sampled answers, shared block hits).
/// Version 3 replaced the warm entry's private database copy (and its
/// stateful footprint) with the W-table variables its prefix introduced.
/// Version 4 moved every spine-free sub-plan result out of the warm
/// entries into one `store.seg` segment, and persists no scan result.
/// Directories written under an older version fail to restore with
/// [`EngineError::Storage`]; the caller falls back to a cold start.
pub(crate) const VERSION: u32 = 4;
/// Frame header: magic + version + payload length + digest pair.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;
/// Seed separating the second digest's stream from the first.
const DIGEST2_SEED: u64 = 0xD6E8_FEB8_6659_FD93;

/// The manifest's own file name (not listed in itself).
pub(crate) const MANIFEST: &str = "MANIFEST";

fn corrupt(msg: impl Into<String>) -> EngineError {
    EngineError::Storage(msg.into())
}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> EngineError {
    corrupt(format!("{what} {}: {e}", path.display()))
}

/// The digest pair of a payload: two `DefaultHasher` (SipHash-1-3 with
/// fixed keys, stable across processes and platforms) streams, the second
/// seeded differently so a collision must fool both.
pub(crate) fn digest_pair(payload: &[u8]) -> (u64, u64) {
    let mut h1 = std::collections::hash_map::DefaultHasher::new();
    h1.write(payload);
    let mut h2 = std::collections::hash_map::DefaultHasher::new();
    h2.write_u64(DIGEST2_SEED);
    h2.write(payload);
    (h1.finish(), h2.finish())
}

/// Frames a payload: header (magic, version, length, digests) + payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let (h1, h2) = digest_pair(payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    segment::put_u32(&mut out, VERSION);
    segment::put_u64(&mut out, payload.len() as u64);
    segment::put_u64(&mut out, h1);
    segment::put_u64(&mut out, h2);
    out.extend_from_slice(payload);
    out
}

/// Verifies a framed buffer and returns its payload slice.
fn unframe<'a>(buf: &'a [u8], path: &Path) -> Result<&'a [u8]> {
    let p = path.display();
    if buf.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "{p}: truncated frame ({} bytes)",
            buf.len()
        )));
    }
    if buf[..4] != MAGIC {
        return Err(corrupt(format!("{p}: bad magic")));
    }
    let mut cur = SegmentCursor::new(&buf[4..HEADER_LEN]);
    let version = cur.take_u32().expect("header slice");
    let len = cur.take_u64().expect("header slice");
    let h1 = cur.take_u64().expect("header slice");
    let h2 = cur.take_u64().expect("header slice");
    if version != VERSION {
        return Err(corrupt(format!("{p}: unknown segment version {version}")));
    }
    let payload = &buf[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(corrupt(format!(
            "{p}: payload is {} bytes, header promised {len}",
            payload.len()
        )));
    }
    if digest_pair(payload) != (h1, h2) {
        return Err(corrupt(format!("{p}: digest mismatch")));
    }
    Ok(payload)
}

/// Reads a framed segment file and returns its verified payload.
pub(crate) fn read_segment(path: &Path) -> Result<Vec<u8>> {
    let buf = std::fs::read(path).map_err(|e| io_err(path, "reading segment", e))?;
    Ok(unframe(&buf, path)?.to_vec())
}

/// One manifest row: a segment file's name, payload length, and digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub name: String,
    pub len: u64,
    pub h1: u64,
    pub h2: u64,
}

/// Writes one framed checkpoint segment into `dir` and returns its manifest
/// row.  This is the `storage` failpoint site: an armed corruption storm
/// flips one bit of the framed buffer *after* the manifest row is taken, so
/// what lands on disk no longer matches what the manifest promises.
pub(crate) fn write_segment_file(dir: &Path, name: &str, payload: &[u8]) -> Result<ManifestEntry> {
    let (h1, h2) = digest_pair(payload);
    let entry = ManifestEntry {
        name: name.to_owned(),
        len: payload.len() as u64,
        h1,
        h2,
    };
    let mut framed = frame(payload);
    crate::faults::corrupt_bytes("storage", &mut framed);
    let path = dir.join(name);
    std::fs::write(&path, framed).map_err(|e| io_err(&path, "writing segment", e))?;
    Ok(entry)
}

/// Writes the manifest segment.  Called after every other segment has been
/// durably written, so a crash mid-checkpoint leaves a directory without a
/// (complete) manifest — which `restore` rejects as a whole — rather than a
/// manifest pointing at missing or partial segments.
pub(crate) fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> Result<()> {
    let mut payload = Vec::new();
    segment::put_u32(&mut payload, entries.len() as u32);
    for e in entries {
        segment::put_str(&mut payload, &e.name);
        segment::put_u64(&mut payload, e.len);
        segment::put_u64(&mut payload, e.h1);
        segment::put_u64(&mut payload, e.h2);
    }
    let path = dir.join(MANIFEST);
    std::fs::write(&path, frame(&payload)).map_err(|e| io_err(&path, "writing manifest", e))
}

/// Reads and decodes the manifest of a checkpoint directory.
pub(crate) fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>> {
    let path = dir.join(MANIFEST);
    let payload = read_segment(&path)?;
    let mut cur = SegmentCursor::new(&payload);
    let decode = |cur: &mut SegmentCursor<'_>| -> urel::Result<Vec<ManifestEntry>> {
        let count = cur.take_u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            entries.push(ManifestEntry {
                name: cur.take_str()?,
                len: cur.take_u64()?,
                h1: cur.take_u64()?,
                h2: cur.take_u64()?,
            });
        }
        Ok(entries)
    };
    let entries = decode(&mut cur).map_err(|e| corrupt(format!("{}: {e}", path.display())))?;
    if !cur.is_exhausted() {
        return Err(corrupt(format!("{}: trailing bytes", path.display())));
    }
    Ok(entries)
}

/// Reads a segment file and cross-checks it against its manifest row: the
/// frame must verify *and* agree with the manifest's length and digests, so
/// swapping two internally consistent segment files is also detected.
pub(crate) fn read_verified(dir: &Path, entry: &ManifestEntry) -> Result<Vec<u8>> {
    let payload = read_segment(&dir.join(&entry.name))?;
    if payload.len() as u64 != entry.len || digest_pair(&payload) != (entry.h1, entry.h2) {
        return Err(corrupt(format!(
            "{}: segment does not match its manifest row",
            entry.name
        )));
    }
    Ok(payload)
}

/// Reads the segment the manifest lists under `name`, cross-checks it
/// ([`read_verified`]) and decodes its whole payload with `decode`.  A
/// missing manifest row, a decode failure and trailing bytes all fail with
/// [`EngineError::Storage`].
pub(crate) fn read_decoded<T>(
    dir: &Path,
    manifest: &[ManifestEntry],
    name: &str,
    decode: impl FnOnce(&mut SegmentCursor<'_>) -> urel::Result<T>,
) -> Result<T> {
    let entry = manifest.iter().find(|e| e.name == name).ok_or_else(|| {
        corrupt(format!(
            "{}: manifest lists no {name} segment",
            dir.display()
        ))
    })?;
    let payload = read_verified(dir, entry)?;
    let mut cur = SegmentCursor::new(&payload);
    let value = decode(&mut cur).map_err(|e| corrupt(format!("{name}: {e}")))?;
    if !cur.is_exhausted() {
        return Err(corrupt(format!("{name}: trailing bytes")));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Spill tier
// ---------------------------------------------------------------------------

/// Deterministic-per-process unique spill file path (no clock, no RNG).
fn spill_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "uadb-spill-{}-{}.seg",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Temp-file janitor: spill segments are deleted when the merge finishes,
/// including on the error path.
struct SpillFiles(Vec<PathBuf>);

impl Drop for SpillFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Merges chunked operator outputs under a spill budget.  Budget `0` is the
/// fully resident fast path ([`crate::ops::merge_chunks`]).  Otherwise each
/// output heavier than `budget` bytes is written to a framed temporary
/// segment and dropped; the light outputs merge in memory first, then each
/// spilled segment is digest-verified, decoded with one bulk build and
/// absorbed into the accumulator, one segment at a time.  Rows live in a
/// set, so the split/merge schedule cannot change the result — spilled ≡
/// resident, bit for bit.
pub(crate) fn merge_spilling(outs: Vec<URelation>, budget: usize) -> Result<URelation> {
    if budget == 0 {
        return Ok(crate::ops::merge_chunks(outs));
    }
    let mut spilled = SpillFiles(Vec::with_capacity(outs.len()));
    let mut merged: Option<URelation> = None;
    for out in outs {
        if !out.is_empty() && out.approx_bytes() > budget {
            let mut payload = Vec::new();
            segment::put_relation(&mut payload, &out);
            drop(out);
            let path = spill_path();
            std::fs::write(&path, frame(&payload))
                .map_err(|e| io_err(&path, "writing spill segment", e))?;
            spilled.0.push(path);
        } else {
            match merged.as_mut() {
                None => merged = Some(out),
                Some(m) => m.absorb(out),
            }
        }
    }
    for path in std::mem::take(&mut spilled.0) {
        let payload = read_segment(&path)?;
        let _ = std::fs::remove_file(&path);
        let mut cur = SegmentCursor::new(&payload);
        let out = cur
            .take_relation()
            .map_err(|e| corrupt(format!("{}: {e}", path.display())))?;
        if !cur.is_exhausted() {
            return Err(corrupt(format!("{}: trailing bytes", path.display())));
        }
        match merged.as_mut() {
            None => merged = Some(out),
            Some(m) => m.absorb(out),
        }
    }
    Ok(merged.expect("partition yields at least one chunk"))
}

// ---------------------------------------------------------------------------
// Checkpoint payload codecs (engine-level composition over urel::segment)
// ---------------------------------------------------------------------------

fn put_string_set(out: &mut Vec<u8>, set: &BTreeSet<String>) {
    segment::put_u32(out, set.len() as u32);
    for s in set {
        segment::put_str(out, s);
    }
}

fn take_string_set(cur: &mut SegmentCursor<'_>) -> urel::Result<BTreeSet<String>> {
    let count = cur.take_u32()? as usize;
    let mut set = BTreeSet::new();
    for _ in 0..count {
        set.insert(cur.take_str()?);
    }
    Ok(set)
}

/// One decoded warm pool entry: everything needed to re-seed a
/// deterministic-prefix snapshot for `creator` without re-evaluating it,
/// given the checkpoint's database.
pub(crate) struct WarmEntry {
    /// Normalized text of the query whose evaluation created the entry.
    pub creator: String,
    /// `config_digest` of the serving configuration the entry was pooled
    /// under; restores with a different configuration skip the entry.
    pub config_digest: u64,
    /// Variable counter after the prefix ran (repair-key allocations).
    pub var_counter: u64,
    /// Evaluation statistics after the prefix ran.
    pub stats: EvalStats,
    /// The W-table variables the prefix's repair-key operators introduced
    /// (decoded through [`WTable::add_variable`], so distributions are
    /// valid; the restore checks them against the base W-table).
    pub introduced: WTable,
    /// Pooled sub-results: subplan digest, input footprint, value.
    pub slots: Vec<Slot>,
}

/// One persisted sub-plan result: its subplan digest, the base relations
/// it reads (its footprint), and its value.
pub(crate) type Slot = ((u64, u64), BTreeSet<String>, EvaluatedRelation);

/// Encodes a list of sub-plan results (a warm entry's slots, or the store).
pub(crate) fn put_slots(out: &mut Vec<u8>, slots: &[Slot]) {
    segment::put_u32(out, slots.len() as u32);
    for ((d1, d2), footprint, value) in slots {
        segment::put_u64(out, *d1);
        segment::put_u64(out, *d2);
        put_string_set(out, footprint);
        segment::put_relation(out, &value.relation);
        segment::put_u8(out, u8::from(value.complete));
        segment::put_u32(out, value.errors.len() as u32);
        for (tuple, err) in &value.errors {
            segment::put_tuple(out, tuple);
            segment::put_f64(out, *err);
        }
    }
}

/// Decodes a list of sub-plan results written by [`put_slots`].
pub(crate) fn take_slots(cur: &mut SegmentCursor<'_>) -> urel::Result<Vec<Slot>> {
    let slot_count = cur.take_u32()? as usize;
    let mut slots = Vec::with_capacity(slot_count.min(1024));
    for _ in 0..slot_count {
        let d1 = cur.take_u64()?;
        let d2 = cur.take_u64()?;
        let footprint = take_string_set(cur)?;
        let relation = cur.take_relation()?;
        let complete = cur.take_u8()? != 0;
        let err_count = cur.take_u32()? as usize;
        let mut errors = std::collections::BTreeMap::new();
        for _ in 0..err_count {
            let tuple = cur.take_tuple()?;
            let err = cur.take_f64()?;
            errors.insert(tuple, err);
        }
        let value = EvaluatedRelation {
            relation,
            complete,
            errors,
        };
        slots.push(((d1, d2), footprint, value));
    }
    Ok(slots)
}

/// Encodes a warm pool entry.
pub(crate) fn put_warm(out: &mut Vec<u8>, warm: &WarmEntry) {
    segment::put_str(out, &warm.creator);
    segment::put_u64(out, warm.config_digest);
    segment::put_u64(out, warm.var_counter);
    for n in [
        warm.stats.karp_luby_samples,
        warm.stats.exact_confidence_calls,
        warm.stats.conf_operators,
        warm.stats.approx_select_operators,
        warm.stats.approx_select_decisions,
        warm.stats.approx_select_pruned,
        warm.stats.exact_compiled_answers,
        warm.stats.sampled_answers,
        warm.stats.shared_block_hits,
    ] {
        segment::put_u64(out, n);
    }
    segment::put_wtable(out, &warm.introduced);
    put_slots(out, &warm.slots);
}

/// Decodes a warm pool entry.
pub(crate) fn take_warm(cur: &mut SegmentCursor<'_>) -> urel::Result<WarmEntry> {
    let creator = cur.take_str()?;
    let config_digest = cur.take_u64()?;
    let var_counter = cur.take_u64()?;
    let stats = EvalStats {
        karp_luby_samples: cur.take_u64()?,
        exact_confidence_calls: cur.take_u64()?,
        conf_operators: cur.take_u64()?,
        approx_select_operators: cur.take_u64()?,
        approx_select_decisions: cur.take_u64()?,
        approx_select_pruned: cur.take_u64()?,
        exact_compiled_answers: cur.take_u64()?,
        sampled_answers: cur.take_u64()?,
        shared_block_hits: cur.take_u64()?,
    };
    let introduced = cur.take_wtable()?;
    let slots = take_slots(cur)?;
    Ok(WarmEntry {
        creator,
        config_digest,
        var_counter,
        stats,
        introduced,
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{schema, tuple};
    use urel::{Condition, UDatabase, Var};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uadb-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db() -> UDatabase {
        let mut db = UDatabase::new();
        db.add_variable(
            Var::new("c"),
            [
                (pdb::Value::str("fair"), 2.0 / 3.0),
                (pdb::Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        let mut r = URelation::empty(schema!["CoinType"]);
        r.insert(
            Condition::new([(Var::new("c"), pdb::Value::str("fair"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        r.insert(
            Condition::new([(Var::new("c"), pdb::Value::str("2headed"))]).unwrap(),
            tuple!["2headed"],
        )
        .unwrap();
        db.set_relation("R", r, false);
        db
    }

    #[test]
    fn frame_round_trips_and_rejects_every_flipped_byte_class() {
        let dir = tmp_dir("frame");
        let payload = b"the quick brown segment".to_vec();
        let entry = write_segment_file(&dir, "a.seg", &payload).unwrap();
        assert_eq!(read_verified(&dir, &entry).unwrap(), payload);

        // Flip one byte at every offset: header or payload, the read must
        // fail with a classified storage error.
        let path = dir.join("a.seg");
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            match read_segment(&path) {
                Err(EngineError::Storage(_)) => {}
                other => panic!("flipped byte {i} not rejected: {other:?}"),
            }
        }
        // Truncation at every length is rejected too.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(matches!(read_segment(&path), Err(EngineError::Storage(_))));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_cross_check_catches_swapped_segments() {
        let dir = tmp_dir("swap");
        let a = write_segment_file(&dir, "a.seg", b"first payload").unwrap();
        let b = write_segment_file(&dir, "b.seg", b"second payload!").unwrap();
        write_manifest(&dir, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), vec![a.clone(), b.clone()]);

        // Swap the two (individually self-consistent) files on disk: the
        // per-file frames still verify, but the manifest cross-check fails.
        let fa = std::fs::read(dir.join("a.seg")).unwrap();
        let fb = std::fs::read(dir.join("b.seg")).unwrap();
        std::fs::write(dir.join("a.seg"), &fb).unwrap();
        std::fs::write(dir.join("b.seg"), &fa).unwrap();
        assert!(matches!(
            read_verified(&dir, &a),
            Err(EngineError::Storage(_))
        ));
        // A missing segment file is a storage error, not a panic.
        std::fs::remove_file(dir.join("b.seg")).unwrap();
        assert!(matches!(
            read_verified(&dir, &b),
            Err(EngineError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_spilling_matches_merge_chunks_bit_for_bit() {
        let mut u = URelation::empty(schema!["A", "B"]);
        for i in 0..200i64 {
            u.insert(
                Condition::new([(Var::new(format!("x{}", i % 7)), pdb::Value::Int(i % 3))])
                    .unwrap(),
                tuple![i, format!("payload-{i}-{}", "p".repeat((i % 40) as usize))],
            )
            .unwrap();
        }
        for chunks in [1usize, 3, 8] {
            let resident = crate::ops::merge_chunks(u.partition(chunks));
            // A tiny budget forces every non-trivial chunk through disk.
            let spilled = merge_spilling(u.partition(chunks), 64).unwrap();
            assert_eq!(spilled, resident);
            assert_eq!(spilled.content_digest(), u.content_digest());
            // A huge budget keeps everything resident.
            let unspilled = merge_spilling(u.partition(chunks), usize::MAX).unwrap();
            assert_eq!(unspilled, resident);
        }
    }

    #[test]
    fn warm_entry_round_trips() {
        let db = sample_db();
        let warm = WarmEntry {
            creator: "conf(R)".into(),
            config_digest: 0xABCD,
            var_counter: 3,
            stats: EvalStats {
                karp_luby_samples: 10,
                exact_confidence_calls: 2,
                conf_operators: 1,
                approx_select_operators: 0,
                approx_select_decisions: 4,
                approx_select_pruned: 1,
                exact_compiled_answers: 3,
                sampled_answers: 5,
                shared_block_hits: 2,
            },
            introduced: db.wtable().clone(),
            slots: vec![(
                (7, 9),
                BTreeSet::from(["R".to_owned(), "S".to_owned()]),
                EvaluatedRelation {
                    relation: db.relation("R").unwrap().clone(),
                    complete: false,
                    errors: std::collections::BTreeMap::from([(tuple!["fair"], 0.125)]),
                },
            )],
        };
        let mut payload = Vec::new();
        put_warm(&mut payload, &warm);
        let mut cur = SegmentCursor::new(&payload);
        let back = take_warm(&mut cur).unwrap();
        assert!(cur.is_exhausted());
        assert_eq!(back.creator, warm.creator);
        assert_eq!(back.config_digest, warm.config_digest);
        assert_eq!(back.var_counter, warm.var_counter);
        assert_eq!(back.stats, warm.stats);
        assert_eq!(back.introduced, warm.introduced);
        assert_eq!(back.slots.len(), 1);
        let ((d1, d2), footprint, value) = &back.slots[0];
        assert_eq!((*d1, *d2), (7, 9));
        assert_eq!(footprint, &warm.slots[0].1);
        assert_eq!(value.relation, warm.slots[0].2.relation);
        assert_eq!(value.complete, warm.slots[0].2.complete);
        assert_eq!(value.errors, warm.slots[0].2.errors);
        // Tampered payloads are rejected, not mis-decoded.
        let mut cur = SegmentCursor::new(&payload[..payload.len() - 1]);
        assert!(take_warm(&mut cur).is_err());
    }
}
