//! Content-addressed campaign result cache.
//!
//! A campaign cell is fully determined by its resolved [`Scenario`] value
//! (which embeds the seed and safety filter): re-running it reproduces the
//! same [`RunRecord`] byte for byte — that determinism is what the golden
//! suite pins.  [`ResultCache`] exploits it: records are stored under a
//! [`ScenarioFingerprint`] content hash of the resolved spec, so repeated
//! campaign requests (the daemon's bread and butter: the same comparison
//! matrix re-swept after an unrelated change) answer from memory instead
//! of re-simulating.
//!
//! # Content addressing and invalidation
//!
//! The fingerprint is FNV-1a over the **fully-resolved spec fields** plus
//! an engine-version salt ([`ENGINE_VERSION`]):
//!
//! * Editing any spec field — a workspace bound, the seed, the filter, a
//!   jitter window — changes the hash, so stale entries are unreachable
//!   rather than invalidated by bookkeeping.
//! * [`ENGINE_VERSION`] is a hash of the committed golden corpus, so the
//!   change that re-blesses goldens (executor, physics or record semantics
//!   changed behaviour) orphans every old entry at once.
//! * The catalog is *not* consulted: a scenario hashed today and the same
//!   scenario reconstructed from a request tomorrow produce the same key,
//!   whether or not a catalog entry still points at them.  The `name`
//!   field does participate — not as a registry key, but because the run
//!   digest folds the name into the trace hash, so a renamed alias of an
//!   identical spec legitimately produces different record *bytes* and
//!   must not share an entry.
//!
//! # Storage
//!
//! In memory the cache is a bounded LRU whose slots hold each record as an
//! [`EncodedRecord`]: the record and its golden text, encoded once when the
//! record enters the cache.  That text is what the segment writes and what
//! every later response copies, so a hit never encodes.  A record that
//! replaces a different one under the same fingerprint replaces its text
//! too.
//!
//! Optionally the cache is backed by an append-only on-disk **segment**:
//! each insert appends the slot's text as one record frame under a
//! `CACHE <fingerprint>` header ([`write_encoded_frame`]) in a single
//! write, and a daemon restart replays the segment through [`read_frame`]
//! to start warm.  A replayed record is re-encoded from its parsed fields,
//! never kept as the file's bytes: the strict reader accepts reordered
//! keys, padded values and upper-case hex, which a cold run never sends.
//! Loading is tolerant exactly where appending can tear: a torn final
//! entry truncates the tail, and a corrupt entry in the middle (bit rot, a
//! non-UTF-8 byte, hand edits) costs that entry only — it is skipped and
//! loading resyncs at the next header.

use crate::campaign::RunRecord;
use crate::golden::{read_frame, write_encoded_frame, EncodedRecord, FrameError};
use crate::spec::Scenario;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The engine-version salt folded into every fingerprint: a hash of the
/// committed golden corpus (`tests/golden/*.golden`), computed by the
/// crate's build script.  A behaviour-affecting engine change (executor
/// scheduling, plant physics, oracle semantics, record fields) makes
/// cached records stale for unchanged specs; the golden suite catches
/// exactly these changes, and re-blessing it changes this salt, so every
/// old entry is orphaned without a hand-bumped version.
pub const ENGINE_VERSION: u64 = include!(concat!(env!("OUT_DIR"), "/engine_version.rs"));

/// Content hash of one fully-resolved campaign cell (spec, seed, filter
/// and engine salt).  Display renders the `{:#018x}` form used by the
/// disk segment and hit/miss reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioFingerprint(pub u64);

impl fmt::Display for ScenarioFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// Fingerprints a scenario under the current [`ENGINE_VERSION`].
pub fn scenario_fingerprint(scenario: &Scenario) -> ScenarioFingerprint {
    fingerprint_with_salt(scenario, ENGINE_VERSION)
}

/// Fingerprints a scenario under an explicit engine salt — exposed so
/// tests can prove a salt bump misses; production code uses
/// [`scenario_fingerprint`].
///
/// The scenario's `Debug` rendering is streamed straight into the FNV-1a
/// state, piece by piece as the formatter emits it, so no `String` is
/// built; the hashed bytes and their order are exactly those of the
/// rendered text.
pub fn fingerprint_with_salt(scenario: &Scenario, salt: u64) -> ScenarioFingerprint {
    // The `Debug` rendering is the resolved-field serialisation: it covers
    // every spec field (floats in shortest-round-trip form, so distinct
    // values never collide textually) and changes whenever a field is
    // added — new axes invalidate old entries instead of aliasing them.
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    fmt::write(&mut h, format_args!("{scenario:?}")).expect("hashing never fails to write");
    h.fold(&salt.to_le_bytes());
    ScenarioFingerprint(h.0)
}

/// FNV-1a state fed by `fmt::Write`, so a `Debug` rendering can be hashed
/// without materialising it.
struct Fnv1a(u64);

impl Fnv1a {
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fold(s.as_bytes());
        Ok(())
    }
}

struct Slot {
    entry: Arc<EncodedRecord>,
    stamp: u64,
}

/// The LRU index.  A hit or a re-insert only writes the slot's new stamp;
/// `order` is edited by new inserts and evictions alone.  Every live slot
/// has exactly one `order` entry, keyed no later than the slot's stamp, so
/// eviction pops the oldest entry and, when its slot has been stamped
/// since, re-queues it at its current stamp and pops again: still exact
/// LRU, since the first entry whose key equals its slot's stamp holds the
/// oldest stamp of all.
struct LruInner {
    map: HashMap<u64, Slot>,
    /// `stamp -> fingerprint`, oldest first; stamps are unique (a single
    /// monotonically-increasing clock).
    order: BTreeMap<u64, u64>,
    clock: u64,
}

/// How a segment load went; see [`ResultCache::segment_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Entries loaded into the LRU.
    pub loaded: usize,
    /// Corrupt mid-segment entries skipped (strict-parser rejects).
    pub skipped: usize,
    /// Whether a torn final entry was truncated away.
    pub truncated: bool,
}

/// A bounded, optionally disk-backed result cache (see the module docs).
/// Shared by `Arc`: all methods take `&self`.
pub struct ResultCache {
    inner: Mutex<LruInner>,
    segment: Mutex<Option<File>>,
    segment_path: Option<PathBuf>,
    segment_stats: SegmentStats,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("segment", &self.segment_path)
            .finish()
    }
}

impl ResultCache {
    /// An in-memory cache holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
            }),
            segment: Mutex::new(None),
            segment_path: None,
            segment_stats: SegmentStats::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache backed by the append-only segment at `path`: existing
    /// entries are replayed into the LRU (tolerantly — see the module
    /// docs), a torn tail is truncated in place, and every future insert
    /// is appended.  Errors are real I/O failures (unreadable file,
    /// uncreatable parent), never corrupt content.
    pub fn with_segment(capacity: usize, path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut cache = ResultCache::new(capacity);
        if path.exists() {
            if let Some(keep) = cache.load_segment(&std::fs::read(&path)?) {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(keep as u64)?;
            }
        } else if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        cache.segment = Mutex::new(Some(file));
        cache.segment_path = Some(path);
        Ok(cache)
    }

    /// Replays a segment's entries into the LRU and records how that went
    /// in `segment_stats`; returns the offset to truncate the file to if
    /// its tail entry is torn.
    fn load_segment(&mut self, bytes: &[u8]) -> Option<usize> {
        let mut pos = 0;
        // Inside a run of lines that are not entry headers (junk, or the
        // body of an entry whose header was corrupt): one skip per run.
        let mut resyncing = false;
        while pos < bytes.len() {
            let entry_start = pos;
            // A trailing fragment with no newline is a torn write.
            let Some(len) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                self.segment_stats.truncated = true;
                return Some(entry_start);
            };
            let header = &bytes[pos..pos + len];
            pos += len + 1;
            let Some(fingerprint) = header
                .strip_prefix(b"CACHE 0x")
                .and_then(|hex| std::str::from_utf8(hex).ok())
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            else {
                self.segment_stats.skipped += usize::from(!resyncing);
                resyncing = true;
                continue;
            };
            resyncing = false;
            let (consumed, frame) = read_frame(&mut &bytes[pos..]);
            pos += consumed;
            match frame {
                Ok(record) => {
                    self.insert_in_memory(fingerprint, Arc::new(EncodedRecord::new(record)));
                    self.segment_stats.loaded += 1;
                }
                Err(FrameError::Corrupt(_)) => self.segment_stats.skipped += 1,
                Err(FrameError::Torn) => {
                    self.segment_stats.truncated = true;
                    return Some(entry_start);
                }
            }
        }
        None
    }

    /// Records answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (and presumably went on to simulate).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records currently held in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache lock").map.len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the segment load went (all zeros for an in-memory cache).
    pub fn segment_stats(&self) -> SegmentStats {
        self.segment_stats
    }

    /// Looks up a record.  Hit and miss counters feed campaign reports;
    /// a hit also refreshes the entry's LRU position.
    pub fn lookup(&self, fingerprint: ScenarioFingerprint) -> Option<RunRecord> {
        self.lookup_if(fingerprint, |_| true)
            .map(|entry| entry.record().clone())
    }

    /// Looks up the record of the campaign job named `name` at `seed`
    /// (whose fingerprint the caller computed once and reuses for the
    /// insert on a miss), sharing the slot's encoding: a hit clones an
    /// `Arc`, not the record.  An entry whose record names another
    /// scenario or seed — a fingerprint collision or a corrupted segment
    /// entry — counts as a miss, so the job re-runs and its
    /// [`insert`](Self::insert) overwrites the entry.
    pub fn lookup_job(
        &self,
        fingerprint: ScenarioFingerprint,
        name: &str,
        seed: u64,
    ) -> Option<Arc<EncodedRecord>> {
        self.lookup_if(fingerprint, |record| {
            record.scenario == name && record.seed == seed
        })
    }

    fn lookup_if(
        &self,
        fingerprint: ScenarioFingerprint,
        accept: impl FnOnce(&RunRecord) -> bool,
    ) -> Option<Arc<EncodedRecord>> {
        let mut inner = self.inner.lock().expect("result cache lock");
        let LruInner { map, clock, .. } = &mut *inner;
        match map.get_mut(&fingerprint.0) {
            Some(slot) if accept(slot.entry.record()) => {
                *clock += 1;
                slot.stamp = *clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly-computed record, appending it to the segment if
    /// one is attached.  Re-inserting an existing fingerprint with the same
    /// record refreshes its LRU position without duplicating the disk
    /// entry; a different record overwrites the entry (and is appended, so
    /// a segment replay ends on the newer record too).
    pub fn insert(&self, fingerprint: ScenarioFingerprint, record: &RunRecord) {
        self.insert_encoded(fingerprint, Arc::new(EncodedRecord::new(record.clone())));
    }

    /// [`insert`](Self::insert) of a record its caller already encoded:
    /// the slot keeps this encoding and the segment append copies its text.
    pub fn insert_encoded(&self, fingerprint: ScenarioFingerprint, entry: Arc<EncodedRecord>) {
        if !self.insert_in_memory(fingerprint.0, Arc::clone(&entry)) {
            return;
        }
        let mut segment = self.segment.lock().expect("result cache segment lock");
        if let Some(file) = segment.as_mut() {
            // One write per entry: a crash mid-write tears at most the
            // final entry, which the loader truncates away.
            let mut framed = String::new();
            write_encoded_frame(&mut framed, format_args!("CACHE {fingerprint}"), &entry);
            let _ = file.write_all(framed.as_bytes());
            let _ = file.flush();
        }
    }

    /// Returns whether the entry changed (a new fingerprint, or a record
    /// replacing a different one, text and all).
    fn insert_in_memory(&self, fingerprint: u64, entry: Arc<EncodedRecord>) -> bool {
        let mut inner = self.inner.lock().expect("result cache lock");
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.entry(fingerprint) {
            Entry::Occupied(live) => {
                let slot = live.into_mut();
                slot.stamp = stamp;
                let changed = slot.entry.record() != entry.record();
                if changed {
                    slot.entry = entry;
                }
                return changed;
            }
            Entry::Vacant(vacant) => {
                vacant.insert(Slot { entry, stamp });
            }
        }
        inner.order.insert(stamp, fingerprint);
        while inner.map.len() > self.capacity {
            let (queued, victim) = inner
                .order
                .pop_first()
                .expect("order tracks every map entry");
            let current = inner.map[&victim].stamp;
            if current == queued {
                inner.map.remove(&victim);
            } else {
                inner.order.insert(current, victim);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::golden::record_to_text;

    fn record(name: &str, seed: u64) -> RunRecord {
        RunRecord {
            scenario: name.to_string(),
            seed,
            digest: 0xabcd_0000 + seed,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: 2,
            targets_reached: 3,
            completed: true,
            interventions: 1,
            time_in_sc_ms: 1500,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let base = catalog::golden_suite()
            .into_iter()
            .next()
            .expect("the golden suite is never empty");
        let fp = scenario_fingerprint(&base);
        assert_eq!(fp, scenario_fingerprint(&base.clone()), "deterministic");

        // Every one-field edit must miss: the cache may never serve a
        // record computed under different physics, seed or filter.
        let edits: Vec<(&str, Scenario)> = vec![
            ("seed", base.clone().with_seed(base.seed + 1)),
            ("horizon", {
                let mut s = base.clone();
                s.horizon += 1.0;
                s
            }),
            ("initial_battery", {
                let mut s = base.clone();
                s.initial_battery *= 0.5;
                s
            }),
            ("buggy_planner", {
                let mut s = base.clone();
                s.buggy_planner = !s.buggy_planner;
                s
            }),
        ];
        for (what, edited) in edits {
            assert_ne!(
                fp,
                scenario_fingerprint(&edited),
                "editing `{what}` must change the fingerprint"
            );
        }

        // A salt change orphans every entry.
        assert_ne!(
            fingerprint_with_salt(&base, ENGINE_VERSION),
            fingerprint_with_salt(&base, ENGINE_VERSION ^ 1)
        );
        assert_eq!(fp, fingerprint_with_salt(&base, ENGINE_VERSION));
    }

    /// Literals computed by the original `format!`-then-hash fingerprint
    /// under salt 1: the streamed hash must reproduce them bit for bit.
    /// Streamed bytes equal formatted bytes whatever the salt, so the
    /// literals pin salt 1 rather than the corpus-derived [`ENGINE_VERSION`].
    #[test]
    fn fingerprints_match_pinned_literals() {
        let fig12b = catalog::find("fig12b-surveillance").expect("in the registry");
        let vm = catalog::find("vm-surveillance").expect("in the registry");
        assert!(
            format!("{vm:?}").contains("\\n"),
            "the vm spec's Debug rendering carries the escaped asm text"
        );
        for (scenario, pinned) in [
            (fig12b.clone().with_seed(7), 0x8ba2_81b9_18d0_8f76),
            (fig12b.with_seed(9), 0x1bed_d96d_407c_d328),
            (vm, 0x62c4_02a8_a8bc_8c12),
        ] {
            assert_eq!(
                fingerprint_with_salt(&scenario, 1),
                ScenarioFingerprint(pinned),
                "{} seed {}",
                scenario.name,
                scenario.seed
            );
        }
    }

    /// The baked-in salt is the hash of the corpus as it is now: a stale
    /// build (the corpus changed, the constant did not) fails here.
    #[test]
    fn engine_version_is_the_hash_of_the_golden_corpus() {
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let hash = crate::salt::corpus_hash(&corpus).expect("the golden corpus hashes");
        assert_eq!(ENGINE_VERSION, hash);
        let empty = std::env::temp_dir().join(format!("soter-empty-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&empty).expect("create empty corpus");
        assert!(crate::salt::corpus_hash(&empty).is_err(), "empty corpus");
        assert!(crate::salt::corpus_hash(&empty.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let cache = ResultCache::new(2);
        let fps: Vec<_> = (0..3).map(ScenarioFingerprint).collect();
        cache.insert(fps[0], &record("a", 0));
        cache.insert(fps[1], &record("b", 1));
        // Touch the older entry so the *other* one is evicted.
        assert!(cache.lookup(fps[0]).is_some());
        cache.insert(fps[2], &record("c", 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fps[0]).is_some(), "refreshed entry survives");
        assert!(cache.lookup(fps[1]).is_none(), "LRU victim evicted");
        assert!(cache.lookup(fps[2]).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    /// Recency-ordered reference LRU: least recent first.
    struct ModelLru {
        capacity: usize,
        slots: Vec<(u64, RunRecord)>,
    }

    impl ModelLru {
        fn position(&self, fingerprint: u64) -> Option<usize> {
            self.slots.iter().position(|(fp, _)| *fp == fingerprint)
        }

        fn lookup(&mut self, fingerprint: u64) -> Option<RunRecord> {
            let slot = self.slots.remove(self.position(fingerprint)?);
            self.slots.push(slot.clone());
            Some(slot.1)
        }

        /// Whether the insert changes the cache's content (and so appends
        /// to its segment).
        fn insert(&mut self, fingerprint: u64, record: RunRecord) -> bool {
            let old = self.position(fingerprint).map(|i| self.slots.remove(i));
            let changed = old.is_none_or(|(_, old)| old != record);
            self.slots.push((fingerprint, record));
            if self.slots.len() > self.capacity {
                self.slots.remove(0);
            }
            changed
        }

        fn fingerprints(&self) -> Vec<u64> {
            let mut fps: Vec<u64> = self.slots.iter().map(|(fp, _)| *fp).collect();
            fps.sort_unstable();
            fps
        }
    }

    fn live_fingerprints(cache: &ResultCache) -> Vec<u64> {
        let mut fps: Vec<u64> = cache.inner.lock().unwrap().map.keys().copied().collect();
        fps.sort_unstable();
        fps
    }

    /// Seeded random inserts, re-inserts (same and changed record) and
    /// lookups against the reference LRU, at every capacity 1–8: hits,
    /// records and survivors agree after every operation, so the lazy
    /// re-queue of stale `order` entries evicts exactly the LRU victim.
    /// The segment then replays more entries than the capacity into a
    /// fresh cache, which must keep the reference's survivors too.
    #[test]
    fn lru_matches_a_recency_ordered_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "lru-model"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for capacity in 1..=8usize {
            let path = dir.join(format!("results-{capacity}.seg"));
            let cache = ResultCache::with_segment(capacity, &path).expect("create segment");
            let mut model = ModelLru {
                capacity,
                slots: Vec::new(),
            };
            let mut appended = Vec::new();
            let mut rng = SmallRng::seed_from_u64(capacity as u64);
            let universe = 2 * capacity as u64 + 2;
            for step in 0..600 {
                let fp = rng.random_range(0..universe);
                match rng.random_range(0..3u32) {
                    0 => {
                        let got = cache.lookup(ScenarioFingerprint(fp));
                        assert_eq!(got, model.lookup(fp), "cap {capacity} step {step}");
                    }
                    op => {
                        // Op 1 re-inserts the fingerprint's usual record,
                        // op 2 a changed one.
                        let rec = record(&format!("s{fp}"), fp + u64::from(op == 2) * step);
                        cache.insert(ScenarioFingerprint(fp), &rec);
                        if model.insert(fp, rec.clone()) {
                            appended.push((fp, rec));
                        }
                    }
                }
                assert_eq!(
                    live_fingerprints(&cache),
                    model.fingerprints(),
                    "cap {capacity} step {step}"
                );
            }
            assert!(appended.len() > capacity);
            let reborn = ResultCache::with_segment(capacity, &path).expect("reload segment");
            assert_eq!(reborn.segment_stats().loaded, appended.len());
            let mut replayed = ModelLru {
                capacity,
                slots: Vec::new(),
            };
            for (fp, rec) in appended {
                replayed.insert(fp, rec);
            }
            assert_eq!(live_fingerprints(&reborn), replayed.fingerprints());
            for (fp, rec) in &replayed.slots {
                assert_eq!(reborn.lookup(ScenarioFingerprint(*fp)).as_ref(), Some(rec));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_for_another_job_misses_and_is_overwritten_on_disk_too() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "identity"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        let job = catalog::find("serve-smoke").expect("in the registry");
        let fp = scenario_fingerprint(&job);
        let right = record(&job.name, job.seed);
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(fp, &record("other", job.seed));
            assert_eq!(
                cache.lookup_job(fp, &job.name, job.seed),
                None,
                "wrong name"
            );
            cache.insert(fp, &record(&job.name, job.seed + 1));
            assert_eq!(
                cache.lookup_job(fp, &job.name, job.seed),
                None,
                "wrong seed"
            );
            assert_eq!((cache.hits(), cache.misses()), (0, 2));
            cache.insert(fp, &right);
            assert_eq!(
                cache.lookup_job(fp, &job.name, job.seed).as_deref(),
                Some(&EncodedRecord::new(right.clone()))
            );
            assert_eq!(cache.len(), 1);
        }
        let reborn = ResultCache::with_segment(16, &path).expect("reload segment");
        assert_eq!(
            reborn.lookup_job(fp, &job.name, job.seed).as_deref(),
            Some(&EncodedRecord::new(right)),
            "replay ends on the overwrite"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Overwriting a fingerprint with a different record replaces the
    /// slot's text with the new record's; the stale text is never served,
    /// from memory or from a replayed segment.
    #[test]
    fn an_overwrite_serves_the_new_records_text() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "overwrite"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        let fp = ScenarioFingerprint(0x77);
        let old = record("fig12b", 7);
        let new = RunRecord {
            digest: 0xfeed,
            mode_switches: 9,
            ..old.clone()
        };
        let text = |cache: &ResultCache| {
            let entry = cache.lookup_job(fp, "fig12b", 7).expect("a hit");
            entry.text().to_string()
        };
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(fp, &old);
            assert_eq!(text(&cache), record_to_text(&old));
            cache.insert(fp, &new);
            assert_eq!(text(&cache), record_to_text(&new));
            assert_ne!(text(&cache), record_to_text(&old));
        }
        let reborn = ResultCache::with_segment(16, &path).expect("reload segment");
        assert_eq!(text(&reborn), record_to_text(&new));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hand-written entry with reordered keys, padded values and
    /// upper-case hex loads, and the slot holds the canonical text of
    /// what it parses to, not the file's bytes.
    #[test]
    fn a_non_canonical_segment_entry_is_re_encoded_on_load() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "canonical"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        let canonical = record("fig12b", 7);
        let mangled = "CACHE 0x00000000000000AB\n\
                       time_in_sc_ms =   1500\n\
                       seed = 7\n\
                       digest = 0x00000000ABCD0007  \n\
                       scenario =fig12b\n\
                       completed = true\n\
                       safety_violations = 0\n\
                       separation_violations = 0\n\
                       invariant_violations = 0\n\
                       mode_switches = 2\n\
                       targets_reached = 3\n\
                       interventions = 1\n\
                       END\n";
        std::fs::create_dir_all(&dir).expect("create dir");
        std::fs::write(&path, mangled).expect("write segment");
        let cache = ResultCache::with_segment(16, &path).expect("load segment");
        assert_eq!(cache.segment_stats().loaded, 1);
        let entry = cache
            .lookup_job(ScenarioFingerprint(0xab), "fig12b", 7)
            .expect("the mangled entry loads");
        assert_eq!(entry.record(), &canonical);
        assert_eq!(entry.text(), record_to_text(&canonical));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_round_trips_and_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "round-trip"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        let fp = ScenarioFingerprint(0x1234_5678_9abc_def0);
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(fp, &record("fig12b", 7));
            cache.insert(fp, &record("fig12b", 7)); // refresh, no duplicate
        }
        let reborn = ResultCache::with_segment(16, &path).expect("reload segment");
        assert_eq!(
            reborn.segment_stats(),
            SegmentStats {
                loaded: 1,
                skipped: 0,
                truncated: false
            }
        );
        assert_eq!(reborn.lookup(fp), Some(record("fig12b", 7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_torn_segment_entries_are_skipped_and_truncated() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "corrupt"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            for i in 0..3u64 {
                cache.insert(ScenarioFingerprint(i), &record(&format!("s{i}"), i));
            }
        }
        // Corrupt the middle entry's digest line and tear a fourth entry's
        // tail, exactly what bit rot and a crash mid-append produce.
        let text = std::fs::read_to_string(&path).expect("read segment");
        let corrupted = text.replacen("digest = 0x00000000abcd0001", "digest = GARBAGE", 1)
            + "CACHE 0x0000000000000009\nscenario = torn\nseed = 9\n";
        std::fs::write(&path, &corrupted).expect("rewrite segment");

        let reborn = ResultCache::with_segment(16, &path).expect("tolerant reload");
        assert_eq!(
            reborn.segment_stats(),
            SegmentStats {
                loaded: 2,
                skipped: 1,
                truncated: true
            }
        );
        assert_eq!(reborn.lookup(ScenarioFingerprint(0)), Some(record("s0", 0)));
        assert!(reborn.lookup(ScenarioFingerprint(1)).is_none(), "corrupt");
        assert_eq!(reborn.lookup(ScenarioFingerprint(2)), Some(record("s2", 2)));
        // The torn tail is gone from disk, and appending still works.
        let after = std::fs::read_to_string(&path).expect("read truncated");
        assert!(!after.contains("torn"));
        reborn.insert(ScenarioFingerprint(9), &record("fresh", 9));
        let again = ResultCache::with_segment(16, &path).expect("reload after append");
        assert_eq!(again.segment_stats().loaded, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn junk_between_entries_resyncs_at_the_next_header() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "resync"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(ScenarioFingerprint(1), &record("a", 1));
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.insert_str(0, "not a header\nstill junk\n");
        std::fs::write(&path, &text).expect("rewrite");
        let reborn = ResultCache::with_segment(16, &path).expect("reload");
        assert_eq!(reborn.segment_stats().loaded, 1);
        assert_eq!(reborn.segment_stats().skipped, 1);
        assert_eq!(reborn.lookup(ScenarioFingerprint(1)), Some(record("a", 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
