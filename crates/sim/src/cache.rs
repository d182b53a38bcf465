//! The shared on-disk result cache behind `--cache`: one CRC32-framed
//! [`JournalEntry`] per file, content-addressed by
//! `(workload, trace_len, config-fingerprint)` and written atomically
//! ([`crate::persist::write_atomic`]).
//!
//! The harness consults it before any dispatch — in-process, worker pipe,
//! or fleet — so an identical cell simulates exactly once across every
//! process sharing the directory; corrupt entries are skipped, counted,
//! and quarantined, never trusted.

use std::io;
use std::path::{Path, PathBuf};

use fdip::SimStats;
use fdip_types::ToJson;

use crate::journal::{crc32, split_crc_frame, JournalEntry};

/// What a [`ResultCache`] scan found, reported at attach time (the
/// `journal restored ...`-style startup line).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Valid entries present.
    pub entries: usize,
    /// Files whose CRC frame or schema did not verify (bit rot), skipped.
    pub corrupt: usize,
}

/// One [`ResultCache`] lookup's outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum CacheLookup {
    /// The cell's finished statistics, verified end to end.
    Hit(Box<SimStats>),
    /// No entry for this cell.
    Miss,
    /// An entry exists but failed its CRC, schema, or key check — skipped
    /// and counted, never trusted.
    Corrupt,
}

/// The cluster-wide content-addressed result cache: one atomically
/// written, CRC32-framed [`JournalEntry`] file per completed cell, keyed
/// by `(workload, trace_len, config-fingerprint)`. Consulted before any
/// dispatch; shared safely between concurrent processes because entries
/// are immutable for a given key (the simulator is deterministic) and
/// writes go through rename.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// Where this cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, workload: &str, trace_len: usize, fingerprint: &str) -> PathBuf {
        let key = crate::fault::fnv1a(&format!("{workload}\u{0}{trace_len}\u{0}{fingerprint}"));
        self.dir.join(format!("{key:016x}.cell"))
    }

    fn decode(contents: &str) -> Option<JournalEntry> {
        let line = contents.lines().next()?;
        let (stored_crc, payload) = split_crc_frame(line)?;
        if crc32(payload.as_bytes()) != stored_crc {
            return None;
        }
        JournalEntry::parse(payload)
    }

    /// Moves a corrupt entry aside to `{name}.cell.corrupt` (atomic
    /// rename, best effort) so the next warm start does not re-parse the
    /// same garbage; the `.corrupt` suffix hides it from [`scan`] while
    /// preserving the bytes for a postmortem. A fresh [`store`] of the
    /// same cell simply recreates the `.cell` file.
    ///
    /// [`scan`]: ResultCache::scan
    /// [`store`]: ResultCache::store
    fn quarantine(path: &Path) {
        let mut target = path.as_os_str().to_os_string();
        target.push(".corrupt");
        let _ = std::fs::rename(path, &target);
    }

    /// Looks up one cell. A hit is verified three ways — CRC32 frame,
    /// schema parse, and a full key comparison (so even an FNV collision
    /// cannot serve the wrong cell's statistics). A corrupt entry is
    /// quarantined on sight.
    pub fn lookup(&self, workload: &str, trace_len: usize, fingerprint: &str) -> CacheLookup {
        let path = self.entry_path(workload, trace_len, fingerprint);
        let contents = match std::fs::read_to_string(&path) {
            Ok(contents) => contents,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => {
                Self::quarantine(&path);
                return CacheLookup::Corrupt;
            }
        };
        match Self::decode(&contents) {
            Some(entry)
                if entry.workload == workload
                    && entry.trace_len == trace_len
                    && entry.config == fingerprint =>
            {
                CacheLookup::Hit(Box::new(entry.stats))
            }
            _ => {
                Self::quarantine(&path);
                CacheLookup::Corrupt
            }
        }
    }

    /// Persists one completed cell, atomically (temp + fsync + rename):
    /// a concurrent reader sees the old entry or the new one, never a
    /// torn file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn store(&self, entry: &JournalEntry) -> io::Result<()> {
        let path = self.entry_path(&entry.workload, entry.trace_len, &entry.config);
        let payload = entry.to_json().to_string();
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        crate::persist::write_atomic(&path, line.as_bytes())
    }

    /// Scans the cache, counting valid and corrupt entries — the warm
    /// start report. Corrupt entries are quarantined as they are found,
    /// so a second scan of an untouched cache reports zero corrupt.
    pub fn scan(&self) -> CacheSummary {
        let mut summary = CacheSummary::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return summary;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("cell") {
                continue;
            }
            // Valid means fully valid: frame, schema, *and* addressing —
            // an intact entry sitting under some other cell's key would
            // be refused by `lookup`, so the scan calls it corrupt too.
            let valid = std::fs::read_to_string(&path)
                .ok()
                .and_then(|contents| Self::decode(&contents))
                .is_some_and(|decoded| {
                    self.entry_path(&decoded.workload, decoded.trace_len, &decoded.config) == path
                });
            if valid {
                summary.entries += 1;
            } else {
                Self::quarantine(&path);
                summary.corrupt += 1;
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned_stats() -> SimStats {
        SimStats {
            cycles: 123,
            instructions: 456,
            ..SimStats::default()
        }
    }

    #[test]
    fn cache_round_trips_detects_corruption_and_rejects_key_mismatches() {
        let dir = std::env::temp_dir().join(format!("fdip-cellcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.scan(), CacheSummary::default());
        assert_eq!(cache.lookup("w", 1000, "cfg"), CacheLookup::Miss);

        let entry = JournalEntry {
            workload: "w".to_string(),
            trace_len: 1000,
            config: "cfg".to_string(),
            stats: canned_stats(),
        };
        cache.store(&entry).unwrap();
        assert_eq!(
            cache.lookup("w", 1000, "cfg"),
            CacheLookup::Hit(Box::new(canned_stats()))
        );
        assert_eq!(
            cache.scan(),
            CacheSummary {
                entries: 1,
                corrupt: 0
            }
        );

        // A colliding file holding some *other* cell's entry must not be
        // served: the stored key is compared in full. The corrupt entry
        // is quarantined on sight, so the next lookup is a clean miss.
        let other_path = cache.entry_path("other", 9, "zzz");
        std::fs::copy(cache.entry_path("w", 1000, "cfg"), &other_path).unwrap();
        assert_eq!(cache.lookup("other", 9, "zzz"), CacheLookup::Corrupt);
        assert!(!other_path.exists(), "corrupt entry must be moved aside");
        let mut quarantined = other_path.into_os_string();
        quarantined.push(".corrupt");
        assert!(
            PathBuf::from(quarantined).exists(),
            "the bytes must survive for a postmortem"
        );
        assert_eq!(cache.lookup("other", 9, "zzz"), CacheLookup::Miss);

        // Bit rot: flip a byte inside the payload → CRC catches it, the
        // file is quarantined, and a fresh store repairs the entry.
        let path = cache.entry_path("w", 1000, "cfg");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup("w", 1000, "cfg"), CacheLookup::Corrupt);
        assert_eq!(cache.lookup("w", 1000, "cfg"), CacheLookup::Miss);
        cache.store(&entry).unwrap();
        assert_eq!(
            cache.lookup("w", 1000, "cfg"),
            CacheLookup::Hit(Box::new(canned_stats()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_scan_quarantines_corruption_so_the_second_scan_is_clean() {
        let dir = std::env::temp_dir().join(format!("fdip-cellcache-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        for (name, len) in [("alpha", 100), ("beta", 200)] {
            cache
                .store(&JournalEntry {
                    workload: name.to_string(),
                    trace_len: len,
                    config: "cfg".to_string(),
                    stats: canned_stats(),
                })
                .unwrap();
        }
        // Rot one of the two entries on disk.
        let path = cache.entry_path("alpha", 100, "cfg");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let first = cache.scan();
        assert_eq!(
            first,
            CacheSummary {
                entries: 1,
                corrupt: 1
            }
        );
        // The corrupt file was moved aside: scanning again re-parses
        // nothing and reports a clean cache.
        let second = cache.scan();
        assert_eq!(
            second,
            CacheSummary {
                entries: 1,
                corrupt: 0
            }
        );
        // The survivor still serves; the rotted cell is a plain miss.
        assert_eq!(
            cache.lookup("beta", 200, "cfg"),
            CacheLookup::Hit(Box::new(canned_stats()))
        );
        assert_eq!(cache.lookup("alpha", 100, "cfg"), CacheLookup::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_of_a_cache_entry_is_corrupt_never_a_panic() {
        let dir = std::env::temp_dir().join(format!("fdip-cellcache-tr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let entry = JournalEntry {
            workload: "w".to_string(),
            trace_len: 500,
            config: "cfg".to_string(),
            stats: canned_stats(),
        };
        cache.store(&entry).unwrap();
        let path = cache.entry_path("w", 500, "cfg");
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len().saturating_sub(1) {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(
                cache.lookup("w", 500, "cfg"),
                CacheLookup::Corrupt,
                "cut at {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
