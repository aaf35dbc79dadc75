//! On-disk seed corpus, persisted like the program/trace caches.
//!
//! One file per interesting input under
//! `<cache root>/fuzz-corpus/<target>/`, named
//! `<fnv1a(body)>-v<CORPUS_VERSION>.case` and containing the replay-token
//! *body* (the part after the target prefix). The content hash in the file
//! name both dedupes entries and detects corruption on load; a version bump
//! orphans old files, which are simply ignored — exactly the
//! versioned-miss discipline of `program-*-v1.bin`. All I/O is best-effort:
//! a broken corpus dir only costs coverage carry-over, never correctness.

use std::io::Write as _;
use std::path::PathBuf;

use skia_telemetry::fnv1a;

/// Bumped whenever any target's token-body encoding changes; stale corpus
/// files then miss instead of decoding garbage.
pub const CORPUS_VERSION: u32 = 1;

/// Cap on entries loaded back per target, so a long-lived corpus dir can't
/// make `cargo test` unbounded.
const LOAD_CAP: usize = 1024;

/// Handle on one target's corpus directory (`None` = in-memory only).
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: Option<PathBuf>,
}

impl Corpus {
    /// Bind to `dir`, creating it eagerly; creation failure (read-only
    /// cache root, …) degrades to the in-memory mode.
    #[must_use]
    pub fn new(dir: Option<PathBuf>) -> Corpus {
        let dir = dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        Corpus { dir }
    }

    /// Whether entries persist across sessions.
    #[must_use]
    pub fn persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// All stored token bodies, sorted by file name for deterministic
    /// replay order. Unreadable, mis-hashed, or stale-version files are
    /// skipped silently.
    #[must_use]
    pub fn load(&self) -> Vec<String> {
        let Some(dir) = &self.dir else {
            return Vec::new();
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let suffix = format!("-v{CORPUS_VERSION}.case");
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(&suffix) && !n.starts_with('.'))
            .collect();
        names.sort();
        names
            .iter()
            .take(LOAD_CAP)
            .filter_map(|name| {
                let body = std::fs::read_to_string(dir.join(name)).ok()?;
                let expect = format!("{:016x}{suffix}", fnv1a(body.as_bytes()));
                (*name == expect).then_some(body)
            })
            .collect()
    }

    /// Persist one token body (dedup by content hash; temp file + rename so
    /// concurrent fuzzing sessions never publish a torn entry).
    pub fn store(&self, body: &str) {
        let Some(dir) = &self.dir else {
            return;
        };
        let key = fnv1a(body.as_bytes());
        let path = dir.join(format!("{key:016x}-v{CORPUS_VERSION}.case"));
        if path.exists() {
            return;
        }
        let tmp = dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
        let ok = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .is_ok();
        if ok {
            let _ = std::fs::rename(&tmp, &path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_dedupes_and_skips_corruption() {
        let dir = std::env::temp_dir().join(format!("skia-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::new(Some(dir.clone()));
        assert!(corpus.persistent());

        corpus.store("beta");
        corpus.store("alpha:1:2");
        corpus.store("beta"); // dedup
        let mut loaded = corpus.load();
        loaded.sort();
        assert_eq!(loaded, vec!["alpha:1:2".to_string(), "beta".to_string()]);

        // A corrupted entry (content no longer matches its name) is skipped.
        let victim = dir.join(format!("{:016x}-v{CORPUS_VERSION}.case", fnv1a(b"beta")));
        std::fs::write(&victim, "tampered").unwrap();
        assert_eq!(corpus.load(), vec!["alpha:1:2".to_string()]);

        // A stale-version entry is ignored.
        std::fs::write(dir.join("0000000000000000-v0.case"), "old").unwrap();
        assert_eq!(corpus.load(), vec!["alpha:1:2".to_string()]);

        // In-memory mode is inert.
        let none = Corpus::new(None);
        assert!(!none.persistent());
        none.store("x");
        assert!(none.load().is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
