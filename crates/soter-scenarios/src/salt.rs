//! The golden-corpus hash behind [`crate::cache::ENGINE_VERSION`].
//!
//! The crate's build script compiles this file too (`#[path]`), hashes the
//! committed `tests/golden/*.golden` corpus with it and bakes the result
//! into `ENGINE_VERSION`; the crate's tests re-hash the corpus with the
//! same code.  Re-blessing any golden therefore changes the result-cache
//! salt, which orphans every cached record of the old behaviour.

use std::io;
use std::path::Path;

/// FNV-1a over every `*.golden` file directly in `dir`, in sorted
/// file-name order.  Each file contributes its name, a NUL byte, its
/// length as eight little-endian bytes and its contents, so no two
/// corpora hash the same bytes.  A missing directory is an I/O error and
/// an empty corpus is `InvalidData`: the salt must never silently derive
/// from nothing.
pub fn corpus_hash(dir: &Path) -> io::Result<u64> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".golden") {
            files.push((name, entry.path()));
        }
    }
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no *.golden files in {}", dir.display()),
        ));
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, path) in &files {
        let contents = std::fs::read(path)?;
        fold(name.as_bytes());
        fold(&[0]);
        fold(&(contents.len() as u64).to_le_bytes());
        fold(&contents);
    }
    Ok(hash)
}
