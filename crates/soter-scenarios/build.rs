//! Derives the result-cache salt `ENGINE_VERSION` from the committed
//! golden corpus (`tests/golden/*.golden` at the workspace root), so a
//! change that re-blesses goldens also invalidates every cached record.
//! A missing or empty corpus fails the build.

use std::path::PathBuf;

#[path = "src/salt.rs"]
mod salt;

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let corpus = manifest.join("../../tests/golden");
    println!("cargo:rerun-if-changed={}", corpus.display());
    println!("cargo:rerun-if-changed=src/salt.rs");
    let hash = salt::corpus_hash(&corpus).unwrap_or_else(|e| {
        panic!(
            "cannot derive ENGINE_VERSION from the golden corpus {}: {e}",
            corpus.display()
        )
    });
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    std::fs::write(out.join("engine_version.rs"), format!("{hash:#018x}\n"))
        .expect("write engine_version.rs");
}
