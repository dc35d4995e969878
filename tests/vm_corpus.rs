//! The pinned verifier-verdict corpus: one minimal program per rejection
//! rule under `tests/vm_corpus/reject/`, plus accepted exemplars under
//! `tests/vm_corpus/accept/`.
//!
//! Every `.vmasm` file carries a `; expect: <verdict>` header — either
//! `accept` or the `VerifyError::kind()` slug the verifier must produce.
//! The test fails on any verdict flip (a rejection becoming an acceptance,
//! an acceptance becoming a rejection, or a rejection changing kind), so
//! any loosening or tightening of the verifier is a reviewed, visible
//! change to these files.
//!
//! The run also writes a structured report (one line per program:
//! verdict, kind, offending instruction) to the path in the
//! `VM_VERIFY_REPORT` env var (default `target/vm-verify-report.txt`) —
//! the artifact the CI `vm-verify-smoke` step uploads.

use soter::vm::{parse, verify, VerifyError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Case {
    name: String,
    expect: String,
    source: String,
}

fn corpus_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/vm_corpus")
        .join(kind)
}

fn load_cases(kind: &str) -> Vec<Case> {
    let dir = corpus_dir(kind);
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("reading {dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("vmasm") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("corpus files are UTF-8");
        let expect = source
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("; expect:"))
            .unwrap_or_else(|| panic!("{path:?} lacks a `; expect: <verdict>` header"))
            .trim()
            .to_string();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        cases.push(Case {
            name,
            expect,
            source,
        });
    }
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(!cases.is_empty(), "empty corpus directory {dir:?}");
    cases
}

/// The rejection rules the corpus must keep covered, one minimal program
/// each.
const REQUIRED_KINDS: &[&str] = &[
    "unbounded-loop",
    "undeclared-read",
    "undeclared-publish",
    "use-before-def",
    "type-confusion",
    "div-by-zero",
    "jump-out-of-range",
    "budget-overflow",
];

#[test]
fn corpus_verdicts_are_pinned() {
    let mut report = String::new();
    let mut failures = Vec::new();
    let mut seen_kinds = Vec::new();

    for case in load_cases("accept") {
        match parse(&case.source)
            .map_err(soter::vm::VmError::from)
            .and_then(|p| verify(p).map_err(soter::vm::VmError::from))
        {
            Ok(v) => {
                let _ = writeln!(
                    report,
                    "accept/{}: accepted (worst-case cost {})",
                    case.name,
                    v.worst_case_cost()
                );
                if case.expect != "accept" {
                    failures.push(format!(
                        "accept/{}: header says `{}` but file lives in accept/",
                        case.name, case.expect
                    ));
                }
            }
            Err(e) => {
                let _ = writeln!(report, "accept/{}: REJECTED ({e})", case.name);
                failures.push(format!(
                    "accept/{}: expected acceptance, got: {e}",
                    case.name
                ));
            }
        }
    }

    for case in load_cases("reject") {
        let program = match parse(&case.source) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!(
                    "reject/{}: must parse so the *verifier* rejects it, got parse error: {e}",
                    case.name
                ));
                continue;
            }
        };
        match verify(program) {
            Ok(_) => {
                let _ = writeln!(report, "reject/{}: ACCEPTED (verdict flip)", case.name);
                failures.push(format!(
                    "reject/{}: expected `{}` rejection, but the verifier accepted it",
                    case.name, case.expect
                ));
            }
            Err(e) => {
                let _ = writeln!(report, "reject/{}: rejected [{}] {e}", case.name, e.kind());
                seen_kinds.push(e.kind());
                if e.kind() != case.expect {
                    failures.push(format!(
                        "reject/{}: expected kind `{}`, got `{}` ({e})",
                        case.name,
                        case.expect,
                        e.kind()
                    ));
                }
                // Structured rejections must name the offending instruction
                // (budget-too-large is a header property with no site).
                if !matches!(e, VerifyError::BudgetTooLarge { .. })
                    && (e.at().is_none() || !e.to_string().contains("instruction "))
                {
                    failures.push(format!(
                        "reject/{}: rejection does not name the offending instruction: {e}",
                        case.name
                    ));
                }
            }
        }
    }

    for kind in REQUIRED_KINDS {
        if !seen_kinds.contains(kind) {
            failures.push(format!(
                "corpus has no reject program exercising the `{kind}` rule"
            ));
        }
    }

    let report_path = std::env::var("VM_VERIFY_REPORT")
        .unwrap_or_else(|_| "target/vm-verify-report.txt".to_string());
    if let Some(parent) = Path::new(&report_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&report_path, &report).unwrap_or_else(|e| panic!("writing {report_path}: {e}"));

    assert!(
        failures.is_empty(),
        "verdict flips or malformed rejections:\n{}",
        failures.join("\n")
    );
}

/// The corpus copy of the surveillance controller must stay in sync with
/// the shipped constant — both are load-bearing (one is what flies, one is
/// what CI pins).
#[test]
fn corpus_surveillance_matches_the_shipped_program() {
    let shipped = soter::vm::programs::SURVEILLANCE_AC;
    let corpus = std::fs::read_to_string(corpus_dir("accept").join("surveillance-pd.vmasm"))
        .expect("surveillance corpus file exists");
    let strip = |s: &str| {
        s.lines()
            .map(|l| l.split(';').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip(shipped),
        strip(&corpus),
        "tests/vm_corpus/accept/surveillance-pd.vmasm drifted from \
         soter_vm::programs::SURVEILLANCE_AC"
    );
}
