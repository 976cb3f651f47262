//! Corpus runner: every minimized `.case` file under `tests/regressions/`
//! is replayed through the full differential oracle and must pass clean.
//!
//! Each file is a self-contained repro harvested by `dsqctl fuzz` (see
//! `tests/regressions/README.md` for provenance); re-introducing the bug a
//! case pins makes this test fail with the original violation detail.

use dsq_fuzz::CheckId;
use std::path::PathBuf;

fn corpus() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/regressions must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    cases.sort();
    cases
}

fn name(path: &std::path::Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

#[test]
fn regression_corpus_is_clean() {
    dsq_fuzz::silence_panics();
    let cases = corpus();
    assert!(
        cases.len() >= 3,
        "expected at least 3 corpus cases, found {}",
        cases.len()
    );

    let mut failures = Vec::new();
    for path in &cases {
        let name = name(path);
        match dsq_fuzz::verify_case_file(path, None) {
            Ok(violations) if violations.is_empty() => {}
            Ok(violations) => {
                for v in violations {
                    failures.push(format!("{name}: [{}] {}", v.check.slug(), v.detail));
                }
            }
            Err(e) => failures.push(format!("{name}: unreadable case: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus violation(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A `# check: <slug>` header names the check a repro was harvested under:
/// the slug must name a real [`CheckId`], and the case must replay clean
/// under that filter (the path `dsqctl fuzz <case> --check <slug>` takes).
#[test]
fn check_headers_name_real_checks() {
    dsq_fuzz::silence_panics();
    let mut headers = 0;
    for path in corpus() {
        let name = name(&path);
        let text = std::fs::read_to_string(&path).expect("readable case");
        for slug in text.lines().filter_map(|l| l.strip_prefix("# check: ")) {
            headers += 1;
            let check = CheckId::from_slug(slug)
                .unwrap_or_else(|| panic!("{name}: header names unknown check {slug:?}"));
            assert_eq!(check.slug(), slug);
            let violations = dsq_fuzz::verify_case_file(&path, Some(check))
                .unwrap_or_else(|e| panic!("{name}: unreadable case: {e}"));
            assert!(
                violations.is_empty(),
                "{name}: fails its own check {slug}: {}",
                violations[0].detail
            );
        }
    }
    assert!(headers >= 3, "expected check headers, found {headers}");
}
