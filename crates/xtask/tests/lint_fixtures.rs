//! The lint's own acceptance tests: every rule must flag its fixture
//! violation, every decoy must stay silent, and the real repository tree
//! must lint clean (this test is what keeps it that way).

use std::path::PathBuf;
use xtask::{
    lint, RULE_ALLOWLIST, RULE_DETERMINISM, RULE_FAILPOINTS, RULE_POOL_IN_INIT, RULE_RAW_LOCK,
    RULE_SAFETY,
};

fn fixture_tree() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_rule_flags_its_fixture_violation() {
    let findings = lint(&fixture_tree()).expect("fixture tree is scannable");
    let have: Vec<(&str, &str, usize, &str)> = findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line, f.token.as_str()))
        .collect();
    let want = [
        // Raw Mutex at import, signature, and construction.
        (RULE_RAW_LOCK, "crates/engine/src/bad_lock.rs", 1, "Mutex"),
        (RULE_RAW_LOCK, "crates/engine/src/bad_lock.rs", 2, "Mutex"),
        (RULE_RAW_LOCK, "crates/engine/src/bad_lock.rs", 3, "Mutex"),
        // The second unsafe block has no SAFETY comment.
        (RULE_SAFETY, "crates/engine/src/bad_unsafe.rs", 7, "unsafe"),
        // HashMap twice; HashSet is allowlisted.
        (
            RULE_DETERMINISM,
            "crates/engine/src/physical.rs",
            1,
            "HashMap",
        ),
        (
            RULE_DETERMINISM,
            "crates/engine/src/physical.rs",
            2,
            "HashMap",
        ),
        // An unregistered probe literal...
        (RULE_FAILPOINTS, "crates/engine/src/serving.rs", 4, "zeta"),
        // ...and a registered site that is neither probed nor exercised.
        (RULE_FAILPOINTS, "crates/engine/src/faults.rs", 1, "delta"),
        (RULE_FAILPOINTS, "crates/engine/src/faults.rs", 1, "delta"),
        // Pool work inside two `get_or_init` initialisers.
        (
            RULE_POOL_IN_INIT,
            "crates/engine/src/pool_init.rs",
            3,
            "par_iter",
        ),
        (
            RULE_POOL_IN_INIT,
            "crates/engine/src/pool_init.rs",
            8,
            "rayon::join",
        ),
        // The decoy allowlist entry matches nothing.
        (RULE_ALLOWLIST, "lint.allow", 3, "Mutex"),
    ];
    for expected in want {
        assert!(
            have.contains(&expected),
            "missing expected finding {expected:?} in {have:#?}"
        );
    }
    assert_eq!(
        findings.len(),
        want.len(),
        "unexpected extra findings: {findings:#?}"
    );
}

#[test]
fn decoys_in_comments_strings_and_wrapper_names_stay_silent() {
    let findings = lint(&fixture_tree()).expect("fixture tree is scannable");
    assert!(
        findings
            .iter()
            .all(|f| f.path != "crates/engine/src/clean_tricky.rs"),
        "clean_tricky.rs must produce no findings: {findings:#?}"
    );
    // The first unsafe block carries a SAFETY comment and must pass.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == RULE_SAFETY && f.line == 3),
        "the SAFETY-annotated block must not be flagged"
    );
}

#[test]
fn pool_work_is_flagged_only_where_it_is_written_inside_an_initialiser() {
    // Negative cases: pool work beside an initialiser, pool-work names in a
    // comment or a string inside one, a `join` that is not `rayon::join`,
    // pool work reached through a called function (lexically invisible),
    // and a test module.
    let findings = lint(&fixture_tree()).expect("fixture tree is scannable");
    let flagged: Vec<(&str, usize)> = findings
        .iter()
        .filter(|f| f.rule == RULE_POOL_IN_INIT)
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        flagged,
        [
            ("crates/engine/src/pool_init.rs", 3),
            ("crates/engine/src/pool_init.rs", 8)
        ],
        "{findings:#?}"
    );
}

#[test]
fn the_repository_tree_lints_clean() {
    let findings = lint(&repo_root()).expect("repository tree is scannable");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; fix or allowlist:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn loc_against_counts_the_old_side_from_git_and_the_new_from_the_tree() {
    // The fixture sources, committed to a scratch repository and then
    // edited: one file grows, one is deleted, one is new, the rest stay.
    let repo = std::env::temp_dir().join(format!("xtask-loc-against-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repo);
    let src = repo.join("crates/engine/src");
    std::fs::create_dir_all(&src).unwrap();
    for entry in std::fs::read_dir(fixture_tree().join("crates/engine/src")).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, src.join(path.file_name().unwrap())).unwrap();
    }
    // A README next to the sources: tracked, never counted.
    std::fs::write(src.join("README.md"), "not code\n").unwrap();
    let git = |args: &[&str]| {
        let identity = ["-c", "user.name=xtask", "-c", "user.email=xtask@localhost"];
        let run = std::process::Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(identity)
            .args(args)
            .output()
            .expect("git is installed");
        assert!(run.status.success(), "git {args:?}: {run:?}");
    };
    git(&["init", "-q"]);
    git(&["add", "-A"]);
    git(&["commit", "-q", "-m", "base"]);

    let base: std::collections::BTreeMap<String, usize> =
        xtask::loc(&repo).unwrap().into_iter().collect();
    let grown = std::fs::read_to_string(src.join("clean_tricky.rs")).unwrap();
    let grown = format!("fn added() {{}}\n// a comment does not count\nfn too() {{}}\n{grown}");
    std::fs::write(src.join("clean_tricky.rs"), grown).unwrap();
    std::fs::remove_file(src.join("bad_lock.rs")).unwrap();
    let fresh = "fn a() {}\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n    fn c() {}\n}\n";
    std::fs::write(src.join("fresh.rs"), fresh).unwrap();

    let rows = xtask::loc_against(&repo, "HEAD").unwrap();
    let paths: Vec<&str> = rows.iter().map(|(path, _, _)| path.as_str()).collect();
    assert!(paths.windows(2).all(|w| w[0] < w[1]), "sorted: {paths:?}");
    assert!(paths.iter().all(|path| path.ends_with(".rs")));
    for (path, before, now) in &rows {
        let committed = base.get(path).copied().unwrap_or(0);
        assert_eq!(*before, committed, "{path}");
        let expected = match path.as_str() {
            "crates/engine/src/clean_tricky.rs" => committed + 2,
            "crates/engine/src/bad_lock.rs" => 0,
            "crates/engine/src/fresh.rs" => 2,
            _ => committed,
        };
        assert_eq!(*now, expected, "{path}");
    }
    assert_eq!(
        rows.len(),
        base.len() + 1,
        "every old file plus the new one"
    );
    assert!(base["crates/engine/src/bad_lock.rs"] > 0);
    // An unknown revision is an error, not an empty table.
    assert!(xtask::loc_against(&repo, "no-such-rev").is_err());
    let _ = std::fs::remove_dir_all(&repo);
}
