//! `cargo run -p xtask -- lint` — run the workspace lint (see the library
//! docs for the rules).  Exits 0 on a clean tree, 1 with findings on
//! stdout otherwise, 2 on usage or configuration errors.
//!
//! `cargo run -p xtask -- loc [--against <git-rev>]` — print the production
//! lines of every file under `crates/*/src` and a total per crate (never
//! fails on a count); with `--against`, the count at that revision, the
//! count now and the difference.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo run -p xtask -- <lint | loc [--against <git-rev>]> [--root <dir>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    let command = args.next();
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut against = None;
    while let Some(flag) = args.next() {
        match (flag, args.next()) {
            ("--root", Some(dir)) => root = PathBuf::from(dir),
            ("--against", Some(rev)) if command == Some("loc") => against = Some(rev),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match command {
        Some("lint") => lint(&root),
        Some("loc") => loc(&root, against),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(root: &Path) -> ExitCode {
    match xtask::lint(root) {
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}

fn loc(root: &Path, against: Option<&str>) -> ExitCode {
    // One row shape for both forms: (path, lines at the revision, lines now).
    let rows = match against {
        Some(rev) => xtask::loc_against(root, rev),
        None => xtask::loc(root).map(|rows| rows.into_iter().map(|(p, n)| (p, n, n)).collect()),
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("xtask loc: {e}");
            return ExitCode::from(2);
        }
    };
    let print = |before: usize, now: usize, what: &str| match against {
        Some(_) => {
            let diff = now as i64 - before as i64;
            println!("{before:>7} {now:>7} {diff:>+6}  {what}")
        }
        None => println!("{now:>7}  {what}"),
    };
    if let Some(rev) = against {
        println!("{rev:>7} {:>7} {:>6}", "now", "diff");
    }
    // Rows are sorted by path, so each crate's files are contiguous.
    let crate_of = |path: &str| path.split('/').nth(1).unwrap_or("").to_owned();
    let (mut total_before, mut total_now) = (0, 0);
    for (i, (path, before, now)) in rows.iter().enumerate() {
        print(*before, *now, path);
        total_before += before;
        total_now += now;
        if rows.get(i + 1).map(|(next, _, _)| crate_of(next)) != Some(crate_of(path)) {
            let what = format!("crates/{} (total)", crate_of(path));
            print(total_before, total_now, &what);
            (total_before, total_now) = (0, 0);
        }
    }
    ExitCode::SUCCESS
}
