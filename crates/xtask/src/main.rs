//! `cargo run -p xtask -- lint` — run the workspace lint (see the library
//! docs for the rules).  Exits 0 on a clean tree, 1 with findings on
//! stdout otherwise, 2 on usage or configuration errors.
//!
//! `cargo run -p xtask -- loc` — print the production lines of every file
//! under `crates/*/src` and a total per crate (never fails on a count).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <lint|loc> [--root <dir>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    let command = args.next();
    let root = match (args.next(), args.next()) {
        (Some("--root"), Some(dir)) => PathBuf::from(dir),
        (None, _) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Some("lint") => lint(&root),
        Some("loc") => loc(&root),
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

fn loc(root: &Path) -> ExitCode {
    let rows = match xtask::loc(root) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("xtask loc: {e}");
            return ExitCode::from(2);
        }
    };
    // Rows are sorted by path, so each crate's files are contiguous.
    let crate_of = |path: &str| path.split('/').nth(1).unwrap_or("").to_owned();
    let mut total = 0;
    for (i, (path, lines)) in rows.iter().enumerate() {
        println!("{lines:>7}  {path}");
        total += lines;
        if rows.get(i + 1).map(|(next, _)| crate_of(next)) != Some(crate_of(path)) {
            println!("{total:>7}  crates/{} (total)", crate_of(path));
            total = 0;
        }
    }
    ExitCode::SUCCESS
}
