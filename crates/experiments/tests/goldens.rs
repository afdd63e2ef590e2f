//! Absolute stdout goldens: every experiment binary's `--quick` report is
//! committed under `tests/golden/<bin>.txt` and must be reproduced byte for
//! byte.
//!
//! The other output checks in this crate are relative (jobs 1 vs 8, replay
//! vs generation, observer on vs off), so they cannot notice a change that
//! moves every mode at once. These can. A deliberate output change
//! regenerates the goldens in the same commit:
//!
//! ```text
//! cargo build --release -p mab-experiments --bins
//! for b in crates/experiments/src/bin/*.rs; do b=$(basename "$b" .rs)
//!   target/release/$b --quick > crates/experiments/tests/golden/$b.txt; done
//! ```
//!
//! The 16 quick runs take about half a minute in a release build and many
//! times that unoptimized, so the tests run only in release builds
//! (`cargo test -p mab-experiments --release --test goldens`).

use std::path::Path;
use std::process::Command;

fn check_golden(bin: &str, exe: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{bin}.txt"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    let output = Command::new(exe)
        .arg("--quick")
        .env("MAB_QUIET", "1")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{bin} --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    if actual != golden {
        panic!(
            "{bin} --quick stdout differs from {}:\n{}",
            golden_path.display(),
            line_diff(&golden, &actual)
        );
    }
}

/// A positional line diff (`-` golden, `+` actual): enough to show which
/// table cells moved without pulling in a diff algorithm.
fn line_diff(golden: &str, actual: &str) -> String {
    let (g, a): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    for i in 0..g.len().max(a.len()) {
        match (g.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                if let Some(x) = x {
                    out.push_str(&format!("{:>4} - {x}\n", i + 1));
                }
                if let Some(y) = y {
                    out.push_str(&format!("{:>4} + {y}\n", i + 1));
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("(lines match; the difference is in line endings)\n");
    }
    out
}

macro_rules! goldens {
    ($($bin:ident),* $(,)?) => {
        const GOLDENS: &[&str] = &[$(stringify!($bin)),*];
        $(
            #[test]
            #[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
            fn $bin() {
                let exe = env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));
                check_golden(stringify!($bin), exe);
            }
        )*
    };
}

goldens!(
    ablations,
    fig02_homogeneity,
    fig05_pg_space,
    fig07_exploration,
    fig08_singlecore,
    fig09_accuracy,
    fig10_bandwidth,
    fig11_altcache,
    fig12_multilevel,
    fig13_smt_scurve,
    fig14_fourcore,
    fig15_rename,
    smt_fairness,
    tab08_tuneset_prefetch,
    tab09_tuneset_smt,
    tab_storage,
);

/// A new binary must come with a golden, and a removed one take its golden
/// along; the list above is checked against both directories.
#[test]
fn every_binary_has_exactly_one_golden() {
    let names = |dir: &str, ext: &str| -> Vec<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_suffix(ext).map(str::to_string)
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(names("src/bin", ".rs"), names("tests/golden", ".txt"));
    assert_eq!(names("tests/golden", ".txt"), GOLDENS);
}
