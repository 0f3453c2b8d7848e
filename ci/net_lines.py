#!/usr/bin/env python3
"""Counts non-test Rust lines under crates/, per crate and in total.

A file's non-test lines are its physical lines (comments and blanks
included) up to its first `#[cfg(test)]` line; a file without one counts
whole. The count covers every `.rs` file under `crates/*/src` and
`crates/*/benches`; `tests/` directories are integration tests and are
never counted. Change summaries quote the total before and after a
change, so every change measures "net lines" the same way.

Usage: python3 ci/net_lines.py [REPO_ROOT]
"""

import pathlib
import sys

COUNTED_DIRS = ("src", "benches")


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            count += 1
    return count


def crate_lines(crate):
    total = 0
    for sub in COUNTED_DIRS:
        for path in sorted((crate / sub).rglob("*.rs")):
            if "tests" in path.relative_to(crate).parts:
                continue
            total += non_test_lines(path)
    return total


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = sorted(p for p in (root / "crates").iterdir() if p.is_dir())
    total = 0
    for crate in crates:
        lines = crate_lines(crate)
        total += lines
        print(f"{crate.name:12} {lines:7}")
    print(f"{'total':12} {total:7}")


if __name__ == "__main__":
    main()
