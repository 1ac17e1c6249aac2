#!/usr/bin/env python3
"""Fails when a header under src/ is reachable only from tests.

Every header must be #included by some file in src/, bench/, benchmark/ or
examples/ other than its own .cc. A module that only its own tests include
shows up in no BENCH row and no example: measure it or delete it.

  $ python3 scripts/check_reachability.py [repo-root]

Exit status 1 lists each unreachable header, and each allowlist entry that no
longer names an unreachable header.
"""
import pathlib
import re
import sys

# Header (relative to src/) -> why it may stay without a non-test includer.
ALLOWLIST = {
    "pgrid/online_exchange.h":
        "the only exchange-based P-Grid construction; the fault harness's "
        "rejoin contract drives it",
}

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SCANNED_DIRS = ("src", "bench", "benchmark", "examples")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def included_headers(root, src):
    """Headers under src/ included by a scanned file other than their .cc."""
    found = set()
    for top in SCANNED_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE.findall(text):
                for candidate in (src / name, path.parent / name):
                    try:
                        header = candidate.resolve().relative_to(src)
                    except ValueError:
                        continue
                    if path.resolve() != (src / header).with_suffix(".cc"):
                        found.add(header.as_posix())
    return found


def main():
    default_root = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default_root
    src = (root / "src").resolve()
    headers = {p.relative_to(src).as_posix() for p in src.rglob("*.h")}
    unreachable = headers - included_headers(root.resolve(), src)

    failures = []
    for header in sorted(unreachable - ALLOWLIST.keys()):
        failures.append(f"{header}: included only by its own .cc or tests")
    for header in sorted(ALLOWLIST.keys() - unreachable):
        failures.append(f"{header}: stale allowlist entry (no longer "
                        "unreachable, or gone)")
    for line in failures:
        print(f"check_reachability: {line}")
    if failures:
        return 1
    print(f"check_reachability: {len(headers)} headers, "
          f"{len(unreachable)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
