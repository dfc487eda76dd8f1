#!/usr/bin/env python3
"""SHA-256 of every file in an index's decoded-CSR serving cache.

    python3 tools/cache_digest.py IDX
    python3 tools/cache_digest.py IDX IDX2

With one index it prints ``<sha256>  <file>`` for each file of
``IDX/cache/csr-*/``.  With two it compares the caches file by file
(by name, so two builds whose term files are named differently still
compare) and prints each file that differs or exists on one side
only; it exits 1 if any does, 0 if the caches are byte-identical.  An
index without a cache exits 2.
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys


def digests(index_dir: str) -> dict[str, str]:
    """File name → SHA-256 hex of the index's one cache dir."""
    dirs = sorted(glob.glob(os.path.join(index_dir, "cache", "csr-*")))
    if len(dirs) != 1:
        raise SystemExit(f"{index_dir}: want one cache/csr-* dir, "
                         f"found {len(dirs)}")
    out = {}
    for name in sorted(os.listdir(dirs[0])):
        with open(os.path.join(dirs[0], name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: cache_digest.py IDX [IDX2]", file=sys.stderr)
        return 2
    try:
        sides = [digests(d) for d in argv]
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    if len(sides) == 1:
        for name, h in sides[0].items():
            print(f"{h}  {name}")
        return 0
    a, b = sides
    differ = sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))
    for n in differ:
        print(f"differs: {n}  {a.get(n, '-')}  {b.get(n, '-')}")
    print(f"{len(a.keys() | b.keys())} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
