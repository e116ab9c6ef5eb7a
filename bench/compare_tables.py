#!/usr/bin/env python3
"""Compares the tables of two bench result files cell by cell.

Usage: bench/compare_tables.py A.json B.json

A and B are files a bench_* binary wrote with --json_out. The run
parameters (bench, device, scale, seed) and every table must match:
same table names in the same order, same columns, same row count, and
equal cells. Numeric cells are compared exactly; there is no tolerance.
The `metrics` and `trace` sections hold host timings and pool counters,
which vary from run to run, so they are ignored, as is the host thread
count.

Exit status: 0 when the tables are identical, 1 on the first mismatch
(named by bench, table, row and column on stderr), 2 when a file cannot
be read.
"""

import json
import sys

RUN_KEYS = ("bench", "device", "scale", "seed")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_tables: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def first_mismatch(a, b):
    """Returns a description of the first difference, or None."""
    for key in RUN_KEYS:
        if a.get(key) != b.get(key):
            return f"run parameter {key!r}: {a.get(key)!r} != {b.get(key)!r}"
    bench = a.get("bench")
    tables_a = a.get("tables") or []
    tables_b = b.get("tables") or []
    names_a = [t["name"] for t in tables_a]
    names_b = [t["name"] for t in tables_b]
    if names_a != names_b:
        return f"bench {bench}: tables {names_a} != {names_b}"
    for ta, tb in zip(tables_a, tables_b):
        where = f"bench {bench}, table {ta['name']}"
        if ta["columns"] != tb["columns"]:
            return f"{where}: columns {ta['columns']} != {tb['columns']}"
        if len(ta["rows"]) != len(tb["rows"]):
            return (f"{where}: {len(ta['rows'])} rows != "
                    f"{len(tb['rows'])} rows")
        for i, (ra, rb) in enumerate(zip(ta["rows"], tb["rows"])):
            label = ra[0] if ra else ""
            if len(ra) != len(rb):
                return (f"{where}, row {i} ({label}): "
                        f"{len(ra)} != {len(rb)} cells")
            for column, ca, cb in zip(ta["columns"], ra, rb):
                if type(ca) is not type(cb) or ca != cb:
                    return (f"{where}, row {i} ({label}), column {column}: "
                            f"{ca!r} != {cb!r}")
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    mismatch = first_mismatch(load(argv[1]), load(argv[2]))
    if mismatch is not None:
        print(f"compare_tables: {mismatch}", file=sys.stderr)
        return 1
    print(f"compare_tables: {argv[1]} and {argv[2]} have identical tables")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
