#!/usr/bin/env python3
"""Extract the deterministic sections of `bench/main.exe` output.

The paper artefacts and the simulation experiments come from the seeded
step engine, so they are identical on every run and every host; the
timing sections (E1, E2, E8, E10, the analyzer wall-time table and the
Bechamel rows) are left out.  CI diffs the result against
bench/tables.expected:

    dune exec bench/main.exe -- --quick | python3 scripts/bench_tables.py

Every section starts with a title line between two rules of '='.
"""

import sys

DETERMINISTIC = (
    "Table 1 ", "Figure 1 ", "Figure 2 ", "Table 2 ", "Sec. 5.2 scenario ",
    "E3 ", "E4 ", "E5 ", "E6 ", "E7 ", "E9 ", "E11 ", "E12 ", "E13 ", "E14 ",
)
RULE = "=" * 64


def sections(lines):
    """Yield (title, body lines) for every ruled section."""
    i = 0
    while i < len(lines):
        if lines[i] == RULE and i + 2 < len(lines) and lines[i + 2] == RULE:
            title, body, i = lines[i + 1], [], i + 3
            while i < len(lines) and not (lines[i] == RULE and i + 2 < len(lines)
                                          and lines[i + 2] == RULE):
                body.append(lines[i])
                i += 1
            yield title, body
        else:
            i += 1


def main():
    lines = sys.stdin.read().splitlines()
    found = []
    for title, body in sections(lines):
        if title.startswith(DETERMINISTIC):
            found.append(title)
            print(RULE)
            print(title)
            print(RULE)
            print("\n".join(body).rstrip("\n"))
            print()
    if len(found) != len(DETERMINISTIC):
        sys.exit(f"bench_tables: expected {len(DETERMINISTIC)} sections, found {len(found)}")


if __name__ == "__main__":
    main()
