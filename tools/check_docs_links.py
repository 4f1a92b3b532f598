#!/usr/bin/env python3
"""Fail on broken relative links in the repo's markdown doc set, and on a
knob table that does not match the code.

Usage:
    tools/check_docs_links.py [--root REPO_ROOT]

Scans README.md, ROADMAP.md, docs/*.md, and bench/README.md for markdown
links/images `[text](target)` and checks that every *relative* target
(anything that is not http(s)/mailto or a pure #anchor) resolves to an
existing file or directory, after stripping a trailing #anchor. Targets
inside fenced code blocks (``` ... ```) and inline code spans are ignored.

Then compares the set of `"PWDFT_[A-Z_]+"` string literals in src/ with
the first column of the env-var table in docs/PERFORMANCE.md (the table
whose header starts `| Env var |`): a variable the code reads but the
table omits, or a row for a variable nothing reads, is an error.

Exit status 0 when every link resolves and the knob table matches, 1
otherwise (each broken link is reported as file:line). This is the CI
`docs-check` step, so the cross-links between the
performance/architecture/threading docs and the knob table can't rot
silently.
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
ENV_LITERAL_RE = re.compile(r'"(PWDFT_[A-Z_]+)"')
ENV_ROW_RE = re.compile(r"\|\s*`(PWDFT_[A-Z_]+)`\s*\|")
KNOB_TABLE = pathlib.Path("docs") / "PERFORMANCE.md"
CODE_SPAN_RE = re.compile(r"`[^`]*`")
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files(root):
    files = [root / "README.md", root / "ROADMAP.md", root / "bench" / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_file(path, root):
    broken = []
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(CODE_SPAN_RE.sub("``", line)):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                broken.append((lineno, target, "escapes the repository"))
                continue
            if not resolved.exists():
                broken.append((lineno, target, "does not exist"))
    return broken


def env_literals(root):
    """Every "PWDFT_*" string literal in the sources under src/."""
    names = set()
    for f in sorted((root / "src").rglob("*")):
        if f.is_file():
            names |= set(ENV_LITERAL_RE.findall(f.read_text(encoding="utf-8")))
    return names


def knob_table_rows(root):
    """First column of the env-var table in docs/PERFORMANCE.md."""
    rows, in_table = set(), False
    for line in (root / KNOB_TABLE).read_text(encoding="utf-8").splitlines():
        if line.startswith("| Env var |"):
            in_table = True
        elif in_table and not line.startswith("|"):
            break
        elif in_table:
            match = ENV_ROW_RE.match(line)
            if match:
                rows.add(match.group(1))
    return rows


def check_knob_table(root):
    code, table = env_literals(root), knob_table_rows(root)
    problems = [f"{name} is read in src/ but missing from the knob table"
                for name in sorted(code - table)]
    problems += [f"{name} has a knob-table row but nothing in src/ reads it"
                 for name in sorted(table - code)]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root (default: script's parent)")
    args = ap.parse_args()

    files = doc_files(args.root)
    if not files:
        print("docs-check: no markdown files found", file=sys.stderr)
        return 1
    failures = 0
    for f in files:
        for lineno, target, why in check_file(f, args.root):
            print(f"{f.relative_to(args.root)}:{lineno}: broken link '{target}' ({why})",
                  file=sys.stderr)
            failures += 1
    checked = ", ".join(str(f.relative_to(args.root)) for f in files)
    if failures:
        print(f"docs-check: {failures} broken link(s) across {checked}", file=sys.stderr)
    knob_problems = check_knob_table(args.root)
    for problem in knob_problems:
        print(f"{KNOB_TABLE}: {problem}", file=sys.stderr)
    if failures or knob_problems:
        return 1
    print(f"docs-check: all relative links resolve ({checked}); "
          f"the knob table lists every PWDFT_* variable in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
