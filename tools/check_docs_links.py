#!/usr/bin/env python3
"""Fail on broken relative links in the repo's markdown doc set, on a knob
table that does not match the code, and on code comments that cite a
markdown file the repo does not have.

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

Last, reads the comments of the C++ and Python sources under src/, bench/,
tests/ and examples/ (`//` and `/* */` comments, `#` comments and
docstrings) for citations of `*.md` files. A citation resolves when some
markdown file of the repo has that path or ends with it (`threading.md`
matches `docs/threading.md`); a comment whose citations do not all
resolve is reported once, at the line of its first stale citation.

Exit status 0 when every link and citation resolves and the knob table
matches, 1 otherwise (each problem is reported as file:line). This is the CI
`docs-check` step, so the cross-links between the
performance/architecture/threading docs and the knob table can't rot
silently.
"""

import argparse
import os
import pathlib
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
ENV_LITERAL_RE = re.compile(r'"(PWDFT_[A-Z_]+)"')
ENV_ROW_RE = re.compile(r"\|\s*`(PWDFT_[A-Z_]+)`\s*\|")
KNOB_TABLE = pathlib.Path("docs") / "PERFORMANCE.md"
CODE_SPAN_RE = re.compile(r"`[^`]*`")
EXTERNAL = ("http://", "https://", "mailto:")
CODE_DIRS = ("src", "bench", "tests", "examples")
CPP_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
MD_CITE_RE = re.compile(r"(?<![\w./:-])((?:\.{1,2}/)*[\w-][\w./-]*\.md)(?![\w.])")
BLOCK_COMMENT_RE = re.compile(r"/\*(.*?)\*/")


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


def repo_markdown(root):
    """Repo-relative paths of every markdown file, build trees and hidden
    directories excluded."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "build"))]
        rel = pathlib.Path(dirpath).relative_to(root)
        found |= {(rel / f).as_posix() for f in filenames if f.endswith(".md")}
    return found


def comment_lines(path):
    """Yields (line number, comment text, comment-only line) for every source
    line that carries a comment."""
    python = path.suffix == ".py"
    in_doc = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if python:
            quotes = line.count('"""') + line.count("'''")
            if in_doc or quotes:
                yield lineno, line, in_doc or stripped.startswith(('"""', "'''"))
                in_doc = in_doc != (quotes % 2 == 1)
            elif "#" in line:
                yield lineno, line.split("#", 1)[1], stripped.startswith("#")
        else:
            text = " ".join(BLOCK_COMMENT_RE.findall(line))
            if "//" in line:
                text += " " + line.split("//", 1)[1]
            if text.strip():
                yield lineno, text, stripped.startswith(("//", "/*", "*"))


def check_md_citations(root):
    """Code comments that cite a markdown file matching no file in the repo,
    one (path, line, names) per comment; consecutive comment-only lines are
    one comment."""
    docs = repo_markdown(root)

    def resolves(name):
        name = re.sub(r"^(\.{1,2}/)+", "", name)
        return any(d == name or d.endswith("/" + name) for d in docs)

    stale = []
    for top in CODE_DIRS:
        for f in sorted((root / top).rglob("*")):
            if not (f.is_file() and (f.suffix in CPP_SUFFIXES or f.suffix == ".py")):
                continue
            block, prev = None, None
            for lineno, text, whole in comment_lines(f):
                if not (whole and prev == lineno - 1):
                    block = [lineno, []]
                    stale.append((f.relative_to(root), block))
                prev = lineno if whole else None
                for name in MD_CITE_RE.findall(text):
                    if not resolves(name) and name not in block[1]:
                        if not block[1]:
                            block[0] = lineno
                        block[1].append(name)
    return [(f, b[0], b[1]) for f, b in stale if b[1]]


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
    citations = check_md_citations(args.root)
    for path, lineno, names in citations:
        cited = ", ".join(f"'{n}'" for n in names)
        print(f"{path}:{lineno}: comment cites {cited}, found nowhere in the repository",
              file=sys.stderr)
    if failures or knob_problems or citations:
        return 1
    print(f"docs-check: all relative links resolve ({checked}); "
          f"the knob table lists every PWDFT_* variable in src/; "
          f"every *.md cited in a code comment exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
