#!/usr/bin/env python3
"""Stale-name lint for the prose docs (docs/*.md and the root README.md).

Two rules:

1. src-path — every `src/...` path the docs name exists. A brace group
   (`src/bohm/table.{h,cc}`) names one path per alternative, and a
   trailing `/` names a directory.

2. class-member — a backticked `Class::Member` (optionally `Class::Member()`)
   whose Class is a class, struct or enum class defined under src/ names
   a member src/ still has: the member appears in the code (not the
   comments) of one of the class's bodies, or src/ spells
   `Class::Member` itself, as an out-of-line definition does.
   Qualifiers that are not a class defined under src/ (namespaces, std
   types) are not checked.

Exit status 0 when clean; 1 with file:line diagnostics otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# A path starts at `src/` that is not itself part of a longer path
# (`/usr/src/googletest` is not this repository's src/).
SRC_PATH_RE = re.compile(r"(?<![\w/.-])src/[\w./{},-]*")
MEMBER_RE = re.compile(r"`([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)(?:\(\))?`")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:alignas\([^)]*\)\s*)?([A-Za-z_]\w*)[^;{}()]*\{")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def doc_files() -> list[Path]:
    docs = sorted((REPO / "docs").glob("*.md"))
    readme = REPO / "README.md"
    return docs + ([readme] if readme.exists() else [])


def expand_braces(path: str) -> list[str]:
    m = re.search(r"\{([^{}]*)\}", path)
    if m is None:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[: m.start()] + alt + path[m.end():])
    return out


def check_paths(doc: Path, lines: list[str], errors: list[str]) -> None:
    for n, line in enumerate(lines, 1):
        for m in SRC_PATH_RE.finditer(line):
            token = m.group(0).rstrip(".,")
            for path in expand_braces(token):
                if not (REPO / path).exists():
                    errors.append(f"{doc.relative_to(REPO)}:{n}: src-path: "
                                  f"`{path}` does not exist")


def class_bodies(code: str) -> dict[str, list[str]]:
    """Maps each class name defined in `code` to the text of its bodies."""
    bodies: dict[str, list[str]] = {}
    for m in CLASS_RE.finditer(code):
        depth, i = 1, m.end()
        while depth and i < len(code):
            depth += {"{": 1, "}": -1}.get(code[i], 0)
            i += 1
        bodies.setdefault(m.group(1), []).append(code[m.end():i])
    return bodies


def check_members(doc: Path, lines: list[str], code: str,
                  bodies: dict[str, list[str]], errors: list[str]) -> None:
    for n, line in enumerate(lines, 1):
        for m in MEMBER_RE.finditer(line):
            cls, member = m.group(1), m.group(2)
            if cls not in bodies:
                continue
            word = re.compile(r"(?<![\w~])" + re.escape(member) + r"\b")
            if any(word.search(body) for body in bodies[cls]):
                continue
            if re.search(r"\b" + re.escape(cls) + r"::" + re.escape(member)
                         + r"\b", code):
                continue
            errors.append(f"{doc.relative_to(REPO)}:{n}: class-member: "
                          f"`{cls}::{member}` — {cls} is defined under src/ "
                          f"but has no member {member}")


def main() -> int:
    code = "\n".join(
        COMMENT_RE.sub("", p.read_text(encoding="utf-8"))
        for p in sorted(SRC.rglob("*")) if p.suffix in (".h", ".cc"))
    bodies = class_bodies(code)
    errors: list[str] = []
    for doc in doc_files():
        lines = doc.read_text(encoding="utf-8").splitlines()
        check_paths(doc, lines, errors)
        check_members(doc, lines, code, bodies, errors)
    for e in errors:
        print(e)
    if errors:
        print(f"lint_doc_names: {len(errors)} stale name(s)", file=sys.stderr)
        return 1
    print("lint_doc_names: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
