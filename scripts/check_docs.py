#!/usr/bin/env python3
"""Check the markdown docs for broken links and unread environment variables.

Scans ``docs/*.md``, ``README.md`` and ``ROADMAP.md`` for inline markdown
links. External links (``http(s)://``) are not fetched — CI must not
depend on the network — but every relative link must point at an existing
file, and every ``#fragment`` into a markdown file must match one of its
headings (GitHub anchor style).

``README.md`` and ``docs/*.md`` may name a ``REPRO_*`` environment
variable only if some module under ``src/`` spells it as a string literal
(the name it reads the variable under).

Usage:
    python scripts/check_docs.py          # exit 1 on any broken link or
                                          # documented-but-unread variable

No repro imports — runs on a bare CPython with nothing installed (the CI
``docs`` job uses it before any dependency install).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files scanned for links.
SOURCES = [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md",
           *sorted((REPO_ROOT / "docs").glob("*.md"))]

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def github_anchor(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    text = path.read_text(encoding="utf-8")
    return {github_anchor(match) for match in _HEADING.findall(text)}


def check_file(source: Path) -> list[str]:
    errors = []
    text = source.read_text(encoding="utf-8")
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (source.parent / path_part).resolve() if path_part \
            else source
        if not resolved.exists():
            errors.append(f"{source.relative_to(REPO_ROOT)}: broken link "
                          f"-> {target} ({path_part} does not exist)")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                errors.append(
                    f"{source.relative_to(REPO_ROOT)}: dead anchor "
                    f"-> {target} (no heading '#{fragment}' in "
                    f"{resolved.name})")
    return errors


def unread_env_vars() -> list[str]:
    """``REPRO_*`` names the user docs mention but no source module reads."""
    read = set()
    for module in (REPO_ROOT / "src").rglob("*.py"):
        read.update(re.findall(r"[\"']([A-Z0-9_]+)[\"']",
                               module.read_text(encoding="utf-8")))
    errors = []
    for source in SOURCES:
        if source.name == "ROADMAP.md":
            continue
        text = source.read_text(encoding="utf-8")
        for name in sorted(set(_ENV_VAR.findall(text)) - read):
            errors.append(f"{source.relative_to(REPO_ROOT)}: names "
                          f"${name}, which src/ never reads")
    return errors


def main() -> int:
    missing = [str(p) for p in SOURCES if not p.exists()]
    if missing:
        print(f"missing doc file(s): {missing}", file=sys.stderr)
        return 1
    errors = [error for source in SOURCES for error in check_file(source)]
    for error in errors:
        print(f"BROKEN  {error}")
    unread = unread_env_vars()
    for error in unread:
        print(f"UNREAD  {error}")
    checked = len(SOURCES)
    if errors or unread:
        print(f"{len(errors)} broken link(s), {len(unread)} unread "
              f"variable(s) across {checked} files")
        return 1
    print(f"docs check OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
