"""Check relative links, heading anchors and back-ticked paths in the repo's Markdown docs.

Scans every top-level ``*.md`` and ``docs/*.md`` (plus any extra paths
given on the command line) for Markdown links.  For every relative link it verifies
that the target file exists, and when the link carries a ``#fragment``
that the target file contains a heading whose GitHub-style slug matches.
External links (``http(s)://``, ``mailto:``) are ignored.

It also verifies that every back-ticked repo-relative path — a code span
starting with ``src/``, ``tests/``, ``tools/``, ``benchmarks/``,
``examples/``, ``docs/`` or ``bench_results/`` — exists; a ``::name``
suffix is dropped and glob patterns (``*``, ``{a,b}``) must match
something.  The files in ``HISTORY`` record what the repository *was*
and are exempt from that.

Usage::

    python tools/check_docs_links.py [extra.md ...]

Exit status is non-zero when any link is broken; each problem is printed
as ``file:line: message``.  The same checker runs in CI and as a tier-1
test (``tests/docs/test_doc_links.py``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

# [text](target) — excluding images is unnecessary: image paths must
# resolve too.  Inline code spans are stripped first.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_CODE_SPAN_RE = re.compile(r"`[^`]*`")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^(```|~~~)")
_PATH_RE = re.compile(
    r"`((?:src|tests|tools|benchmarks|examples|docs|bench_results)/[^`\s]*)`"
)
# Changelog, plan and task files name what earlier commits held.
HISTORY = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}


def github_slug(heading: str) -> str:
    """The GitHub anchor slug of a heading text."""
    text = _CODE_SPAN_RE.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # link text only
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def prose_lines(path: Path) -> Iterator[Tuple[int, str]]:
    """(line number, line) for every line of a Markdown file outside code fences."""
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
        elif not in_fence:
            yield lineno, line


def heading_slugs(path: Path) -> set:
    """All heading anchors defined in a Markdown file (with dedup suffixes)."""
    slugs: set = set()
    counts: dict = {}
    for _, line in prose_lines(path):
        m = _HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def iter_links(path: Path) -> List[Tuple[int, str]]:
    """(line number, target) for every Markdown link outside code fences."""
    links = []
    for lineno, line in prose_lines(path):
        stripped = _CODE_SPAN_RE.sub("", line)
        for m in _LINK_RE.finditer(stripped):
            links.append((lineno, m.group(1)))
    return links


def expand_braces(pattern: str) -> List[str]:
    """``a.{x,y}`` -> ``[a.x, a.y]`` (``pathlib`` globs have no brace alternatives)."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    return [
        expanded
        for alt in m.group(1).split(",")
        for expanded in expand_braces(pattern[: m.start()] + alt + pattern[m.end():])
    ]


def check_paths(path: Path, root: Path) -> List[str]:
    """A message for every back-ticked repo path of ``path`` that does not exist."""
    problems = []
    for lineno, line in prose_lines(path):
        for target in _PATH_RE.findall(line):
            pattern = target.partition("::")[0].rstrip("/")
            if not all(any(root.glob(p)) for p in expand_braces(pattern)):
                problems.append(f"{path}:{lineno}: back-ticked path does not exist: {target}")
    return problems


def check_file(path: Path, root: Path) -> List[str]:
    """All broken-link messages for one Markdown file."""
    problems = []
    for lineno, target in iter_links(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            dest, frag = path, target[1:]
        else:
            rel, _, frag = target.partition("#")
            dest = (path.parent / rel).resolve()
            try:
                dest.relative_to(root.resolve())
            except ValueError:
                problems.append(
                    f"{path}:{lineno}: link escapes the repository: {target}"
                )
                continue
            if not dest.exists():
                problems.append(f"{path}:{lineno}: missing target: {target}")
                continue
        if frag and dest.suffix.lower() in (".md", ".markdown"):
            if frag.lower() not in heading_slugs(dest):
                problems.append(
                    f"{path}:{lineno}: missing anchor #{frag} in {dest.name}"
                )
    return problems


def check_repo(root: Path, extra: List[Path] = ()) -> List[str]:
    """Check top-level *.md + docs/*.md under ``root`` (+ ``extra``)."""
    targets = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        targets.extend(sorted(docs.glob("*.md")))
    targets.extend(extra)
    problems = []
    for path in targets:
        problems.extend(check_file(path, root))
        if path.name not in HISTORY:
            problems.extend(check_paths(path, root))
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point: print problems, return 1 when any exist."""
    root = Path(__file__).resolve().parent.parent
    extra = [Path(a) for a in argv]
    problems = check_repo(root, extra)
    for p in problems:
        print(p)
    checked = sorted(
        str(p.relative_to(root))
        for pat in ("*.md", "docs/*.md")
        for p in root.glob(pat)
    )
    print(f"checked {len(checked)} file(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
