"""Documentation link/anchor integrity (tools/check_docs_links.py)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from check_docs_links import (  # noqa: E402
    check_file,
    check_paths,
    check_repo,
    github_slug,
    heading_slugs,
)


def test_github_slug():
    assert github_slug("Hello World") == "hello-world"
    assert github_slug("The `phase()` API") == "the-phase-api"
    assert github_slug("Min/Mean/Max & Imbalance") == "minmeanmax--imbalance"


def test_heading_slugs_dedup(tmp_path):
    md = tmp_path / "a.md"
    md.write_text("# One\n\n# One\n\n```\n# not a heading\n```\n# Two\n")
    assert heading_slugs(md) == {"one", "one-1", "two"}


def test_broken_link_detected(tmp_path):
    md = tmp_path / "b.md"
    md.write_text("see [missing](no_such_file.md) and [ok](b.md#title)\n# Title\n")
    problems = check_file(md, tmp_path)
    assert len(problems) == 1
    assert "no_such_file.md" in problems[0]


def test_broken_anchor_detected(tmp_path):
    target = tmp_path / "t.md"
    target.write_text("# Real Heading\n")
    md = tmp_path / "c.md"
    md.write_text("[x](t.md#real-heading) [y](t.md#fake-heading)\n")
    problems = check_file(md, tmp_path)
    assert len(problems) == 1
    assert "#fake-heading" in problems[0]


def test_external_links_ignored(tmp_path):
    md = tmp_path / "d.md"
    md.write_text("[a](https://example.com/x#y) [b](mailto:x@y.z)\n")
    assert check_file(md, tmp_path) == []


def test_backticked_repo_paths_must_exist(tmp_path):
    for rel in ("src/pkg/a.py", "src/pkg/b.py", "tests/test_a.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("")
    md = tmp_path / "e.md"
    md.write_text(
        "`src/pkg/a.py` `src/pkg/` `tests/test_a.py::test_x[1]` `src/pkg/*.py`\n"
        "`src/pkg/{a,b}.py` `pkg/not_checked.py` `srcfoo/x`\n"
        "```\n`src/pkg/in_a_fence.py`\n```\n"
        "`src/pkg/gone.py` `tests/test_a.py::test_x` `tools/*.json`\n"
        "`src/pkg/{a,c}.py`\n"
    )
    problems = check_paths(md, tmp_path)
    assert [p.split(": ", 1)[1] for p in problems] == [
        "back-ticked path does not exist: src/pkg/gone.py",
        "back-ticked path does not exist: tools/*.json",
        "back-ticked path does not exist: src/pkg/{a,c}.py",
    ]
    assert all(f"{md}:{n}:" in p for n, p in zip((6, 6, 7), problems))


def test_history_files_may_name_deleted_paths(tmp_path):
    for name in ("CHANGES.md", "README.md"):
        (tmp_path / name).write_text("deleted `tools/old_gate.py` in PR 3\n")
    problems = check_repo(tmp_path)
    assert len(problems) == 1 and "README.md:1" in problems[0]


def test_repo_docs_have_no_broken_links():
    """The repository's own README + docs/ must stay link-clean."""
    problems = check_repo(ROOT)
    assert problems == [], "\n".join(problems)
