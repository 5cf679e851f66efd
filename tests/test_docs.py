"""Docs-rot check: the prose documentation must stay true.

Fast checks wired into the tier-1 run so the docs cannot silently rot:

* every relative markdown link (including ``#fragment`` anchors) resolves
  to an existing file/heading,
* every backtick-quoted repository path (``tests/...``, ``benchmarks/...``)
  exists,
* every backtick-quoted ``repro...`` dotted name imports,
* ``python`` code blocks compile, and ``pycon`` (``>>>``) blocks run as
  doctests against the live package,
* the telemetry reference table of ``docs/campaigns.md`` names exactly
  the keys ``CampaignResult.telemetry()`` returns.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import itertools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted([ROOT / "README.md", *(ROOT / "docs").glob("*.md")])

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REPO_PATH_RE = re.compile(r"`([\w./-]+/[\w.-]+\.(?:py|md|txt|ini))`")
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)(\(\))?`")


def _doc_ids(paths):
    return [str(p.relative_to(ROOT)) for p in paths]


def _split_prose_and_blocks(text: str):
    """Return (prose_lines, [(language, code)]) of a markdown document."""
    prose: list[str] = []
    blocks: list[tuple[str, str]] = []
    language = None
    code: list[str] = []
    for line in text.splitlines():
        fence = FENCE_RE.match(line)
        if fence and language is None:
            language = fence.group(1) or "text"
            code = []
        elif line.strip() == "```" and language is not None:
            blocks.append((language, "\n".join(code) + "\n"))
            language = None
        elif language is not None:
            code.append(line)
        else:
            prose.append(line)
    assert language is None, "unterminated code fence"
    return prose, blocks


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def _headings(path: pathlib.Path) -> set[str]:
    prose, _ = _split_prose_and_blocks(path.read_text(encoding="utf-8"))
    return {_github_slug(line.lstrip("#"))
            for line in prose if line.startswith("#")}


@pytest.fixture(params=DOC_FILES, ids=_doc_ids(DOC_FILES))
def doc(request):
    path = request.param
    prose, blocks = _split_prose_and_blocks(
        path.read_text(encoding="utf-8"))
    return path, "\n".join(prose), blocks


def test_docs_exist():
    """The documentation set this repository promises."""
    assert (ROOT / "README.md").is_file()
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "docs" / "solver-backends.md").is_file()
    assert (ROOT / "docs" / "campaigns.md").is_file()


def test_public_anafault_api_documented():
    """Every public name of ``repro.anafault`` must carry a docstring.

    Guards the campaign layer's API docs against rot: a class or function
    added to ``__all__`` without documentation fails here.  String/number
    constants (status values, default resistances) have no ``__doc__`` of
    their own and are skipped.
    """
    anafault = importlib.import_module("repro.anafault")
    undocumented = []
    for name in anafault.__all__:
        obj = getattr(anafault, name)  # missing names raise AttributeError
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not (inspect.getdoc(obj) or "").strip():
            undocumented.append(name)
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                if isinstance(member, property):
                    member = member.fget
                if not callable(member):
                    continue
                if not (inspect.getdoc(member) or "").strip():
                    undocumented.append(f"{name}.{member_name}")
    assert not undocumented, (
        f"public repro.anafault names without docstrings: {undocumented}")


def test_relative_links_resolve(doc):
    path, prose, _ = doc
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, fragment = target.partition("#")
        resolved = (path.parent / target).resolve() if target else path
        assert resolved.exists(), f"{path.name}: broken link {target!r}"
        if fragment:
            assert resolved.suffix == ".md", (
                f"{path.name}: anchor on non-markdown target {target!r}")
            assert fragment in _headings(resolved), (
                f"{path.name}: missing anchor #{fragment} in {target!r}")


def test_repository_paths_exist(doc):
    path, prose, _ = doc
    for relative in REPO_PATH_RE.findall(prose):
        assert (ROOT / relative).exists(), (
            f"{path.name}: references missing file {relative!r}")


def test_dotted_names_import(doc):
    path, prose, _ = doc
    for dotted, _call in DOTTED_NAME_RE.findall(prose):
        parts = dotted.split(".")
        obj = None
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            remainder = parts[split:]
            break
        assert obj is not None, f"{path.name}: cannot import {dotted!r}"
        for attribute in remainder:
            assert hasattr(obj, attribute), (
                f"{path.name}: {dotted!r} has no attribute {attribute!r}")
            obj = getattr(obj, attribute)


def test_python_blocks_compile(doc):
    path, _, blocks = doc
    for index, (language, code) in enumerate(blocks):
        if language == "python":
            compile(code, f"{path.name}[block {index}]", "exec")


def test_pycon_blocks_run_as_doctests(doc):
    path, _, blocks = doc
    pycon = [(i, code) for i, (language, code) in enumerate(blocks)
             if language == "pycon"]
    if not pycon:
        pytest.skip(f"{path.name} has no pycon blocks")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    # All pycon blocks of one document run in a single shared session, the
    # way a reader following the document top to bottom would type them.
    globs: dict = {}
    for index, code in pycon:
        test = parser.get_doctest(code, globs, f"{path.name}[block {index}]",
                                  str(path), 0)
        runner.run(test, clear_globs=False)
        globs.update(test.globs)  # get_doctest copies; carry names forward
    assert runner.failures == 0, (
        f"{path.name}: {runner.failures} doctest failure(s); run "
        "`python -m doctest` on the failing block for details")


def _telemetry_table_keys(text: str) -> set[str]:
    """Keys named in the first column of the first table under the
    "Telemetry reference" heading.  A cell lists one key or several
    separated by ``/``; a name starting with ``_`` swaps the last
    ``_suffix`` of the cell's first key (``fault_seconds_total`` /
    ``_mean`` names ``fault_seconds_mean``)."""
    lines = text.split("## Telemetry reference", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    keys: set[str] = set()
    # Skip the header and separator rows; the table ends at its first
    # non-row line.
    for line in itertools.takewhile(lambda row: row.startswith("|"),
                                    lines[start + 2:]):
        names = re.findall(r"`(\w+)`", line.split("|")[1])
        for name in names:
            keys.add(names[0].rsplit("_", 1)[0] + name
                     if name.startswith("_") else name)
    return keys


def test_telemetry_reference_table_matches_telemetry():
    """Two-way: every ``CampaignResult.telemetry()`` key is documented in
    docs/campaigns.md's telemetry reference, and every key the table
    names is live."""
    from repro.anafault import CampaignResult, CampaignSettings
    from repro.lift import FaultList

    live = set(CampaignResult(CampaignSettings(),
                              FaultList("empty", [])).telemetry())
    documented = _telemetry_table_keys(
        (ROOT / "docs" / "campaigns.md").read_text(encoding="utf-8"))
    assert not live - documented, (
        f"telemetry keys missing from docs/campaigns.md: "
        f"{sorted(live - documented)}")
    assert not documented - live, (
        f"docs/campaigns.md documents dead telemetry keys: "
        f"{sorted(documented - live)}")
