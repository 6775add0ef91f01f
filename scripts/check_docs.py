#!/usr/bin/env python3
"""Docs lint for CI: link integrity + example-header sync.

Checks, with zero dependencies beyond the stdlib:

1. every relative markdown link in README.md and docs/*.md points at a
   file or directory that exists (external ``scheme://`` links and
   GitHub-web-relative links that escape the repo are skipped), and every
   ``#fragment`` on an intra-repo markdown link names a real heading
   (GitHub anchor slugs);
2. every ``examples/*.py`` opens with a module docstring whose ``Run:``
   stanza names its own file (``python examples/<name>.py``), so headers
   cannot drift when examples are renamed or copied;
3. every protocol module — ``src/repro/baselines/*.py`` and
   ``src/repro/core/protocols.py`` — opens with a module docstring (the
   plugin modules *are* the protocol documentation);
4. every protocol name in the ``core/protocols.py`` registry table is
   documented in both README.md and docs/ARCHITECTURE.md, so a newly
   registered plugin cannot ship undocumented (and a renamed one cannot
   leave stale docs behind);
5. every recognized value of the knob name tuples — chaos fault classes
   (``harness/chaos.py``), placement policies (``core/placement.py``),
   and tracing pipeline stages (``obs/trace.py``) — is documented in
   both README.md and docs/ARCHITECTURE.md, same rationale as the
   protocol registry.

Exit code 0 when clean; prints every violation and exits 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces → dashes."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(md_path: Path) -> set[str]:
    text = md_path.read_text(encoding="utf-8")
    return {github_slug(h) for h in HEADING_RE.findall(text)}


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for link in LINK_RE.findall(text):
            if "://" in link or link.startswith("mailto:"):
                continue
            path_part, _, fragment = link.partition("#")
            if path_part:
                target = (doc.parent / path_part).resolve()
                try:
                    target.relative_to(REPO)
                except ValueError:
                    continue  # GitHub-web-relative (e.g. ../../actions/...)
                if not target.exists():
                    errors.append(
                        f"{doc.relative_to(REPO)}: broken link -> {link}")
                    continue
            else:
                target = doc
            if fragment and target.suffix == ".md" and target.is_file():
                if fragment not in anchors_of(target):
                    errors.append(
                        f"{doc.relative_to(REPO)}: dead anchor -> {link}")
    return errors


def check_example_headers() -> list[str]:
    errors = []
    for example in sorted((REPO / "examples").glob("*.py")):
        rel = example.relative_to(REPO)
        text = example.read_text(encoding="utf-8")
        match = re.search(r'"""(.*?)"""', text, re.DOTALL)
        if not match:
            errors.append(f"{rel}: no module docstring")
            continue
        doc = match.group(1)
        run_line = f"python examples/{example.name}"
        if "Run:" not in doc or run_line not in doc:
            errors.append(
                f"{rel}: docstring must carry a 'Run:' stanza naming "
                f"'{run_line}'")
    return errors


PROTOCOL_MODULES = [
    REPO / "src" / "repro" / "core" / "protocols.py",
    *sorted((REPO / "src" / "repro" / "baselines").glob("*.py")),
]

#: the registry's lazy table is the source of truth for protocol names
REGISTRY_RE = re.compile(r'^\s*"(\w+)":\s*"repro\.[\w.]+",\s*$', re.MULTILINE)


def check_protocol_modules() -> list[str]:
    errors = []
    for module in PROTOCOL_MODULES:
        rel = module.relative_to(REPO)
        text = module.read_text(encoding="utf-8")
        if not re.match(r'^(#![^\n]*\n)?("""|\'\'\')', text):
            errors.append(f"{rel}: protocol module must open with a "
                          "module docstring")
    return errors


def registered_protocols() -> list[str]:
    text = (REPO / "src" / "repro" / "core" / "protocols.py").read_text(
        encoding="utf-8")
    return REGISTRY_RE.findall(text)


def check_protocols_documented() -> list[str]:
    errors = []
    protocols = registered_protocols()
    if not protocols:
        return ["core/protocols.py: no protocol registry entries found "
                "(_LAZY_MODULES table missing or reshaped?)"]
    for doc in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"):
        text = doc.read_text(encoding="utf-8")
        for protocol in protocols:
            # Require the code-formatted name: a plain substring match
            # would let incidental prose ("obscure", "GST machinery")
            # satisfy the guard for short names.
            if f"`{protocol}`" not in text:
                errors.append(
                    f"{doc.relative_to(REPO)}: registered protocol "
                    f"{protocol!r} is undocumented (expected `{protocol}` "
                    "in code format)")
    return errors


#: knob-name tuples whose every value must appear (code-formatted) in the
#: docs: (source file, tuple variable name)
KNOB_TUPLES = [
    (REPO / "src" / "repro" / "harness" / "chaos.py", "FAULT_CLASSES"),
    (REPO / "src" / "repro" / "core" / "placement.py", "PLACEMENT_POLICIES"),
    (REPO / "src" / "repro" / "obs" / "trace.py", "STAGES"),
]


def knob_values(path: Path, var: str) -> list[str]:
    text = path.read_text(encoding="utf-8")
    match = re.search(rf'^{var}\s*=\s*\(([^)]*)\)', text, re.MULTILINE)
    if not match:
        return []
    return re.findall(r'"(\w+)"', match.group(1))


def check_knobs_documented() -> list[str]:
    errors = []
    for path, var in KNOB_TUPLES:
        values = knob_values(path, var)
        if not values:
            errors.append(f"{path.relative_to(REPO)}: knob tuple {var} not "
                          "found (renamed or reshaped?)")
            continue
        for doc in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"):
            text = doc.read_text(encoding="utf-8")
            for value in values:
                if f'`"{value}"`' not in text and f"`{value}`" not in text:
                    errors.append(
                        f"{doc.relative_to(REPO)}: {var} value "
                        f"{value!r} is undocumented (expected `\"{value}\"` "
                        "in code format)")
    return errors


def main() -> int:
    errors = (check_links() + check_example_headers()
              + check_protocol_modules() + check_protocols_documented()
              + check_knobs_documented())
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    n_knobs = sum(len(knob_values(path, var)) for path, var in KNOB_TUPLES)
    print(f"check_docs: links ok ({checked}); "
          f"{len(list((REPO / 'examples').glob('*.py')))} example headers ok; "
          f"{len(PROTOCOL_MODULES)} protocol modules ok; "
          f"{len(registered_protocols())} registered protocols documented; "
          f"{n_knobs} knob values documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
