#!/usr/bin/env python
"""Docs lint: links resolve, fences are tagged, JSON examples parse.

Run from the repo root (CI runs it in the ``lint`` job)::

    python tools/check_docs.py

Checks, over ``README.md``, ``ROADMAP.md``, and ``docs/*.md``:

- every relative markdown link target exists on disk (external schemes
  are skipped), and anchored links — ``file.md#heading`` or the
  same-file ``#heading`` — point at a real heading (GitHub slugging);
- every opening code fence declares a language (untagged fences render
  unhighlighted and usually mean a typo'd block);
- every ` ```json ` fence parses as JSON — the wire-protocol spec's
  frames must at minimum *be* JSON before ``tests/test_docs_examples.py``
  round-trips them through the codecs;
- every packed-frame tag (a ``*_FRAME_TAG`` constant in
  ``src/repro/serve/wire.py``) is an alternative of the ``payload :=``
  grammar in ``docs/wire-protocol.md``;
- every wire-frame example (a JSON fence whose object carries a
  ``"kind"``) names a frame kind that actually exists in
  ``src/repro/serve/wire.py`` — a doc example for a codec nobody wrote
  (typo'd kind, stale rename) fails here even before the round-trip
  suite runs;
- every optional field a decoder reads is specified: each literal
  ``record.get("field")`` inside a ``*_from_wire`` or ``*_trace*``
  function of ``src/repro/serve/wire.py`` (``trace_id``, ``trace``,
  ``have``, ``tag``, ``same``, …) is named in ``docs/wire-protocol.md``,
  backticked or as a JSON key, so a new optional field cannot ship
  without its spec text;
- every wire method has its section: each row of the method table
  (``src/repro/serve/methods.py``) and each other ``REQUEST_METHODS``
  name has a ``### Method: `name` `` heading in
  ``docs/wire-protocol.md`` (one heading may name several), and every
  such heading names only methods the table serves;
- every cited test exists: a ``tests/….py`` path names a real file, and
  each test named after it — ``tests/x.py`` followed by a parenthesised
  list of `` `test_y` `` / `` `TestZ` `` / `` `TestZ.test_y` `` names, or
  ``tests/x.py::TestZ::test_y`` — names a real function, class or
  method in that file, so renaming a test cannot leave a rule table
  citing a guard that no longer runs.

Exits non-zero listing every finding, so CI shows all failures at once.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — good enough for these docs (no nested brackets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(.*)$")
_SCHEMES = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    files = [ROOT / "README.md", ROOT / "ROADMAP.md"]
    files += sorted((ROOT / "docs").glob("*.md"))
    return [path for path in files if path.exists()]


def slugify(heading: str) -> str:
    """GitHub-style heading anchor: lowercase, drop punctuation,
    spaces to hyphens (each space independently, so runs survive)."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return text.replace(" ", "-")


def headings(path: Path) -> set[str]:
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            slugs.add(slugify(line.lstrip("#")))
    return slugs


def check_links(path: Path, problems: list[str]) -> None:
    in_fence = False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_SCHEMES):
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (path.parent / file_part).resolve() if file_part \
                else path
            if file_part and not resolved.exists():
                problems.append(
                    f"{path.relative_to(ROOT)}:{number}: broken link "
                    f"target {target!r}"
                )
                continue
            if anchor and resolved.suffix == ".md" \
                    and anchor not in headings(resolved):
                problems.append(
                    f"{path.relative_to(ROOT)}:{number}: anchor "
                    f"{target!r} matches no heading in "
                    f"{resolved.relative_to(ROOT)}"
                )


#: Frame-kind literals in serve/wire.py: encoder dict literals
#: (``"kind": "batch"``) and decoder expectations
#: (``_expect_kind(record, "checkpoint")``).
_WIRE_KIND_LITERAL = re.compile(r'"kind":\s*"(\w+)"')
_WIRE_KIND_EXPECT = re.compile(r'_expect_kind\([^,]+,\s*"(\w+)"\)')


def wire_frame_kinds() -> set[str]:
    """Every frame kind ``serve/wire.py`` can encode or decode."""
    source = (ROOT / "src" / "repro" / "serve" / "wire.py").read_text(
        encoding="utf-8")
    return set(_WIRE_KIND_LITERAL.findall(source)) \
        | set(_WIRE_KIND_EXPECT.findall(source))


def check_frame_kinds(path: Path, block: dict, open_line: int,
                      problems: list[str], known: set[str]) -> None:
    """A doc frame example must name a codec that exists in wire.py.

    Inner records of bundle frames are complete frames themselves, so
    they are checked recursively.
    """
    kind = block.get("kind")
    if kind is not None and kind not in known:
        problems.append(
            f"{path.relative_to(ROOT)}:{open_line}: frame example names "
            f"kind {kind!r} but serve/wire.py has no such codec"
        )
    for value in block.values():
        if isinstance(value, dict):
            check_frame_kinds(path, value, open_line, problems, known)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    check_frame_kinds(path, item, open_line, problems,
                                      known)


#: ``NAME_FRAME_TAG = 0x01`` constants in serve/wire.py.
_WIRE_FRAME_TAG = re.compile(r"^(\w+_FRAME_TAG)\s*=\s*(0x[0-9A-Fa-f]+)\b",
                             re.MULTILINE)
#: One ``0x..`` alternative of the spec's ``payload :=`` grammar.
_GRAMMAR_TAG = re.compile(r"^\s*(?:payload\s*:=|\|)\s*(0x[0-9A-Fa-f]+)\b")


def payload_grammar_tags(spec: Path) -> set[int]:
    """Tag bytes the ``payload :=`` grammar of ``spec`` lists: its first
    line and the ``|`` alternatives right below it."""
    tags: set[int] = set()
    inside = False
    for line in spec.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("payload :="):
            inside = True
        elif not (inside and stripped.startswith("|")):
            inside = False
        match = _GRAMMAR_TAG.match(line) if inside else None
        if match:
            tags.add(int(match.group(1), 16))
    return tags


def check_frame_tags(problems: list[str]) -> None:
    """Every packed frame tag in wire.py is documented in the grammar, so
    a new binary codec cannot ship without its spec line."""
    spec = ROOT / "docs" / "wire-protocol.md"
    documented = payload_grammar_tags(spec)
    source = (ROOT / "src" / "repro" / "serve" / "wire.py").read_text(
        encoding="utf-8")
    for name, tag in _WIRE_FRAME_TAG.findall(source):
        if int(tag, 16) not in documented:
            problems.append(
                f"{spec.relative_to(ROOT)}: serve/wire.py {name} = {tag} "
                f"has no alternative in the `payload :=` grammar"
            )


def optional_wire_fields() -> dict[str, str]:
    """Field name -> the first decoder reading it: every literal
    ``x.get("field")`` inside a ``*_from_wire`` or ``*_trace*`` function
    of ``serve/wire.py``."""
    tree = ast.parse((ROOT / "src" / "repro" / "serve" / "wire.py")
                     .read_text(encoding="utf-8"))
    fields: dict[str, str] = {}
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef) or not (
                function.name.endswith("_from_wire")
                or "_trace" in function.name):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                fields.setdefault(node.args[0].value, function.name)
    return fields


def check_optional_fields(problems: list[str]) -> None:
    """The spec names every field a decoder reads with ``.get``."""
    spec = ROOT / "docs" / "wire-protocol.md"
    text = spec.read_text(encoding="utf-8")
    for field, decoder in sorted(optional_wire_fields().items()):
        if f"`{field}`" not in text and f'"{field}"' not in text:
            problems.append(
                f"{spec.relative_to(ROOT)}: serve/wire.py {decoder} reads "
                f"field {field!r}, which the spec never names")


def served_methods() -> set[str]:
    """Every method ``serve/methods.py`` serves: the names of its
    ``Method(...)`` rows plus the extra ``REQUEST_METHODS`` literals."""
    tree = ast.parse((ROOT / "src" / "repro" / "serve" / "methods.py")
                     .read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "Method" and node.args \
                and isinstance(node.args[0], ast.Constant):
            names.add(node.args[0].value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id == "REQUEST_METHODS"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
    return names


def check_method_sections(problems: list[str]) -> None:
    """The spec has one ``### Method:`` section per served method and
    none for a method nobody serves."""
    spec = ROOT / "docs" / "wire-protocol.md"
    served = served_methods()
    documented: set[str] = set()
    for number, line in enumerate(
            spec.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.startswith("### Method:"):
            continue
        for name in re.findall(r"`(\w+)`", line):
            documented.add(name)
            if name not in served:
                problems.append(
                    f"{spec.relative_to(ROOT)}:{number}: heading names "
                    f"method {name!r}, which serve/methods.py does not "
                    f"serve")
    for name in sorted(served - documented):
        problems.append(
            f"{spec.relative_to(ROOT)}: serve/methods.py serves {name!r} "
            f"but no `### Method:` heading names it")


#: A backticked test file path.
_TEST_PATH = re.compile(r"`(tests/[\w/]+\.py)")
#: ``tests/x.py`` followed by a parenthesised name list (may wrap lines).
_TEST_CITATION = re.compile(r"`(tests/[\w/]+\.py)`\s*\(([^)]*)\)")
#: ``tests/x.py::TestZ::test_y`` (may wrap after a ``::``).
_TEST_NODE = re.compile(r"(tests/[\w/]+\.py)::\s*(\w+(?:::\w+)*)")
#: One test name inside a citation list; prose there is ignored.
_CITED_NAME = re.compile(r"`((?:Test\w*\.)?(?:test_\w+|Test\w+))`")


def defined_names(source: Path) -> set[str]:
    """``name`` for every top-level function and class of a test module,
    ``Class.method`` for every method (inherited from a base class in
    the same module included), and bare ``method`` names too."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def methods(node: ast.ClassDef) -> set[str]:
        found = {item.name for item in node.body
                 if isinstance(item, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))}
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                found |= methods(classes[base.id])
        return found

    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name, node in classes.items():
        names.add(name)
        for method in methods(node):
            names.update((method, f"{name}.{method}"))
    return names


def check_test_citations(path: Path, problems: list[str]) -> None:
    """Every cited test file exists and every cited test is in it."""
    text = path.read_text(encoding="utf-8")
    cache: dict[str, set[str] | None] = {}

    def report(offset: int, message: str) -> None:
        line = text.count("\n", 0, offset) + 1
        problems.append(f"{path.relative_to(ROOT)}:{line}: {message}")

    def names_in(rel: str) -> set[str] | None:
        if rel not in cache:
            source = ROOT / rel
            cache[rel] = defined_names(source) if source.exists() else None
        return cache[rel]

    for match in _TEST_PATH.finditer(text):
        if names_in(match.group(1)) is None:
            report(match.start(), f"cites missing test file "
                                  f"{match.group(1)!r}")
    cited = [(match.start(), match.group(1), name.group(1))
             for match in _TEST_CITATION.finditer(text)
             for name in _CITED_NAME.finditer(match.group(2))]
    cited += [(match.start(), match.group(1),
               match.group(2).replace("::", "."))
              for match in _TEST_NODE.finditer(text)]
    for offset, rel, name in cited:
        known = names_in(rel)
        if known is not None and name not in known:
            report(offset, f"cites {rel} ({name}), which does not "
                           f"define it")


def check_fences(path: Path, problems: list[str],
                 known_kinds: set[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    open_line = None
    language = None
    body: list[str] = []
    for number, line in enumerate(lines, start=1):
        match = _FENCE.match(line)
        if match is None:
            if open_line is not None:
                body.append(line)
            continue
        if open_line is None:
            open_line, language = number, match.group(1).strip()
            body = []
            if not language:
                problems.append(
                    f"{path.relative_to(ROOT)}:{number}: code fence "
                    f"without a language tag"
                )
        else:
            if language == "json":
                try:
                    block = json.loads("\n".join(body))
                except json.JSONDecodeError as exc:
                    problems.append(
                        f"{path.relative_to(ROOT)}:{open_line}: json "
                        f"fence does not parse: {exc}"
                    )
                else:
                    if isinstance(block, dict):
                        check_frame_kinds(path, block, open_line,
                                          problems, known_kinds)
            open_line, language = None, None
    if open_line is not None:
        problems.append(
            f"{path.relative_to(ROOT)}:{open_line}: unclosed code fence"
        )


def main() -> int:
    problems: list[str] = []
    files = doc_files()
    known_kinds = wire_frame_kinds()
    for path in files:
        check_links(path, problems)
        check_fences(path, problems, known_kinds)
        check_test_citations(path, problems)
    check_frame_tags(problems)
    check_optional_fields(problems)
    check_method_sections(problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} files: "
          f"{'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
