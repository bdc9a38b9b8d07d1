"""Documentation hygiene: code snippets parse, referenced names exist."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]


#: An inline code span (not a fenced block's backticks).
INLINE_CODE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
#: A dotted name, optionally called: `a.b.c` or `A.b(x)`.
DOTTED_NAME = re.compile(r"(\w+(?:\.\w+)+)(?:\(.*\))?")


def repro_classes():
    """``{name: class}`` of every class defined in a repro module."""
    import repro

    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                assert classes.setdefault(name, obj) is obj, (
                    f"two repro classes named {name}")
    return classes


def has_member(obj, attr):
    """True when ``obj`` has ``attr``, a dataclass's fields included."""
    return hasattr(obj, attr) or (
        inspect.isclass(obj) and dataclasses.is_dataclass(obj)
        and attr in {f.name for f in dataclasses.fields(obj)})


def python_blocks(path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def repro_imports(tree, where):
    """``{local name: object}`` of a block's ``from repro... import``s;
    a name that resolves neither as an attribute nor as a submodule
    fails the test."""
    imported = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            pytest.fail(f"{where}: cannot import {node.module}")
        for alias in node.names:
            try:
                obj = getattr(module, alias.name)
            except AttributeError:
                try:
                    obj = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ImportError:
                    pytest.fail(f"{where}: cannot import {alias.name} "
                                f"from {node.module}")
            imported[alias.asname or alias.name] = obj
    return imported


class TestDocSnippets:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_python_blocks_parse(self, path):
        for i, block in enumerate(python_blocks(path)):
            try:
                ast.parse(block)
            except SyntaxError as exc:  # pragma: no cover - failure path
                pytest.fail(f"{path.name} block {i}: {exc}")

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_repro_imports_and_keywords_resolve(self, path):
        """Every ``from repro... import`` in a Python block resolves, and
        every keyword a block passes to a callable it imported from
        repro is a parameter of that callable."""
        for i, block in enumerate(python_blocks(path)):
            where = f"{path.name} block {i}"
            tree = ast.parse(block)
            imported = repro_imports(tree, where)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in imported):
                    continue
                params = inspect.signature(imported[node.func.id]).parameters
                if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                    continue
                for keyword in node.keywords:
                    assert keyword.arg is None or keyword.arg in params, (
                        f"{where}: {node.func.id}() takes no "
                        f"{keyword.arg}=")

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_backticked_names_resolve(self, path):
        """Every backticked `repro.x.y` dotted name, and every backticked
        `Class.member` whose class is a repro class, resolves: the module
        imports and each attribute after it exists (a dataclass field
        counts).  A trailing argument list (`Job.fingerprint()`) is
        allowed; file names such as `DESIGN.md` name no repro class."""
        classes = repro_classes()
        for span in INLINE_CODE.findall(path.read_text()):
            name = DOTTED_NAME.fullmatch(span)
            if name is None:
                continue
            head, *attrs = name.group(1).split(".")
            if head == "repro":
                # Import the longest importable prefix, then walk
                # attributes (class members named as module.Class.method).
                for i in range(len(attrs), -1, -1):
                    try:
                        obj = importlib.import_module(
                            ".".join(["repro"] + attrs[:i]))
                    except ImportError:
                        continue
                    attrs = attrs[i:]
                    break
            elif head in classes:
                obj = classes[head]
            else:
                continue
            for attr in attrs:
                assert has_member(obj, attr), f"{path.name}: `{span}`"
                obj = getattr(obj, attr, None)

    def test_experiments_lists_every_benchmark(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
            assert bench.name in text, f"{bench.name} missing from EXPERIMENTS.md"

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for line in re.findall(r"python (examples/\w+\.py)", text):
            assert (ROOT / line).exists(), line


class TestDocLinks:
    """Relative markdown links must resolve to real files (run in CI's
    lint job as the docs link-integrity gate)."""

    LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        for target in self.LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{path.name}: broken link {target!r}"

    def test_backticked_paths_exist(self):
        """File-looking `path` references in README/EXPERIMENTS exist; a
        path that .gitignore lists as an exact line is a run's output,
        not part of a checkout, so only its directory must exist."""
        ignored = set((ROOT / ".gitignore").read_text().splitlines())
        for doc in (ROOT / "README.md", ROOT / "EXPERIMENTS.md"):
            for ref in re.findall(r"`((?:docs|examples|benchmarks|tests)/"
                                  r"[\w./]+)`", doc.read_text()):
                if ref in ignored:
                    assert (ROOT / ref).parent.is_dir(), (
                        f"{doc.name}: ignored output {ref!r} has no "
                        f"directory")
                else:
                    assert (ROOT / ref).exists(), (
                        f"{doc.name}: {ref!r} missing")
