import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tapkit
import tapkit.util
from tapkit.core import ProposalSet, Subset, VideoRecord
from tapkit.engine import Dense, ReLU, Sequential, save_model
from tapkit.errors import TapkitError
from tapkit.ingest import (
    FeatureSequence,
    save_annotations,
    save_features,
    write_classification,
    write_localization,
    write_results,
)
from tapkit.pipeline import _write_csv
from tapkit.util import atomic_open, write_json_atomic

_IV = (1.0, 4.0)

# One call per artifact writer, each given only the target path.
WRITERS = {
    "save_annotations": lambda p: save_annotations(
        {"v": VideoRecord("v", 10.0, Subset.TRAINING, ("a",), [_IV[0]], [_IV[1]])}, p),
    "save_features": lambda p: save_features(FeatureSequence(np.ones((3, 2))), p),
    "write_results": lambda p: write_results(
        {"v": ProposalSet([_IV[0]], [_IV[1]], [0.5])}, p),
    "write_localization": lambda p: write_localization({"v": [("a", *_IV, 0.5)]}, p),
    "write_classification": lambda p: write_classification({"v": [("a", 1.0)]}, p),
    "save_model": lambda p: save_model(
        Sequential([Dense(2, 3, rng=np.random.default_rng(0)), ReLU()]), p),
    "write_json_atomic": lambda p: write_json_atomic(p, {"x": [1, 2.5]}),
    "_write_csv": lambda p: _write_csv(p, "epoch,loss", [(1, 0.25), (2, 0.125)]),
}


def _leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.rglob("*.tmp"))


class TestWriters:
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_success_creates_or_replaces_target(self, tmp_path, name):
        target = tmp_path / "nested" / "dir" / "artifact"
        WRITERS[name](target)
        written = target.read_bytes()
        target.write_bytes(b"previous bytes")
        WRITERS[name](target)
        assert target.read_bytes() == written
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("previous", [b"previous bytes", None])
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_replace_keeps_target(self, tmp_path, monkeypatch, name, previous):
        target = tmp_path / "artifact"
        if previous is not None:
            target.write_bytes(previous)

        def fail(src, dst):
            raise OSError("injected failure")

        monkeypatch.setattr(tapkit.util.os, "replace", fail)
        with pytest.raises(OSError, match="injected failure"):
            WRITERS[name](target)
        if previous is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == previous
        assert _leftovers(tmp_path) == []


class TestAtomicOpen:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_inside_block_keeps_target(self, tmp_path, error):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(error):
            with atomic_open(target) as f:
                f.write("half of a new file")
                raise error("interrupted mid-write")
        assert target.read_text() == "old\n"
        assert _leftovers(tmp_path) == []

    def test_unserializable_json_keeps_target(self, tmp_path):
        target = tmp_path / "report.json"
        write_json_atomic(target, {"ok": 1})
        before = target.read_bytes()
        with pytest.raises(TypeError):
            write_json_atomic(target, {"ok": object()})
        assert target.read_bytes() == before
        assert _leftovers(tmp_path) == []

    def test_json_layout(self, tmp_path):
        target = tmp_path / "report.json"
        write_json_atomic(target, {"b": 1, "a": [0.5]})
        assert target.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


class TestCsv:
    def test_rows_use_repr(self, tmp_path):
        target = tmp_path / "curve.csv"
        _write_csv(target, "an,ar", enumerate([0.1, 1 / 3], start=1))
        assert target.read_text() == "an,ar\n1,0.1\n2,0.3333333333333333\n"


# --------------------------------------------------------------------------
# guard: only util.py opens files for writing

_WRITE_METHODS = {"write_text", "write_bytes"}


def _write_calls(source: str) -> list[int]:
    """Line numbers of calls that open a file for writing or write one directly."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _WRITE_METHODS:
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) or path.open(mode); a mode that is not a literal counts
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                lines.append(node.lineno)
    return lines


def test_guard_detects_write_opens():
    assert _write_calls('open(p, "w")\nopen(p, mode="ab")\np.open("wb")\n') == [1, 2, 3]
    assert _write_calls('open(p, m)\np.write_text("x")\n') == [1, 2]
    assert _write_calls('open(p)\nopen(p, "rb")\nopen(p, "r", encoding="utf-8")\n') == []


def test_only_util_opens_files_for_writing():
    package = Path(tapkit.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "util.py":
            continue
        found = _write_calls(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}, "write artifacts through tapkit.util.atomic_open"


# --------------------------------------------------------------------------
# guard: every deliberate raise is a TapkitError, so the CLI maps it to its
# documented exit code


def _raised_names(source: str, allowed: set[str]) -> list[str]:
    """What each raise statement raises, unless it calls a name in allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # a bare raise re-raises the exception being handled
        called = isinstance(node.exc, ast.Call)
        exc = node.exc.func if called else node.exc
        if not (called and isinstance(exc, ast.Name) and exc.id in allowed):
            names.append(ast.unparse(exc))
    return names


def test_guard_detects_foreign_raises():
    source = ('raise ValueError("x")\nraise ConfigError("y") from exc\nraise\n'
              'raise exc\nraise errors.ConfigError("z")\n')
    assert _raised_names(source, {"ConfigError"}) == ["ValueError", "exc", "errors.ConfigError"]


def test_every_raise_is_a_tapkit_error():
    package = Path(tapkit.__file__).parent
    allowed = {cls.__name__ for cls in TapkitError.__subclasses__()}
    foreign = {}
    for path in sorted(package.glob("*.py")):
        names = _raised_names(path.read_text(encoding="utf-8"), allowed)
        if names:
            foreign[path.name] = names
    assert foreign == {}


# --------------------------------------------------------------------------
# guard: every public function, class, method and property is one the
# package itself uses


def _names(node: ast.AST) -> Counter:
    """Every bare name and attribute name under a node, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _attributes(node: ast.AST) -> Counter:
    """Every attribute name (`x.name`) and string constant (`getattr(x, "name")`)
    under a node, with multiplicity: the ways a method or property is reached."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.value
                   for n in ast.walk(node) if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node, counter of its uses) of each public module-level
    function and class and each public method or property of those classes.
    A member is used only as an attribute or a string constant; a bare name
    that shares its spelling is some other variable or function."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, _names
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, _attributes


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Each public definition whose name, or a name it is imported as,
    appears nowhere in the sources outside its own definition.

    Dunder methods are exempt, like every underscored name: the interpreter
    calls them (`len(x)`, `for row in x`), and static analysis cannot see
    whether some caller iterates an instance or takes its length. That is
    why `ProposalSet.__iter__` stays although no package code iterates a
    ProposalSet: perfbench's tracer reads a refined set's rows through it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {count: sum((count(tree) for tree in trees.values()), Counter())
            for count in (_names, _attributes)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                used[_names][node.name] += used[_names][node.asname]
    return sorted(
        name
        for module, tree in trees.items()
        for name, node, count in _public_definitions(module, tree)
        if used[count][node.name] == count(node)[node.name]
    )


def test_guard_detects_unreferenced_functions():
    sources = {
        "a": "def called():\n    pass\n\ndef by_attribute():\n    pass\n\n"
             "def by_alias():\n    pass\n\ndef imported_only():\n    pass\n\n"
             "def recursive():\n    return recursive()\n\ndef _private():\n    pass\n",
        "b": "from .a import by_alias as other, called, imported_only, recursive\n"
             "from . import a\n\n"
             "def entry():\n    return called(), a.by_attribute(), other()\n\n"
             "TABLE = {'entry': entry}\n",
    }
    assert _unreferenced(sources) == ["a.imported_only", "a.recursive"]


def test_guard_detects_unreferenced_members_and_classes():
    sources = {
        "a": "class Used:\n"
             "    def __len__(self):\n        return 0\n\n"
             "    def __iter__(self):\n        return iter(())\n\n"
             "    def called(self):\n        return self.unused_helper_free()\n\n"
             "    def unused_helper_free(self):\n        return 1\n\n"
             "    def unused(self):\n        return 2\n\n"
             "    @property\n    def size(self):\n        return 3\n\n"
             "    @property\n    def unread(self):\n        return 4\n\n"
             "    def _private(self):\n        return 5\n\n"
             "    @property\n    def shadowed(self):\n        return 6\n\n"
             "    def by_name(self):\n        return 7\n\n"
             "class Unused:\n    def make(self):\n        return Unused()\n",
        "b": "from .a import Unused, Used\n\n"
             "def entry(x: Used):\n    shadowed = x.called(), x.size\n"
             "    return shadowed, getattr(x, 'by_name')()\n\n"
             "def unused():\n    return entry\n\n"
             "TABLE = {'entry': entry, 'other': unused}\n",
    }
    assert _unreferenced(sources) == ["a.Unused", "a.Unused.make", "a.Used.shadowed",
                                      "a.Used.unread", "a.Used.unused"]


def test_every_public_function_is_used_by_the_package():
    package = Path(tapkit.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _unreferenced(sources) == [], "delete what only tests use"


# --------------------------------------------------------------------------
# guard: every import is used


def _unused_imports(source: str) -> list[str]:
    """Each name a module imports and never references as a bare name
    (`np` of `np.zeros` included); `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_detects_unused_imports():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "import numpy as np\nfrom typing import Iterable as It, NoReturn\n"
              "from .a import used, unused\nfrom . import b as c\n\n"
              "def f(x: It) -> NoReturn:\n    return np.zeros, os.path, used\n")
    assert _unused_imports(source) == ["json", "unused", "c"]


def test_every_import_is_used():
    package = Path(tapkit.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


# --------------------------------------------------------------------------
# guard: a seeded function gets its seed from its caller, never from a default;
# so does a layer its RNG and an optimizer its learning rate (the config's)

_CALLER_SUPPLIED = ("seed", "rng", "lr")


def _caller_supplied_defaults(source: str) -> list[str]:
    """Each function or lambda with a defaulted parameter named in _CALLER_SUPPLIED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        if any(arg.arg in _CALLER_SUPPLIED for arg in defaulted):
            found.append(getattr(node, "name", "<lambda>"))
    return found


def test_guard_detects_seed_defaults():
    source = ("def a(seed=0):\n    pass\n\ndef b(x, seed):\n    pass\n\n"
              "def c(seed, x=1):\n    pass\n\ndef d(*, seed=None):\n    pass\n\n"
              "def e(x=1, *, seed):\n    pass\n\ndef g(x, rng=None):\n    pass\n\n"
              "def h(params, lr=1e-3):\n    pass\n\ndef i(x, *, rng, dtype=1):\n    pass\n\n"
              "def j(params, lr):\n    pass\n\nf = lambda seed=3: seed\n")
    assert _caller_supplied_defaults(source) == ["a", "d", "g", "h", "<lambda>"]


def test_no_seed_parameter_has_a_default():
    package = Path(tapkit.__file__).parent
    found = {path.name: _caller_supplied_defaults(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {}


# --------------------------------------------------------------------------
# guard: a run's only inputs are its command line and its files, so no module
# reads or writes the process environment

_ENVIRONMENT = {"environ", "environb", "getenv", "putenv", "unsetenv"}


def _environment_uses(source: str) -> list[int]:
    """Line numbers that reach os's environment names, as an attribute of the
    os module under any alias or through `from os import`."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "os"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENVIRONMENT for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_detects_environment_reads():
    source = ('import os\nimport os as system\nfrom os import getenv, path\n'
              'from os import environb as env\nos.environ.get("A")\nsystem.putenv("A", "1")\n'
              'os.unsetenv("A")\nos.path.join("a")\nconfig.environ\nenviron = {}\n')
    assert _environment_uses(source) == [3, 4, 5, 6, 7]


def test_no_module_reads_the_environment():
    package = Path(tapkit.__file__).parent
    found = {path.name: _environment_uses(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
