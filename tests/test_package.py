import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import hyperfib
import hyperfib.sequences as sequences
from hyperfib.cassini import SecondOrderPair
from hyperfib.cli import main
from hyperfib.exact_linalg import IntMatrix, Polynomial, _Record
from hyperfib.qmatrix import build_q
from hyperfib.verify import Failure, VerifyReport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def _cli_examples():
    """(argv, shown lines) of every `$ hyperfib ...` example that shows output."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            argv = shlex.split(command, comments=True)
            if argv[0] == "hyperfib" and shown:
                examples.append((argv[1:], shown))
    return examples


# stdlib modules the package would load only for one rarely used path
OFF_THE_START_UP_PATH = ["dataclasses", "inspect", "fractions", "decimal", "json", "typing"]


def _fresh(*argv):
    """stdout of a fresh `python -S` (no site hooks) that imports this src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_start_up_skips_heavy_modules():
    script = ("import sys, hyperfib.cli; "
              f"print([m for m in {OFF_THE_START_UP_PATH!r} if m in sys.modules])")
    assert _fresh("-c", script) == "[]\n"


def test_sequences_keeps_no_function_cache():
    # every term route computes what it needs per call: no function of the
    # module is wrapped in a cache that would hold values between calls
    cached = [name for name, f in vars(sequences).items() if hasattr(f, "cache_info")]
    assert cached == []


def test_walk_maps_the_same_blocks_cold_and_after_a_longer_walk():
    # the rows of binomials a walk maps its block with depend only on
    # (r, n): two rows, the columns' and the block's start, for the one
    # block of a walk of 240 steps, in a fresh process and again after a
    # walk of 640 steps
    script = ("import hyperfib.sequences as s\n"
              "rows, binomials, calls = [], s._binomials, []\n"
              "s._binomials = lambda x, m: rows.append((x, m)) or binomials(x, m)\n"
              "for n in (240, 640, 240):\n"
              "    s._recurrence(16, n)\n"
              "    calls.append(rows[:])\n"
              "    rows.clear()\n"
              "print(calls[0] == calls[2], len(calls[0]))\n")
    assert _fresh("-c", script) == "True 2\n"


def test_deferred_imports_load_when_used():
    script = ("from hyperfib import infer_recurrence; "
              "found = infer_recurrence([4, 2, 1], 1); "
              "from fractions import Fraction; "
              "print(found == [Fraction(1, 2)])")
    assert _fresh("-c", script) == "True\n"
    assert (_fresh("-m", "hyperfib", "term", "--r", "2", "--n", "9", "--format", "json")
            == '{"r": 2, "n": 9, "value": "221"}\n')


RECORDS = [
    IntMatrix(2, (1, 2, 3, 4)),
    Polynomial((-1, 0, 1)),
    SecondOrderPair(1, -2, 3, 4, 5, -6),
    build_q(1),
    Failure("r=1 n=0", 7, 1),
    VerifyReport("qdet", 1, (), 0.5),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda rec: type(rec).__name__)
def test_records_are_immutable_values(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1   # __slots__ = () leaves no instance dict
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert twin == tuple(record)   # a namedtuple equals the tuple of its fields
    assert record._replace(**{field: getattr(record, field)}) == record


def test_every_record_refuses_tuple_arithmetic_through_the_base():
    # a tuple subclass outside _Record would keep tuple + and *
    modules = [importlib.import_module(f"hyperfib.{path.stem}")
               for path in (ROOT / "src" / "hyperfib").glob("*.py")
               if not path.stem.startswith("__")]
    records = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__}
    assert records == {type(record) for record in RECORDS}
    assert [type(r).__name__ for r in RECORDS if not isinstance(r, _Record)] == []


def test_record_reprs_name_their_fields():
    # general-suite failure labels embed the pair's repr
    assert (repr(SecondOrderPair(1, -2, 3, 4, 5, -6))
            == "SecondOrderPair(alpha=1, beta=-2, a0=3, a1=4, b0=5, b1=-6)")
    assert repr(Failure("r=1", 0, -1)) == "Failure(case='r=1', computed=0, expected=-1)"


def _public_definitions():
    """(module, qualified name) of each public module-level def, class and
    assignment in the package, and of each public method or property."""
    found = []
    for path in sorted((ROOT / "src" / "hyperfib").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(path.stem, name.id) for target in targets
                          for name in ast.walk(target) if isinstance(name, ast.Name)]
            if isinstance(node, ast.ClassDef):
                found += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                          if isinstance(item, ast.FunctionDef)]
    return [(module, name) for module, name in found
            if not any(part.startswith("_") for part in name.split("."))]


def _referenced_names(path):
    """Every name a file uses, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller():
    # a public name that only the unit tests call is not part of the
    # product; benchmark/tracer.py's LAYERS wraps its names by string
    callers = [*(ROOT / "src" / "hyperfib").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py",
               *(ROOT / "benchmark").glob("*.py")]
    referenced = set().union(*map(_referenced_names, callers))
    tracer = ast.parse((ROOT / "benchmark" / "tracer.py").read_text())
    [layers] = [set(ast.literal_eval(node.value)) for node in tracer.body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["LAYERS"]]
    uncalled = [f"{module}.{name}" for module, name in _public_definitions()
                if name.rpartition(".")[2] not in referenced
                and (module, name) not in layers]
    assert uncalled == []


def test_public_names_are_documented():
    library = README.read_text().split("## Library", 1)[1]
    missing = [name for name in hyperfib.__all__ if not re.search(rf"\b{name}\b", library)]
    assert missing == []


def test_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "hyperfib").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# each module imports only modules of a lower layer; cassini and qmatrix
# share one, so neither imports the other
LAYERS = {"exact_linalg": 0, "sequences": 1, "cassini": 2, "qmatrix": 2, "verify": 3, "cli": 4}


def _package_imports(tree):
    """The hyperfib module each import in the tree loads ("__init__" for the package)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "hyperfib":
            found += [node.module.partition(".")[2] or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name.partition(".")[2] or "__init__" for a in node.names
                      if a.name.split(".")[0] == "hyperfib"]
    return [module.split(".")[0] for module in found]


def _layered_modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "hyperfib").glob("*.py"))
            if path.stem not in ("__init__", "__main__")}


def test_no_function_imports_a_package_module():
    deferred = [f"{stem}.{fn.name}: {module}"
                for stem, tree in _layered_modules().items()
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for module in _package_imports(fn)]
    assert deferred == []


def test_modules_import_only_lower_layers():
    modules = _layered_modules()
    assert sorted(modules) == sorted(LAYERS)
    upward = [f"{stem} -> {module}" for stem, tree in modules.items()
              for module in _package_imports(tree)
              if LAYERS.get(module, len(LAYERS)) >= LAYERS[stem]]
    assert upward == []


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=" ".join(argv)) for argv, shown in _cli_examples()])
def test_readme_cli_examples(argv, shown):
    # "..." stands for any run of lines; verify's "(0.00s)" for any time
    def mask(text):
        return re.sub(r"\(\d+\.\d+s\)", "(Ts)", text)

    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(mask(line)) + r"\n"
                      for line in shown)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert re.fullmatch(pattern, mask(out.getvalue())), out.getvalue()


def _library_example():
    """The python block under "## Library": (statement, trailing comment) pairs."""
    library = README.read_text().split("## Library", 1)[1]
    source = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    trailing = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.line[:tok.start[1]].strip():
            trailing[tok.start[0]] = tok.string[1:].strip()
    return [(stmt, trailing.get(stmt.end_lineno)) for stmt in ast.parse(source).body]


def test_readme_library_example():
    # a trailing comment that is a Python literal is the value shown for
    # its expression; any other statement only has to run
    namespace, checked = {}, 0
    for stmt, comment in _library_example():
        try:
            shown = ast.literal_eval(comment)
        except (ValueError, SyntaxError):   # no comment, or prose
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == shown, ast.unparse(stmt)
        checked += 1
    assert checked >= 10


def test_failing_property_does_not_abort_the_run(tmp_path):
    # a failing @given test reports through hypothesis, whose report hook
    # imports a module that warns on import; the project's warnings-as-errors
    # setting must not turn that into an internal error that ends the run
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
