import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import hyperfib
from hyperfib.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
