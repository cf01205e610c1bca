import ast
import re
import sys
from pathlib import Path

import hyperfib

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
