import re
from pathlib import Path

import hyperfib

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_are_documented():
    library = README.read_text().split("## Library", 1)[1]
    missing = [name for name in hyperfib.__all__ if not re.search(rf"\b{name}\b", library)]
    assert missing == []
