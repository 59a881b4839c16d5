"""The README's python examples run, and give the values their comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _checks(block):
    # each line `expression  # literal` whose comment is a python literal
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep:
            continue
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        yield code.strip(), expected


def test_readme_python_blocks_run_and_show_their_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    checked = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for code, expected in _checks(block):
            assert eval(code, namespace) == expected, code
            checked.append(expected)
    assert checked == [140, (551, 411), (24, 12, 12)]
