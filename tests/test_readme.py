"""The README's Library example runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

import nosignal

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_block(source: str) -> list[tuple[str, object]]:
    """Run ``source`` statement by statement; return, per expression, the
    comment stating its result (the one ending its line, else a comment
    line right after it) and the value it gave."""
    lines = source.splitlines()
    namespace = {}
    results = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not comment and node.end_lineno < len(lines):
            comment = lines[node.end_lineno].strip()
        assert comment.startswith("#"), f"no stated result for {code!r}"
        results.append((comment[1:].strip(), eval(code, namespace)))
    return results


def test_library_example_gives_the_stated_results():
    results = run_block(library_block())
    assert [comment for comment, _ in results] == [
        "Found", "Impossible", "True", "{('L', 0, ((0, 'request', 'task1'),)): ('R',)}",
    ]
    for comment, value in results:
        if comment in nosignal.__all__:
            assert type(value) is getattr(nosignal, comment)
        else:
            expected = ast.literal_eval(comment)
            assert type(value) is type(expected) and value == expected
