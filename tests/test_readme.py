"""The README's library tour runs as written, and each value it shows after
`# ->` is what the line gives."""

import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    """The first python block under "## Library tour"."""
    section = README.read_text().split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_shows_what_it_computes():
    block = library_tour()
    lines = block.splitlines()
    namespace = {}
    shown = 0
    for node in ast.parse(block).body:
        _, arrow, expected = lines[node.end_lineno - 1].partition("# ->")
        if not arrow:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        np.testing.assert_allclose(np.array(value, dtype=float),
                                   np.array(ast.literal_eval(expected.strip()), dtype=float),
                                   rtol=0, atol=1e-12)
        shown += 1
    assert shown == 4
