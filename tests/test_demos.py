"""Every walkthrough in demos/ runs to the end, and the README's library tour does what it says."""

import ast
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def library_tour():
    """Run README's "Library tour" block: (comment, value) of each expression statement."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, out = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            out.append((lines[node.end_lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return out


def test_the_readme_library_tour_does_what_its_comments_say():
    (status_note, status), (alpha_note, alpha), (interval_note, interval) = library_tour()
    assert status == "FAITHFUL_STATE_FOUND" and status_note == repr(status)
    assert alpha_note.startswith("200/21") and abs(alpha - 200.0 / 21.0) <= 1e-12
    assert interval_note == "collapsed interval, attainable"
    assert interval.attainable and interval.lower == interval.upper
