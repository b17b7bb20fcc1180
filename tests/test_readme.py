"""The README's library example runs verbatim and prints what it says,
and its Public API list is the package's __all__."""

import ast
import contextlib
import io
import re
from pathlib import Path

import z4dc

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    l_hat, items = out.getvalue().splitlines()
    assert l_hat == "3x^2+1"
    counts = ast.literal_eval(items)
    assert counts == sorted(counts) and counts[0] == (0, 1)
    assert sum(n for _, n in counts) == 4 ** 4


def public_api() -> list[str]:
    """The backticked names of the bullets of the README's Public API
    section."""
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.findall(r"^\* .*(?:\n  .*)*", section, re.M)
    return [name for b in bullets for name in re.findall(r"`(\w+)`", b)]


def test_public_api_list_is_all():
    listed = public_api()
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(z4dc.__all__)
