import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_readme_python_blocks_run(capsys):
    # every ```python block of the README runs as written, so a public name the docs use that is
    # renamed or removed fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
