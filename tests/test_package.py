import os
import re

import chiralqed

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_export_is_an_attribute():
    missing = [name for name in chiralqed.__all__ if not hasattr(chiralqed, name)]
    assert missing == []


def test_readme_python_blocks_run(capsys):
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
