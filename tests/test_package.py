import ast
import os
import re

import chiralqed

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "chiralqed")


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


def test_src_holds_no_test_only_code():
    """Each function, class and method under src/ is named somewhere there
    besides its own definition; __init__.py does not count.  A name that only
    the tests use belongs in tests/."""
    texts = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                texts[name] = handle.read()
    unused = []
    for name, text in texts.items():
        tree = ast.parse(text)
        methods = [m for node in tree.body if isinstance(node, ast.ClassDef) for m in node.body]
        lines = text.splitlines()
        for node in tree.body + methods:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or re.fullmatch(
                r"__\w+__", node.name
            ):
                continue
            word = re.compile(rf"\b{node.name}\b")
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[start - 1:node.end_lineno])
            if sum(len(word.findall(t)) for t in texts.values()) == len(word.findall(own)):
                unused.append(f"{name}:{node.name}")
    assert unused == []
