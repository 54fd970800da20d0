import ast
import importlib
import os
import re

import chiralqed

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "chiralqed")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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


MODULES = (
    "fock_algebra", "model", "collective", "truncated_oracle",
    "dynamics", "observables", "dark_state", "cli",
)


def test_readme_cites_only_names_that_exist():
    """Each `module.name` in a code span of README.md, for a module of the
    package, is an attribute of chiralqed.<module>: a deleted or renamed
    name cannot linger in the docs."""
    with open(README, encoding="utf-8") as handle:
        spans = re.findall(r"`([^`\n]+)`", handle.read())
    cited = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.(\w+)")
    names = sorted({match for span in spans for match in cited.findall(span)})
    assert ("model", "lindblad") in names
    missing = [
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"chiralqed.{module}"), name)
    ]
    assert missing == []


def _trees(directory: str) -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _defaulted(tree: ast.Module) -> list[tuple[str, int | None, str, bool]]:
    """(callee, index, name, is_field) of each defaulted parameter of a
    function or method in tree, and of each defaulted field of a dataclass
    there.  index is the position a call passes it at, None for a
    keyword-only one."""
    owner = {m: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    defaulted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            defaulted += [
                (node.name, i, f.target.id, True)
                for i, f in enumerate(fields)
                if f.value is not None
            ]
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = owner[node] if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        skip = 1 if node in owner else 0  # self
        defaulted += [
            (callee, i - skip, p.arg, False) for i, p in enumerate(positional) if i >= first
        ]
        defaulted += [
            (callee, None, p.arg, False)
            for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if d
        ]
    return defaulted


def _unpassed_defaults(defining: dict[str, ast.Module], calling: list[ast.Module]) -> list[str]:
    """file:callee:parameter of each defaulted parameter or dataclass field
    in `defining` that no call in `calling` passes, by position or by
    keyword.  Calls match by the name called; a * or ** splat passes
    nothing, and a dataclass that some call builds from a ** splat is
    skipped."""
    calls = [node for tree in calling for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def called(call: ast.Call) -> str | None:
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    splatted = {called(call) for call in calls if any(k.arg is None for k in call.keywords)}
    unpassed = []
    for name, tree in defining.items():
        for callee, index, param, is_field in _defaulted(tree):
            if is_field and callee in splatted:
                continue
            if not any(
                called(call) == callee
                and (
                    param in [k.arg for k in call.keywords]
                    or index is not None
                    and index < len(call.args)
                    and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1])
                )
                for call in calls
            ):
                unpassed.append(f"{name}:{callee}:{param}")
    return unpassed


def test_src_holds_no_test_only_code():
    """Each function, class and method under src/ is named somewhere there
    besides its own definition; __init__.py does not count.  Each defaulted
    parameter of one, and each defaulted field of a dataclass, is passed by
    some call in src/ or perfbench/.  A name, an input form or a settable
    value that only the tests use belongs in tests/."""
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
    trees = _trees(SRC)
    unpassed = _unpassed_defaults(trees, [*trees.values(), *_trees(PERFBENCH).values()])
    assert (unused, unpassed) == ([], [])
