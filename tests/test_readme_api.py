"""The library calls the README documents bind to the live signatures.

Each `cs.<name>(...)` call in a python block of the README is parsed, and
its positional and keyword arguments, as placeholders, are bound to the
signature of `conescope.<name>`.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import conescope as cs

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_calls() -> list[ast.Call]:
    text = README.read_text(encoding="utf-8")
    return [node
            for block in re.findall(r"```python\n(.*?)```", text, re.S)
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cs"]


CALLS = readme_calls()


def test_readme_documents_library_calls():
    names = {call.func.attr for call in CALLS}
    assert {"verify_order_axioms", "product_positive_path",
            "product_column_swamp"} <= names


@pytest.mark.parametrize("call", CALLS, ids=ast.unparse)
def test_readme_call_binds_to_the_signature(call):
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    signature = inspect.signature(getattr(cs, call.func.attr))
    signature.bind(*[None] * len(call.args),
                   **{k.arg: None for k in call.keywords})
