"""No public function, class or method that nothing uses.

A public top-level function or class of the package, or a public method of
a public class (listed as `Class.method`), counts as used when a name, an
attribute, or a string naming an attribute (as the benchmark's tracer passes
to `getattr`) in the package or the benchmark refers to it; the package
includes its command line, `jnrf/__main__.py`. A method is matched by its
name alone; references from the tests do not count. Every public name must
be used: none is exempt. A private top-level function, class or constant
must be read somewhere in the package outside its own definition, and a
configuration key somewhere outside `config.py`."""

import ast
import dataclasses
from pathlib import Path

from jnrf.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]

def public_definitions(tree: ast.Module):
    """(listed name, referenced name) of each public top-level function and
    class, and of each public method of a public class, in file order."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method.name


def test_every_public_name_is_referenced():
    public, used = [], set()
    for path in sorted((ROOT / "src" / "jnrf").glob("*.py")):
        public += public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [listed for listed, name in public if name not in used] == []


# Only the benchmark's tracer names these three; the tests' oracles call
# matmul too.
TENSOR_OPS_UNCALLED = ["matmul", "gelu", "softmax_rows"]


def test_every_tensor_op_is_called_in_the_package():
    """A public function of `tensor.py` is referenced by name or attribute
    from `src/jnrf/`, outside its own definition; the tests build anything
    else they need in `tests/oracles.py`. An attribute of numpy (`np.matmul`)
    is numpy's own and does not count."""
    tensor = ROOT / "src" / "jnrf" / "tensor.py"
    ops = [
        node.name
        for node in ast.parse(tensor.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    used = set()
    for path in (ROOT / "src" / "jnrf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                used.add(node.attr)
    assert len(ops) == 12
    assert [op for op in ops if op not in used] == TENSOR_OPS_UNCALLED


# Nothing in the package reads `granularity`: it has one legal value, and it
# stays a key only because the benchmark's config text sets it.
CONFIG_KEYS_UNREAD = ["granularity"]


def test_every_config_key_is_read_outside_config():
    """No configuration key that nothing uses: each `RunConfig` field is read
    as an attribute somewhere in `src/jnrf/` outside `config.py`."""
    read = set()
    for path in (ROOT / "src" / "jnrf").glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    assert [k for k in keys if k not in read] == CONFIG_KEYS_UNREAD


# The tape alone decides which parents get a gradient (`Tape._link` drops a
# leaf that needs none), so an op's backward returns one for every parent.
# `ffn` is the one exception: it skips its input's gradient when the input,
# the input MLP's constant embedding, needs none.
READS_REQUIRES_GRAD = ["Tensor", "Tape", "_recording", "ffn"]


def test_only_the_tape_and_ffn_read_requires_grad():
    tensor = ROOT / "src" / "jnrf" / "tensor.py"
    readers = [
        node.name
        for node in ast.parse(tensor.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(
            isinstance(sub, ast.Attribute) and sub.attr == "requires_grad" and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(node)
        )
    ]
    assert [name for name in readers if name not in READS_REQUIRES_GRAD] == []


def private_definitions(tree: ast.Module):
    """(name, defining node) of each private module-level function, class
    and constant: a name with one leading underscore, not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_referenced():
    """A private module-level function, class or constant of `src/jnrf/` is
    read by name or attribute somewhere in `src/jnrf/` outside its own
    definition, so a helper that lost its last caller does not linger."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "src" / "jnrf").glob("*.py"))]
    private = [item for tree in trees for item in private_definitions(tree)]
    readers = {}  # name -> top-level nodes that read it
    for tree in trees:
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(id(top))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(id(top))
    assert [name for name, node in private if not readers.get(name, set()) - {id(node)}] == []
