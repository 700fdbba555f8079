"""No public function or class that nothing uses.

A public top-level function or class of the package counts as used when a
name, an attribute, or a string naming an attribute (as the benchmark's
tracer passes to `getattr`) in the package or the benchmark refers to it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each waits for a command-line entry point to call it.
UNREFERENCED = [
    "load_config", "serialize_config", "load_brat_dir", "load_table",
    "render_report_text", "save_checkpoint", "load_checkpoint", "apply_checkpoint",
]


def test_unreferenced_public_names_are_the_known_ones():
    public, used = [], set()
    for path in sorted((ROOT / "src" / "jnrf").glob("*.py")):
        public += [
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [name for name in public if name not in used] == UNREFERENCED


# Only the benchmark's tracer names these two.
TENSOR_OPS_UNCALLED = ["gelu", "softmax_rows"]


def test_every_tensor_op_is_called_in_the_package():
    """A public function of `tensor.py` is referenced by name or attribute
    from `src/jnrf/`, outside its own definition; the tests build anything
    else they need in `tests/oracles.py`."""
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
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [op for op in ops if op not in used] == TENSOR_OPS_UNCALLED
