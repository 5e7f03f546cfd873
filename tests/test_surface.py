"""``src/lama`` holds what the CLI and the trainer run: every public
module-level function and class is referenced by the package's own code,
outside its own definition. Test oracles live in ``tests/oracles.py``."""

import ast
from pathlib import Path

import lama

SRC = Path(lama.__file__).parent

# defined for the benchmark alone, each with the line of perfbench that needs it
BENCHMARK_ONLY = {
    "doc_objective": "perfbench/tracer.py:32 traces lama.model.doc_objective",
    "make_task": "perfbench/workloads.py:127 builds the keyword workload's data",
    "write_tsv": "perfbench/workloads.py:146 writes the serve set's TSV",
}


def names_in(node) -> set:
    """Every name ``node`` loads, reads as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_public_names(src: Path = SRC) -> dict:
    """Name -> module of each public module-level function and class that no
    top-level statement of the package references but its own."""
    statements = []  # (module, statement, names it references)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, stmt, names_in(stmt)) for stmt in tree.body]
    unreferenced = {}
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unreferenced[stmt.name] = module
    return unreferenced


def test_every_public_name_is_used_by_the_package():
    unreferenced = unreferenced_public_names()
    assert set(unreferenced) == set(BENCHMARK_ONLY), {
        f"{module}.{name}": BENCHMARK_ONLY.get(name, "referenced only outside src/lama")
        for name, module in unreferenced.items()}


def test_a_definition_used_only_by_itself_is_caught(tmp_path):
    # a recursive helper nothing else calls is still unreferenced
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "extra.py").write_text(
        "def countdown(n):\n    return 0 if n == 0 else countdown(n - 1)\n")
    assert unreferenced_public_names(tmp_path) == {"countdown": "extra"}
