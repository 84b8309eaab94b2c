"""Every public name of the package is used by the package itself or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinmaps"

# the paper's closed-form maps: independent references the tests check the Kraus maps against
REFERENCES = {"one_qubit_transfer_matrix", "distributed_pair_matrix", "dual_rail_matrix",
              "two_qubit_sparsity_pattern"}


def _read_names(node) -> set:
    """Every name ``node`` reads, as a bare ``Name`` or as an ``Attribute``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_is_read_by_another_top_level_statement():
    statements = []  # (defining file, top-level statement, the names it reads)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        statements += [(path, stmt, _read_names(stmt)) for stmt in ast.parse(path.read_text()).body]
    public = [stmt for path, stmt, _ in statements
              if path.parent == PACKAGE and path.name != "__init__.py"
              and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")]
    assert len(public) > 50  # the scan found the package
    unread = sorted(stmt.name for stmt in public if stmt.name not in REFERENCES
                    and not any(stmt.name in names for _, other, names in statements if other is not stmt))
    assert unread == []
