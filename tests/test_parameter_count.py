"""Adding a defaulted parameter is a visible edit to the number below.

DEFAULTED is the count of defaulted parameters in src/tinymmt, by the AST
walk that ROADMAP.md gives: each function's and lambda's positional
defaults plus its keyword-only ones. A value that no product caller varies
is a constant or a derivation, and one that every product call sets is a
required argument; a change that adds a default raises this number, and
one that removes a default lowers it.
"""

import ast
from pathlib import Path

import tinymmt

SRC = Path(tinymmt.__file__).resolve().parent
DEFAULTED = 17


def test_defaulted_parameters_stay_at_the_recorded_count():
    count = sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
                for p in SRC.rglob("*.py")
                for f in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    assert count <= DEFAULTED, (f"src/tinymmt has {count} defaulted parameters, above the "
                                f"recorded {DEFAULTED}")
