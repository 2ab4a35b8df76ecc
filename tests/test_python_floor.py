"""The package declares Python >= 3.10: every source, test and demo file
must parse under the 3.10 grammar.  ``feature_version`` rejects later
syntax (``except*``, PEP 695 type parameters, ...); newer library calls
are left to the CI job that runs the suite on 3.10."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_file_parses_under_python_3_10():
    files = sorted(p for d in ("src", "tests", "demos")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:  # a SyntaxError names the file
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
