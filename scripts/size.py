"""Line counts of the package source: code, docstring, comment and blank lines.

Prints one row per module of ``src/qcqpd`` (or of the package directory
given as the one argument) and a total row.  Each physical line counts
once, in the first class it belongs to:

* docstring: a line of a module, class or function docstring, as
  ``ast`` finds them, its blank lines included;
* comment: a line whose first token is a ``#`` comment;
* blank: an empty or all-whitespace line;
* code: every other line, a multi-line string that is not a docstring
  included.

Run: ``python3 scripts/size.py [PACKAGE_DIR]``.
"""

import ast
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``{kind: lines}`` of one module's source text."""
    docstring = _docstring_lines(ast.parse(source))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#")}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in comment:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv):
    package = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                                         "src", "qcqpd")
    rows = []
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            rows.append((name, count(fh.read())))
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv)
