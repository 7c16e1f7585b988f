"""Count the lines of the package's source by kind.

Each line of each module under ``src/`` is one of: docstring (inside the
span of a module, class or function docstring, found with ``ast``), comment
(holding only a comment, found with ``tokenize``), blank, or code (every
other line, including code lines that end in a comment). Prints one row per
module and a total.

    python tools/src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and
    its functions."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """How many lines of ``source`` are of each kind in ``KINDS``."""
    docstrings = docstring_lines(source)
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment_lines.add(token.start[0])
        elif token.type not in skip:
            code_lines.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in comment_lines and number not in code_lines:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def _print_row(name: str, counts: dict[str, int]) -> None:
    print(f"{name:<28}" + "".join(f"{counts[k]:>10}" for k in KINDS) + f"{sum(counts.values()):>8}")


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    modules = sorted(src.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {src}", file=sys.stderr)
        return 1
    print(f"{'module':<28}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>8}")
    total = dict.fromkeys(KINDS, 0)
    for path in modules:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        _print_row(str(path.relative_to(src)), counts)
    _print_row("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
