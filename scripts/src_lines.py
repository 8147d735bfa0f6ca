"""Count the lines of Python files by kind: code, docstring, comment, blank.

Each physical line is one kind, read with ``tokenize``:

* docstring -- a line of a statement made of string literals alone (a module,
  class or function docstring, or any other bare string statement);
* comment -- a line whose only token is a comment;
* blank -- a line with no token: whitespace, outside any string;
* code -- every other line, one that ends in a comment and each line of a
  multi-line string that is not a docstring included.

The four kinds add up to each file's line count, as ``wc -l`` gives it.  A
deleted docstring or comment is not a simpler program, so a change that
shrinks ``src/`` reports this split and not the total alone::

    python3 scripts/src_lines.py              # every .py file under src/
    python3 scripts/src_lines.py PATH ...     # these files, or the .py files under these directories
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of ``source`` of each kind in ``KINDS``."""
    kinds: dict[int, str] = {}  # line number -> kind, for lines with a token
    statement: list[tokenize.TokenInfo] = []  # tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            kinds.setdefault(tok.start[0], "comment")
        elif tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            kind = "docstring" if all(t.type == tokenize.STRING for t in statement) else "code"
            for t in statement:  # a comment earlier on one of these lines is outranked
                kinds.update(dict.fromkeys(range(t.start[0], t.end[0] + 1), kind))
            statement = []
    counts = dict.fromkeys(KINDS, 0)
    for kind in kinds.values():
        counts[kind] += 1
    counts["blank"] = len(io.StringIO(source).readlines()) - len(kinds)
    return counts


def _files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src")],
                        help="files or directories (default: src/)")
    args = parser.parse_args(argv)
    rows = []
    for path in _files(args.paths):
        with tokenize.open(path) as fh:
            rows.append((os.path.relpath(path), count_lines(fh.read())))
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}", *(f"{kind:>9}" for kind in (*KINDS, "total")))
    for name, counts in rows:
        print(f"{name:<{width}}", *(f"{counts[kind]:>9}" for kind in KINDS), f"{sum(counts.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
