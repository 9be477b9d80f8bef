"""Count the code lines of the spectramono package.

A line counts when a token other than a comment starts on it and that
token is not a module, class or function docstring. Blank lines, comment
lines, docstrings and the continuation lines of a multi-line string do not
count. Run from the repository root:

    python3 tools/code_lines.py
    python3 tools/code_lines.py REF

The first prints the total over src/spectramono. The second also counts
the package as it is at the git revision REF (read with `git show`) and
prints `REF N -> worktree M (M - N)`. Only the standard library is used.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectramono"
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The first line of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.add(first.lineno)
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        line = token.start[0]
        if token.type == tokenize.STRING and line in docstrings:
            continue
        lines.add(line)
    return len(lines)


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError as exc:
        sys.exit(exc.stderr.strip())
    return done.stdout


def ref_sources(ref):
    """The source text of each module of the package at the git revision ref."""
    tree = f"{ref}:{PACKAGE.relative_to(ROOT).as_posix()}"
    for name in _git("ls-tree", "--name-only", tree).split():
        if name.endswith(".py"):
            yield _git("show", f"{tree}/{name}")


def main(argv):
    now = sum(code_lines(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py"))
    if not argv:
        print(now)
        return
    if len(argv) > 1:
        sys.exit("usage: python3 tools/code_lines.py [REF]")
    (ref,) = argv
    before = sum(code_lines(source) for source in ref_sources(ref))
    print(f"{ref} {before} -> worktree {now} ({now - before:+d})")


if __name__ == "__main__":
    main(sys.argv[1:])
