"""Code lines: not blank, not comment-only, not docstring.  `make sloc`, or
`python tools/sloc.py [PATH ...]`: a directory prints one line per package under
it and a total, a file prints its own count."""
import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as handle:
        tokens = list(tokenize.generate_tokens(handle.readline))
    lines = {line for tok in tokens if tok.type not in _NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(targets: list[str]) -> None:
    for target in map(Path, targets or ["src"]):
        if target.is_file():
            print(f"{code_lines(target):7d}  {target}")
            continue
        packages: Counter[str] = Counter()
        for path in target.rglob("*.py"):
            packages[str(path.parent)] += code_lines(path)
        for package, count in sorted(packages.items()):
            print(f"{count:7d}  {package}")
        print(f"{sum(packages.values()):7d}  {target} (total)")


if __name__ == "__main__":
    main(sys.argv[1:])
