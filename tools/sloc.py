"""Code lines: not blank, not comment-only, not docstring.  `make sloc`, or
`python tools/sloc.py [PATH ...]`: a directory prints one line per package under
it and a total, a file prints its own count.  `--against <git-ref>` (`make
sloc-diff BASE=<ref>`) prints, per package, the count at the ref (its files
read with `git show`), the count in the working tree and the difference."""
import ast
import io
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    lines = {line for tok in tokens if tok.type not in _NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def packages_now(target: Path) -> Counter[str]:
    packages: Counter[str] = Counter()
    for path in target.rglob("*.py"):
        packages[str(path.parent)] += code_lines(path.read_bytes())
    return packages


def packages_at(ref: str, target: Path) -> Counter[str]:
    packages: Counter[str] = Counter()
    for name in _git("ls-tree", "-r", "--name-only", ref, "--", str(target)).decode().splitlines():
        if name.endswith(".py"):
            packages[str(Path(name).parent)] += code_lines(_git("show", f"{ref}:{name}"))
    return packages


def main(args: list[str]) -> None:
    ref = None
    if "--against" in args:
        at = args.index("--against")
        ref = args[at + 1]
        del args[at:at + 2]
    for target in map(Path, args or ["src"]):
        if target.is_file():
            print(f"{code_lines(target.read_bytes()):7d}  {target}")
            continue
        now = packages_now(target)
        if ref is None:
            for package, count in sorted(now.items()):
                print(f"{count:7d}  {package}")
            print(f"{sum(now.values()):7d}  {target} (total)")
            continue
        was = packages_at(ref, target)
        print(f"{ref[:12]:>12} {'tree':>7} {'delta':>7}")
        for package in sorted(set(was) | set(now)):
            print(f"{was[package]:12d} {now[package]:7d} {now[package] - was[package]:+7d}  {package}")
        total = sum(now.values()) - sum(was.values())
        print(f"{sum(was.values()):12d} {sum(now.values()):7d} {total:+7d}  {target} (total)")


if __name__ == "__main__":
    main(sys.argv[1:])
