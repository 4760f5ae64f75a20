#!/usr/bin/env python3
"""Repo-wide source lint enforcing the gknn concurrency contract.

Rules (suppress one occurrence with `// gknn-lint: allow(<rule>): reason`
on the same line or an immediately preceding comment line):

  kernel-capture   A default-capture lambda ([&] or [=]) whose parameter
                   list takes ThreadCtx&/WarpCtx&. Kernel lambdas must
                   enumerate their captures: an accidental by-reference
                   capture of a host temporary is exactly the dangling-
                   pointer bug a real CUDA kernel launch turns into UB.

The raw-mutex, discarded-status (now `status-drop`), and device-span
rules moved to the interprocedural analyzer `tools/analyzer/gknn_check`,
which resolves receivers and call graphs instead of matching lines — see
docs/STATIC_ANALYSIS.md. So did the lockdep.h <-> docs/CONCURRENCY.md
rank-table sync, which gknn_check's lock-order pass diffs in both
directions. This lint keeps only the purely textual rule (lambda capture
syntax).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors.
"""

import argparse
import os
import re
import sys

ALLOW_RE = re.compile(r"gknn-lint:\s*allow\(([a-z-]+)\)")

KERNEL_CAPTURE_RE = re.compile(r"\[[&=]\]\s*\(\s*(?:const\s+)?(?:\w+::)*(?:ThreadCtx|WarpCtx)\s*&")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def is_suppressed(lines, index, rule):
    """Allow markers count on the flagged line or the comment block above."""
    if (m := ALLOW_RE.search(lines[index])) and m.group(1) == rule:
        return True
    i = index - 1
    while i >= 0 and lines[i].lstrip().startswith("//"):
        if (m := ALLOW_RE.search(lines[i])) and m.group(1) == rule:
            return True
        i -= 1
    return False


def iter_source_files(root, subdirs, exts):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames
                           if d not in ("lint_fixtures", "analyzer_fixtures",
                                        "build")]
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def check_file(path, rel, lines, findings):
    # lint_fixtures files are linted as if they lived in src/ so the
    # fixture tests exercise every rule; the repo sweep skips them.
    in_src = rel.startswith("src/") or "lint_fixtures/" in rel
    for i, line in enumerate(lines):
        lineno = i + 1
        code = line.split("//", 1)[0]

        if in_src:
            if KERNEL_CAPTURE_RE.search(code) and not is_suppressed(
                    lines, i, "kernel-capture"):
                findings.append(Finding(
                    rel, lineno, "kernel-capture",
                    "kernel lambda with default capture; enumerate the "
                    "captures explicitly"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the lint's parent)")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to lint instead of the repo "
                             "sweep")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = []

    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
    else:
        files = list(iter_source_files(
            root, ["src", "tools", "bench", "examples", "tests"],
            (".h", ".cc", ".cpp")))

    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        check_file(path, rel, lines, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"gknn_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("gknn_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
