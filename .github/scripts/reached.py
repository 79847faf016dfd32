"""Fail when an executable line of src/conleylab runs in no tier-1 test.

Run from the checkout's root, after pytest and hypothesis are installed:

    python .github/scripts/reached.py

It copies src/ and pyproject.toml to a temporary root and runs the tier-1
suite in this process under a sys.settrace hook, with the copy first on
sys.path. The CLI children that tests/test_cli.py starts take their
PYTHONPATH from the imported package, so they import the copy too, and with
it this file, copied there as sitecustomize.py: the child runs the same hook
and writes the lines it saw as it exits. The copy keeps that file and every
cache out of the checkout.

A line is executable when co_lines() of its module's compiled code names
it. Each executable line that ran nowhere is printed as file:line, and the
script exits 1 if one of them is not in EXCUSED, if an excuse matches no
such line, or if a test fails. An excuse is keyed on the module and the
line's stripped text, not on its number, and gives the reason no test can
reach the line.
"""

import atexit
import os
import sys
from collections import defaultdict

# (module, stripped line text) -> why no tier-1 test can reach the line
EXCUSED = {
}

_PREFIX = ""
_OUT = ""
_HITS = defaultdict(set)


def _line(frame, event, arg):
    # one module-level local trace function: a closure made per frame forms
    # a reference cycle on every call, which moves the collector's work and
    # the peaks that some tests bound
    if event == "line":
        _HITS[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _line
    return None


def _start(src):
    """Trace every line of the package under the directory `src`."""
    global _PREFIX, _OUT
    _PREFIX = os.path.join(src, "conleylab") + os.sep
    _OUT = os.path.join(os.path.dirname(src), "hits")
    sys.settrace(_call)


def _dump():
    # a child's lines, one file per process beside the copied src/
    sys.settrace(None)
    with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "w") as fh:
        for path, lines in _HITS.items():
            fh.writelines("%s\t%d\n" % (path, n) for n in lines)


def _executable(code, lines):
    # the lines co_lines() names in `code` and the code nested in it
    lines.update(n for _, _, n in code.co_lines() if n)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _executable(const, lines)
    return lines


def main():
    # imported here: a CLI child that imports this file as sitecustomize
    # loads nothing its command would not
    import shutil
    import tempfile

    import pytest

    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with tempfile.TemporaryDirectory() as root:
        src = os.path.join(root, "src")
        shutil.copytree(os.path.join(repo, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        shutil.copy(os.path.join(repo, "pyproject.toml"), root)
        shutil.copy(os.path.abspath(__file__),
                    os.path.join(src, "sitecustomize.py"))
        sys.path.insert(0, src)
        _start(src)
        os.mkdir(_OUT)
        # a fixed seed, so that the lines the property tests reach are the
        # same on every run
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              "--hypothesis-seed=0",
                              os.path.join(repo, "tests")])
        sys.settrace(None)
        for name in os.listdir(_OUT):
            with open(os.path.join(_OUT, name)) as fh:
                for row in fh:
                    path, n = row.rsplit("\t", 1)
                    _HITS[path].add(int(n))
        unreached = []
        total = 0
        for name in sorted(os.listdir(_PREFIX)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(_PREFIX, name)
            with open(path) as fh:
                text = fh.read()
            lines = _executable(compile(text, path, "exec"), set())
            total += len(lines)
            rows = text.splitlines()
            unreached.extend((name, n, rows[n - 1].strip())
                             for n in sorted(lines - _HITS[path]))

    failed = status != 0
    matched = set()
    for name, n, text in unreached:
        key = (name[:-3], text)
        if key in EXCUSED:
            matched.add(key)
            print("src/conleylab/%s:%d: excused: %s" % (name, n, EXCUSED[key]))
        else:
            failed = True
            print("src/conleylab/%s:%d: unreached: %s" % (name, n, text))
    with open(__file__) as fh:
        own = fh.read().splitlines()
    for key in EXCUSED.keys() - matched:
        failed = True
        at = next((i for i, row in enumerate(own, 1) if key[1] in row), 0)
        print(".github/scripts/reached.py:%d: excuse for %s %r matches no "
              "unreached line" % (at, key[0], key[1]))
    print("%d of %d executable lines unreached, %d excused"
          % (len(unreached), total, len(matched)))
    return 1 if failed else 0


if __name__ == "sitecustomize":
    _start(os.path.dirname(os.path.abspath(__file__)))
    atexit.register(_dump)
elif __name__ == "__main__":
    sys.exit(main())
