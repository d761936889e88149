#!/usr/bin/env python3
"""Hand mutation checks, re-run: every mutant of tools/mutants.txt must
fail the tests it names.

    python3 tools/mutation_check.py <build-dir> [--list FILE] [--jobs N]

<build-dir> holds the scratch copy: <build-dir>/tree is a copy of the
checkout's files (tracked, plus untracked ones git does not ignore),
refreshed at every run so that an unchanged file keeps its objects, and
<build-dir>/build is that copy's CMake build. The working checkout is
never written.

First the named tests run on the unmutated copy and must pass. Then,
for each mutant, the tool edits the copy's file, rebuilds vpps_tests
incrementally, runs `vpps_tests --gtest_filter=<filter>`, and restores
the file. A mutant whose tests pass survives. The tool exits 1 naming
every survivor, and 2 when a mutant cannot be applied (its original
text is not in its file exactly once), does not build, or its tests
fail without it.
"""

import argparse
import collections
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.txt"
TEST_TIMEOUT_S = 900

Mutant = collections.namedtuple(
    "Mutant", "line path original replacement filter")


def parse_mutants(text, name="mutants.txt"):
    """The mutants of a list in tools/mutants.txt's format."""
    mutants = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{name}:{number}: {len(fields)} tab-separated"
                             " fields, expected 4 (file, original,"
                             " replacement, gtest filter)")
        path, original, replacement, test_filter = fields
        for field, value in (("file", path), ("original", original),
                             ("gtest filter", test_filter)):
            if not value.strip():
                raise ValueError(f"{name}:{number}: empty {field}")
        mutants.append(Mutant(number, path, original, replacement,
                              test_filter))
    return mutants


def mutate(source, mutant):
    """@p source with the mutant's one original text replaced."""
    count = source.count(mutant.original)
    if count != 1:
        raise ValueError(f"line {mutant.line}: {mutant.original!r} occurs"
                         f" {count} times in {mutant.path}, expected once")
    return source.replace(mutant.original, mutant.replacement)


def describe(mutant):
    return (f"line {mutant.line}: {mutant.path}: {mutant.original!r} ->"
            f" {mutant.replacement!r} ({mutant.filter})")


def report(outcomes):
    """(exit status, lines) for [(mutant, killed)] outcomes."""
    survivors = [m for m, killed in outcomes if not killed]
    if not survivors:
        return 0, [f"mutation_check: all {len(outcomes)} mutants killed"]
    return 1, ([f"mutation_check: {len(survivors)} of {len(outcomes)}"
                " mutants survived:"] +
               [f"  {describe(m)}" for m in survivors])


def checkout_files():
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard",
         "-z"], cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    return [p for p in out.decode().split("\0")
            if p and (ROOT / p).is_file()]


def sync_tree(tree):
    """Make @p tree a copy of the checkout, copying only what differs."""
    files = set(checkout_files())
    for rel in files:
        src, dst = ROOT / rel, tree / rel
        if not dst.is_file() or dst.read_bytes() != src.read_bytes():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
    for dst in tree.rglob("*"):
        if dst.is_file() and dst.relative_to(tree).as_posix() not in files:
            dst.unlink()


def scratch_ok(work):
    """Whether @p work can hold the scratch copy without touching, or
    being copied along with, the checkout's files."""
    if work == ROOT or work in ROOT.parents:
        return False
    if ROOT not in work.parents:
        return True
    return subprocess.run(["git", "check-ignore", "-q", str(work)],
                          cwd=ROOT, check=False).returncode == 0


def build(tree, build_dir, jobs):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(tree), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=subprocess.DEVNULL, check=True)
    run = subprocess.run(["cmake", "--build", str(build_dir), "--target",
                          "vpps_tests", f"-j{jobs}"],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, check=False)
    return run.returncode == 0, run.stdout


def tests_pass(build_dir, test_filter):
    """Whether vpps_tests passes @p test_filter; a timeout fails."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("VPPS_FAULT_RATE", "VPPS_FAULT_SEED")}
    try:
        run = subprocess.run(
            [str(build_dir / "tests" / "vpps_tests"),
             f"--gtest_filter={test_filter}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
            timeout=TEST_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=pathlib.Path)
    ap.add_argument("--list", type=pathlib.Path, default=MUTANTS)
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args(argv)

    mutants = parse_mutants(args.list.read_text(), args.list.name)
    work = args.build_dir.resolve()
    if not scratch_ok(work):
        print(f"mutation_check: {work} must lie outside the checkout, or"
              " in a directory of it that git ignores")
        return 2
    tree, build_dir = work / "tree", work / "build"
    tree.mkdir(parents=True, exist_ok=True)
    sync_tree(tree)

    built, log = build(tree, build_dir, args.jobs)
    if not built:
        print(log)
        print("mutation_check: the unmutated copy does not build")
        return 2
    for test_filter in dict.fromkeys(m.filter for m in mutants):
        if not tests_pass(build_dir, test_filter):
            print(f"mutation_check: {test_filter} fails with no mutant")
            return 2

    outcomes = []
    for m in mutants:
        target = tree / m.path
        original = target.read_text()
        try:
            target.write_text(mutate(original, m))
            built, log = build(tree, build_dir, args.jobs)
            if not built:
                print(log)
                print(f"mutation_check: does not build: {describe(m)}")
                return 2
            killed = not tests_pass(build_dir, m.filter)
        except ValueError as e:
            print(f"mutation_check: {e}")
            return 2
        finally:
            target.write_text(original)
        print(f"mutation_check: {'killed' if killed else 'SURVIVED'}:"
              f" {describe(m)}", flush=True)
        outcomes.append((m, killed))

    status, lines = report(outcomes)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
