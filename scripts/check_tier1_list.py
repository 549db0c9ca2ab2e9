#!/usr/bin/env python3
"""Compare the tier-1 ctest entries against tests/tier1_tests.txt.

    python3 scripts/check_tier1_list.py --build-dir build
    python3 scripts/check_tier1_list.py --build-dir build --update

The committed list holds every `ctest -N -L tier1` name, sorted, one
per line, without gtest's ` # GetParam() = ...` suffix on
value-parameterized names (that byte dump includes struct padding and
is not stable across builds). A test that is added, removed or renamed
then shows in a diff as one line. Exit status: 0 when the lists match
(or after --update), 1 on any difference, 2 when ctest cannot list the
tests.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_LIST = os.path.join(ROOT, "tests", "tier1_tests.txt")
TEST_LINE = re.compile(r"^\s*Test\s+#\d+: (.+)$")
PARAM_DUMP = re.compile(r"\s+# GetParam\(\) = .*$")


def listed_tests(ctest, build_dir):
    out = subprocess.run([ctest, "-N", "-L", "tier1"], cwd=build_dir,
                         stdout=subprocess.PIPE, text=True, check=True)
    names = []
    for line in out.stdout.splitlines():
        m = TEST_LINE.match(line)
        if m:
            names.append(PARAM_DUMP.sub("", m.group(1)).rstrip())
    return sorted(names)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    ap.add_argument("--ctest", default="ctest")
    ap.add_argument("--list", default=DEFAULT_LIST)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed list from the build")
    args = ap.parse_args()

    try:
        actual = listed_tests(args.ctest, args.build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"cannot list tier-1 tests: {e}", file=sys.stderr)
        return 2
    if not actual:
        print("ctest listed no tier-1 tests", file=sys.stderr)
        return 2

    if args.update:
        with open(args.list, "w") as f:
            f.write("".join(n + "\n" for n in actual))
        print(f"wrote {len(actual)} names to {args.list}")
        return 0

    with open(args.list) as f:
        expected = [line.rstrip("\n") for line in f if line.strip()]
    if expected == actual:
        print(f"tier-1 list matches ({len(actual)} tests)")
        return 0
    sys.stdout.writelines(
        line + "\n" for line in difflib.unified_diff(
            expected, actual, "tests/tier1_tests.txt (committed)",
            "ctest -N -L tier1 (this build)", lineterm=""))
    print("\nThe tier-1 test list changed. If that is intended, "
          "regenerate it:\n"
          f"  python3 scripts/check_tier1_list.py --build-dir "
          f"{args.build_dir} --update")
    return 1


if __name__ == "__main__":
    sys.exit(main())
