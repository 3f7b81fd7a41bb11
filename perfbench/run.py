#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Every argument is passed through to the program (see perfbench/main.go).
The Go build cache, module cache, temporary files, toolchain config and
the binary all live under the checkout's .bench_build (or $CARGO_TARGET_DIR when set),
so nothing outside the checkout is written. The exit code is the
build's when it fails, else the program's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(root, out)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        XDG_CONFIG_HOME=os.path.join(out, "config"),
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([binary, "-root", root] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
