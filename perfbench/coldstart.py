"""Child-process entry of the benchmark (run by ``workloads.run_child``).

Usage::

    python perfbench/coldstart.py setup <workload> <run_dir> <seed>
    python perfbench/coldstart.py prepare prove-verify-zoo <fixture_dir> <seed>

``setup`` starts cold -- nothing imported yet -- sets the workload up
until its first warm request has completed, and prints the
``time.monotonic()`` reading of that moment as its last line; the parent
subtracts its own reading from just before the spawn, so ``setup_s``
covers interpreter start, imports, model specs, keygen or pk-cache fill
and server start.  ``prepare`` builds the prove-verify-zoo fixture
(hostile envelopes and a published key registry) outside the benchmark
process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    mode, name, run_dir, seed = argv[0], argv[1], argv[2], int(argv[3])
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, run_dir)
    if mode == "setup":
        ready = workload.coldstart()
    elif mode == "prepare":
        workload.make_fixture()
        ready = time.monotonic()
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(repr(ready), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
