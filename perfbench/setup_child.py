"""Set-up time of a fresh process: import cubicnls.cli, then make the first
call of each subcommand on small fixed inputs.  Prints the seconds taken
and the median time of the speed probe (speed.py) run right after.

Usage: python3 setup_child.py SRC_DIR FINAL_DATA_CSV
"""

import contextlib
import io
import sys
import time

PROBES = 11


def main() -> int:
    src, finaldata = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from cubicnls import cli

    calls = [
        ["solve", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1", "--init=0.6,0.0,0.8",
         "--span=-1,1", "--samples", "11", "--mode", "both"],
        ["fixed-points", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1"],
        ["profile", "--params", '{"p": [0, 0, 1.3, 0, 0]}', "--finaldata", finaldata,
         "--t-list", "10", "--x-grid=-20,20,2"],
        ["standardize", '{"lambda": [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]}'],
    ]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.stderr.write(f"set-up call {argv[0]} exited {code}\n")
            return 1
    setup_s = time.perf_counter() - t0
    from speed import probe_s  # after the timed part: it imports numpy

    probes = sorted(probe_s() for _ in range(PROBES))
    print(repr(setup_s), repr(probes[PROBES // 2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
