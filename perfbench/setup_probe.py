"""Measure set-up time in a fresh interpreter: import ``boostvi.cli``, then run
``boostvi run`` up to its first LMO call, where the run is cut short.

Usage: python3 setup_probe.py SRC_DIR -- <boostvi run arguments>
Prints the seconds from before the import to the first LMO call.
"""

import sys
import time


class _FirstLmoCall(BaseException):
    """Stops the run; a BaseException, so the CLI's error handler lets it pass."""


def main() -> int:
    src, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: setup_probe.py SRC_DIR -- <run arguments>", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import boostvi.boosting
    import boostvi.cli

    def first_lmo_call(*args, **kwargs):
        raise _FirstLmoCall(time.perf_counter() - t0)

    boostvi.boosting.lmo_solve = first_lmo_call
    try:
        code = boostvi.cli.main(argv)
    except _FirstLmoCall as stop:
        print(stop.args[0])
        return 0
    print(f"run ended with exit code {code} before its first LMO call", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
