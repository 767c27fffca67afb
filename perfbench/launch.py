"""Run one ``jmmw`` command the way a user does, observed from outside.

    python perfbench/launch.py --mode plain|trace|setup --out DIR [--sim-seed N] -- ARGS...

runs ``repro.cli.main(ARGS)`` (``PYTHONPATH`` must reach ``src``) with
the hooks of :mod:`layers` installed and exits with the command's own
exit code:

- ``plain`` writes only the first simulating call's timestamp to
  ``DIR`` (the end of set-up);
- ``trace`` writes one span record per process to ``DIR``;
- ``setup`` writes the same timestamp as ``plain``, then kills its own
  process group, workers included.  Start it as a group leader
  (``run.py`` starts every run in a new session).

``--sim-seed`` replaces the seed of the figures' quick simulation
config, the input ``jmmw figures --quick`` has no flag for.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import layers


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py [options] -- jmmw-args...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--mode", choices=["plain", "trace", "setup"], required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sim-seed", type=int, default=None)
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    observer = (
        layers.Tracer(opts.out)
        if opts.mode == "trace"
        else layers.SetupProbe(opts.out, stop=opts.mode == "setup")
    )
    extra = {}
    if opts.sim_seed is not None:

        def seed_figures(module) -> None:
            module.QUICK_SIM = replace(module.QUICK_SIM, seed=opts.sim_seed)

        extra["repro.figures.common"] = seed_figures
    layers.Hooks(observer.wrap, extra).install()

    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if isinstance(observer, layers.Tracer):
            observer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
