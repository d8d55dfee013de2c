"""Run ``repro-mc`` with the layer ledger installed.

    python perfbench/traced_main.py LEDGER.json <repro-mc arguments>

Installs the timing wrappers of :mod:`ledger` in this process (pool
workers it forks inherit them), calls the CLI entry point, and writes
the ledger when the command returns; for ``serve`` that is after the
SIGTERM drain.
"""

from __future__ import annotations

import sys
from pathlib import Path

import ledger


def main() -> int:
    led = ledger.install(Path(sys.argv[1]))
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        led.dump()


if __name__ == "__main__":
    raise SystemExit(main())
