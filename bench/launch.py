"""Run the ``cdmgen`` command line in this process, optionally traced.

Usage: ``python3 bench/launch.py [--trace FILE] [--peak-rss FILE] <cdmgen arguments>``

Without options this is the ``cdmgen`` console script. With ``--trace``,
the functions in :data:`tracer.TARGETS` are wrapped before the command runs
and the spans are written to FILE when it returns. With ``--peak-rss``, the
process's peak resident memory in kB is written to FILE when the command
returns. It is read from ``VmHWM``, which counts only this program: the
``ru_maxrss`` a parent gets from ``wait4`` also counts the parent's own
memory, copied into the child before ``exec``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    options = {}
    while argv[:1] in (["--trace"], ["--peak-rss"]):
        options[argv[0]], argv = argv[1], argv[2:]
    from cdmgen import cli

    tracer = None
    if "--trace" in options:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(options["--trace"])
        if "--peak-rss" in options:
            Path(options["--peak-rss"]).write_text(f"{_peak_rss_kb()}\n", encoding="ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
