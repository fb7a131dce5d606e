"""Run the ``repro`` CLI with layer spans installed; dump them at exit.

Usage: ``python traced.py SPANS.json <repro CLI arguments...>``

``repro serve`` stops on SIGINT (it catches KeyboardInterrupt, drains
and closes), after which the spans are written to ``SPANS.json``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
