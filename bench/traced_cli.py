"""Run one ``resetcert`` CLI command with the traced run's wrappers installed.

Usage: python bench/traced_cli.py SPANS_JSON <resetcert arguments...>

The spans and notes of the command are written to SPANS_JSON; the exit
code is the command's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from resetcert import cli  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    installed = tracer.install(tr, layers.targets(tr))
    try:
        code = cli.main(argv)
    finally:
        installed.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [[s.name, s.start, s.end, s.parent] for s in tr.spans],
                   "notes": tr.notes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
