"""``python -m repro.obs FILE`` — validate a Prometheus exposition file.

``-`` reads stdin.  Exits 0 when valid, 1 with one problem per line on
stderr otherwise, 2 on a usage error.  This is the CI-facing entry
point of :func:`repro.obs.export.validate_exposition`.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .export import validate_exposition


def _main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.obs FILE", file=sys.stderr)
        return 2
    if args[0] == "-":
        text = sys.stdin.read()
    else:
        with open(args[0], "r", encoding="utf-8") as handle:
            text = handle.read()
    problems = validate_exposition(text)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
