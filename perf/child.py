"""Entry point of one benchmark child process:
``python3 perf/child.py <tables|serve|probes> '<json config>'``.
Prints its result as one JSON line; the runner owns everything else."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from common import require_repo


def main() -> int:
    require_repo()
    import probes
    import serve
    import tables
    kind, cfg = sys.argv[1], json.loads(sys.argv[2])
    module = {"tables": tables, "serve": serve, "probes": probes}[kind]
    tmp = Path(cfg["tmp"])
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = module.run(cfg)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
