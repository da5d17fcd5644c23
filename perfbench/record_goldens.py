"""Record the output digests of every pooled input into goldens.json.

Run from the repository root on the commit whose outputs are the
reference (the library's payloads are meant to stay byte-identical):

    python3 perfbench/record_goldens.py

Re-recording on a later commit would hide an output change; do it only
when the pools themselves change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, load_library
from workloads import ParitySolve, PipelineCli


def main() -> int:
    ak = load_library()
    workdir = OUT / "work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded: dict[str, str] = {}
    for cls in (ParitySolve, PipelineCli):
        w = cls(ak, 0, str(workdir), {})
        w.recorded = recorded
        for i, op in enumerate(w.golden_ops()):
            op.check(op.call())
            if i % 64 == 0:
                print(f"{cls.name}: {i} recorded", file=sys.stderr)
    path = HERE / "goldens.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(recorded)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
