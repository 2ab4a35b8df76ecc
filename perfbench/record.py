"""Record the exact outputs of the symbolic pools into references.json.

    python3 perfbench/record.py

References hold the sha256 digest of each case's rendering and must come
from a commit whose results are known good: they were recorded at the
commit that introduced the benchmark, before any change to ``src/``.  A
later change that alters a rendering fails the benchmark's exact-output
check; do not re-record to make it pass.  Every case runs uncapped, so
criterion 05's case 29 takes about a minute.
"""

import json
import os
import sys
import tempfile

import worker


def main() -> int:
    worker._import_nckit()
    import workloads

    refs = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as work:
        for name, (build_pool, _, has_refs) in workloads.WORKLOADS.items():
            if not has_refs:
                continue
            refs[name] = {}
            for case in build_pool(work, 0):
                ok, text = case.check(case.run())
                if not ok:
                    print(f"{name} {case.cid}: verdict failed", file=sys.stderr)
                    return 1
                refs[name][case.cid] = worker._digest(text)
            print(f"{name}: {len(refs[name])} cases", file=sys.stderr)
    with open(os.path.join(worker.HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
