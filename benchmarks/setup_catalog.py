"""Export the catalog input files through the bigla CLI.

    python3 benchmarks/setup_catalog.py SRC_DIR OUT_DIR

Imports ``bigla.cli`` from SRC_DIR and writes ``<name>.json`` for every
shipped example plus ``<name>-super.json``, the unbraided table, for every
Lie example.  The benchmark times whole runs of this script, interpreter
start-up included, as its set-up.
"""

import os
import sys


def main(src: str, out: str) -> int:
    sys.path.insert(0, src)
    from bigla.catalog import catalog
    from bigla.cli import main as bigla

    for name, (kind, _) in sorted(catalog().items()):
        path = os.path.join(out, f"{name}.json")
        code = bigla(["examples", "export", name, "-o", path])
        if code == 0 and kind == "lie":
            code = bigla(["unbraid", path, "-o", os.path.join(out, f"{name}-super.json")])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
