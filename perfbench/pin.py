"""Write the benchmark's pinned reference data from the current checkout.

    python3 perfbench/pin.py

Runs `charzeros suite --seed 0 --dir perfbench/pinned/tables`, then records in
perfbench/pinned/digests.json the SHA-256 of every file it wrote, and the exit
code and stdout digest of verify/zeros/star/classify on each table file and of
every `numtheory torus` op the numtheory workload can draw.

The pins were taken once, on the commit that introduced the benchmark.  Re-pin
only on purpose: a later commit whose output changed would otherwise pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from charzeros import cli  # noqa: E402

from workloads import DIGESTS, TABLE_VERBS, TABLES, TORUS_GRID, sha256  # noqa: E402


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main() -> int:
    shutil.rmtree(TABLES, ignore_errors=True)
    rc, _ = run(["suite", "--seed", "0", "--dir", str(TABLES)])
    if rc != 0:
        print(f"suite exited {rc}", file=sys.stderr)
        return 1
    files = {p.name: sha256(p.read_text()) for p in sorted(TABLES.iterdir())}
    outputs = {}
    for name in sorted(files):
        if name.endswith(".tbl"):
            for verb in TABLE_VERBS:
                rc, out = run([verb, str(TABLES / name)])
                outputs[f"{verb}/{name}"] = {"rc": rc, "sha256": sha256(out)}
    for fam, n, q in TORUS_GRID:
        rc, out = run(["numtheory", "torus", fam, str(n), str(q), "--format", "json"])
        outputs[f"torus/{fam} {n} {q}"] = {"rc": rc, "sha256": sha256(out)}
    DIGESTS.write_text(json.dumps({"suite_seed": 0, "files": files, "outputs": outputs},
                                  indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(files)} files and {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
