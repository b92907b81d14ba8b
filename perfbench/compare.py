"""Say whether two benchmark results show the same behaviour.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a result written by ``run.py`` (``perfbench/results/...``) for
the same workload and seed, e.g. from the parent commit and from a change.
Round ``r`` of a workload has the same inputs in both runs, so the rounds
both files ran are compared fingerprint by fingerprint. Prints one line per
common round and a verdict; exits 0 when every common round matches and 1
when any differs.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> list[str]:
    """Lines describing the comparison; the last one is the verdict."""
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"differ: {a['workload']} seed {a['seed']} vs "
                f"{b['workload']} seed {b['seed']} are different inputs"]
    lines = []
    same = True
    pairs = zip(a["round_fingerprints"], b["round_fingerprints"])
    for r, (fa, fb) in enumerate(pairs):
        if fa is None or fb is None:
            continue
        match = fa == fb
        same &= match
        lines.append(f"round {r}: {'same' if match else 'differ'} "
                     f"{fa[:12]} {fb[:12]}")
    if not lines:
        return ["differ: no round succeeded in both results"]
    lines.append(f"{a['workload']} seed {a['seed']}: fingerprints "
                 f"{'same' if same else 'differ'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines = compare(*docs)
    print("\n".join(lines))
    return 0 if lines[-1].endswith("same") else 1


if __name__ == "__main__":
    sys.exit(main())
