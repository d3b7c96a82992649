"""The sha256 of every artifact the shipped runs write, to check that a change
keeps their bytes.

The runs are those of `tests/reach.py`: the five configs of `configs/` and the
runs of the four benchmark workloads (`benchmark/workloads.py`, read as it
is), each made by `cli.run` at `--threads` 1 and then 2. The output
directory is passed as `cli.run`'s `out`, as the benchmark passes it, so
the config hash in each manifest does not depend on where it lies. A
manifest is hashed without its `build` field, the checkout's `git
describe`; every other file as written. Where a workload compares two runs (`cli.compare_artifacts`), its
report is hashed too, as sorted JSON. The hashes go to a JSON file keyed
`threads<n>/<config or workload>/<run>/<file>`; with `--against` an earlier
file, every key whose hash differs, or that only one of the two files has, is
listed, and the exit status is 1 when there is any.

    PYTHONPATH=src python tests/artifact_bits.py new.json --against old.json

Run it on both checkouts at the same OPENBLAS_NUM_THREADS. It takes about
ten seconds on two cores and writes its artifacts to a temporary directory.
Not a test: pytest collects only `test_*.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from reach import _runs

from dmft_lab import cli


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("build")
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def hashes() -> dict:
    """Key -> sha256 of every artifact of every run, at threads 1 and 2."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 2):
            for label, runs, compared in _runs():
                key = f"threads{threads}/{label}"
                where = Path(tmp) / key
                for run, raw in runs:
                    status = cli.run(raw, out=str(where / run), threads=threads)
                    print(f"{key} {run or '-'}: exit {status}", file=sys.stderr)
                if compared:  # as the workload does, with the first run's tolerances
                    tolerances = runs[0][1]["compare"]["tolerances"]
                    report = cli.compare_artifacts(*(where / run for run in compared), tolerances).to_dict()
                    out[f"{key}/compare"] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
                for path in sorted(p for p in where.rglob("*") if p.is_file()):
                    out[str(path.relative_to(tmp))] = _digest(path)
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file the hashes are written to")
    parser.add_argument("--against", help="an earlier hash file to list the differing artifacts of")
    args = parser.parse_args(argv)
    new = hashes()
    Path(args.out).write_text(json.dumps(new, indent=1) + "\n")
    print(f"{len(new)} artifacts hashed into {args.out}")
    if not args.against:
        return 0
    old = json.loads(Path(args.against).read_text())
    differ = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} artifacts differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
