"""Check that the working tree writes every byte of a fixed CLI chain as a
parent commit does.

    python tools/same_bytes.py --parent REV [--threads N] [--expect PATH ...]

The parent is exported with ``git archive`` into a temporary directory. The
chain then runs once in the parent and once in the working tree this script
lives in, each in its own output directory and under the same
``OPENBLAS_NUM_THREADS`` (``--threads``, default 1):

* ``gen --seed 5 --duration 2880`` into ``data/``, and with ``--null`` and
  ``--drift`` into ``null/`` and ``drift/``;
* ``gen --spec data/scenario.json`` into ``spec/``, which must write the
  files of ``data/`` byte for byte;
* for each architecture of ``ARCHITECTURES``, into ``arch<n>/`` (the
  selected one, a batch-norm pair, inner batch norms, a temporal-norm pair
  around inner batch norms, and a temporal norm then a batch norm; the first
  and fourth train with the temporal-norm pair's scale-shift folded into
  their dense layers, the fifth without):
  ``train --epochs 6 --history``, ``score`` to JSON with ``--csv``,
  ``detect``, ``score --stats null/stats.csv`` and ``detect --baseline``
  over those null scores, ``match`` over the top detected group to CSV and
  to JSON, and ``report --events``;
* ``ablate --epochs 2`` over the first two of ``ARCHITECTURES`` to
  ``ablate.json``.

Every file the chain writes is printed as equal or differing, with its
sha256. A change that moves bytes on purpose names each such file, as
printed, with ``--expect``. The exit status is 0 when every other file is
equal, 1 when one differs or is written on one side only, and 2 when the
export or a command of the chain fails, or ``spec/`` differs from ``data/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ARCHITECTURES = ("BTN-(150)-(50)-(150*)-BTN*", "BN-(150)-(50)-(150*)-BN*",
                 "(150)-BN-(50)-BN*-(150*)", "BTN-(150)-BN-(50)-BN*-(150*)-BTN*",
                 "BTN-BN-(150)-(50)-(150*)-BN*-BTN*")
CLI = "import sys; from dbdiag.cli import main; sys.exit(main())"


class ChainError(Exception):
    """The export or a command of the chain failed."""


def run_chain(tree: Path, out: Path, threads: int) -> None:
    """Run the chain with ``tree``'s source, writing under ``out``. Every
    path is relative to ``out``, so both sides write the same file names."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": str(threads)}

    def dbdiag(*args: str) -> None:
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=out, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if done.returncode:
            raise ChainError(f"{tree}: dbdiag {' '.join(args)} exited "
                             f"{done.returncode}: {done.stderr.strip()}")

    scenario = ("--seed", "5", "--duration", "2880")
    dbdiag("gen", "--out-dir", "data", *scenario)
    dbdiag("gen", "--out-dir", "null", *scenario, "--null")
    dbdiag("gen", "--out-dir", "drift", *scenario, "--drift")
    dbdiag("gen", "--out-dir", "spec", "--spec", "data/scenario.json")
    if digests(out / "spec") != digests(out / "data"):
        raise ChainError(f"{tree}: gen --spec data/scenario.json did not write "
                         f"the files of data/")
    data = ("--stats", "data/stats.csv")
    for number, arch in enumerate(ARCHITECTURES, start=1):
        run = f"arch{number}"
        (out / run).mkdir()
        model = ("--model", f"{run}/model.json")
        dbdiag("train", *data, *model, "--architecture", arch, "--epochs", "6",
               "--history", f"{run}/history.json")
        dbdiag("score", *data, *model, "--out", f"{run}/scores.json",
               "--csv", f"{run}/scores.csv")
        dbdiag("detect", "--scores", f"{run}/scores.json",
               "--out", f"{run}/detections.json")
        dbdiag("score", "--stats", "null/stats.csv", *model,
               "--out", f"{run}/null_scores.json")
        dbdiag("detect", "--scores", f"{run}/scores.json",
               "--baseline", f"{run}/null_scores.json",
               "--out", f"{run}/baseline_detections.json")
        groups = json.loads((out / run / "detections.json").read_text())["groups"]
        if not groups:
            raise ChainError(f"{tree}: {arch} detected no period to match over")
        top = groups[0]
        for name in ("match.csv", "match.json"):
            dbdiag("match", *data, "--events", "data/events.csv",
                   "--feature", top["primary_feature"], "--start", top["start"],
                   "--end", top["end"], "--out", f"{run}/{name}")
        dbdiag("report", *data, *model, "--events", "data/events.csv",
               "--out-dir", f"{run}/report", "--quiet")
    dbdiag("ablate", *data, "--architectures", ";".join(ARCHITECTURES[:2]),
           "--epochs", "2", "--out", "ablate.json")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by its path relative to it."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def export(repo: Path, rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", rev], cwd=repo, capture_output=True)
    if archive.returncode:
        raise ChainError(f"git archive {rev} failed: "
                         f"{archive.stderr.decode(errors='replace').strip()}")
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def compare(parent: dict[str, str], change: dict[str, str],
            expected: set[str]) -> int:
    """Print each file's verdict; the number of unexpected differences."""
    unexpected = 0
    for path in sorted(parent.keys() | change.keys()):
        old, new = parent.get(path, "-"), change.get(path, "-")
        if old == new:
            print(f"equal     {new}  {path}")
            continue
        note = " (expected)" if path in expected else ""
        unexpected += not note
        print(f"DIFFERS   parent {old}  change {new}  {path}{note}")
    for path in sorted(expected - (parent.keys() | change.keys())):
        print(f"note: --expect {path} names no file of the chain")
    return unexpected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--threads", type=int, default=1,
                        help="OPENBLAS_NUM_THREADS for both sides (default 1)")
    parser.add_argument("--expect", action="append", default=[], metavar="PATH",
                        help="an output file expected to differ, as printed; repeatable")
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent-tree", "change": repo}
        try:
            sides["parent"].mkdir()
            export(repo, args.parent, sides["parent"])
            for side, tree in sides.items():
                (tmp / side).mkdir()
                run_chain(tree, tmp / side, args.threads)
        except ChainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        parent, change = digests(tmp / "parent"), digests(tmp / "change")
    unexpected = compare(parent, change, set(args.expect))
    files = len(parent.keys() | change.keys())
    print(f"{files} files at OPENBLAS_NUM_THREADS={args.threads}: "
          f"{files - unexpected} equal or expected, {unexpected} differing unexpectedly")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
