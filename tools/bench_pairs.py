"""Alternated runs of the benchmark on two commits, written to one JSON file.

Each side is a commit, exported with ``git archive`` into a temporary
directory of its own, so a run sees only committed files, as a fresh
checkout has them.  For every workload of ``BENCHMARK.json`` and each of
ten pairs, ``perfbench/run.py`` runs once on each side as a subprocess, for
the benchmark's ``run_seconds`` and with the same seed; which side runs
first alternates from pair to pair, and pair i uses seed ``--seed`` + i.
Run from anywhere in the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --seed 1001 --out BENCH_<n>.json

The file holds both commit ids and the tree ids of their ``src/``, the
seeds, every run's metrics and its host reference time (the median time of
``perfbench/hostspeed.py``'s reference task during the run), and per
workload and end-to-end metric each side's median and quartiles, the
pairs the change won (ties count for neither side) and whether the pair
rule holds: the change wins at least nine of the ten pairs and the medians
differ by more than the parent's interquartile range.
"""

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev, dest):
    """The committed files of ``rev``, extracted under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run: its JSON result, plus the host
    reference time from its ``#`` line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=4 * seconds + 600)
    if out.returncode:
        raise RuntimeError(f"perfbench/run.py exited {out.returncode} in "
                           f"{checkout}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("#") and "reference_s_p50=" in line:
            result["reference_s_p50"] = float(line.split("reference_s_p50=")[1].split()[0])
    return result


def spread(values):
    """Median and quartiles (inclusive method)."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: spread(vals) for side, vals in sides.items()}
        gain = stats["parent"]["median"] - stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            "change_wins": wins, "pairs": len(runs),
            "pair_rule_holds": (wins >= 0.9 * len(runs)
                                and (gain if lower else -gain) > iqr),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {side: {"commit": git("rev-parse", f"{rev}^{{commit}}"),
                    "src_tree": git("rev-parse", f"{rev}:src")}
             for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for side, info in sides.items():
            dirs[side] = Path(tmp) / side
            export(info["commit"], dirs[side])
        bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = {}
        for name in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(PAIRS):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(dirs[side], name, seed, seconds)
                    print(f"# {name} pair {i} seed {seed} {side}: solve_s_p50="
                          f"{run[side]['metrics']['solve_s_p50']['value']:.5f}",
                          file=sys.stderr, flush=True)
                runs.append(run)
            workloads[name] = {"summary": summarize(runs, bench["end_to_end"]),
                               "runs": runs}
    doc = {
        "parent": sides["parent"], "change": sides["change"],
        "seconds": seconds, "pairs": PAIRS,
        "seeds": [args.seed + i for i in range(PAIRS)],
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
