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
pairs the change won (ties count for neither side), whether the pair
rule holds (the change wins at least nine of the ten pairs and the medians
differ by more than the parent's interquartile range) and
``no_regression``, read against the metric's ``bound`` times the parent's
median:

- ``true`` when every change run beats every parent run, or when the
  parent's interquartile range is within the bound and the change's median
  is no worse than the parent's by more than the bound;
- ``"unresolved"`` when the parent's interquartile range is wider than the
  bound (and not every change run beats every parent run): its runs spread
  too widely to tell;
- ``false`` otherwise.

The file also holds, per workload, paired solves of both trees in this one
interpreter, which cancels what differs between two processes (their
start, their memory layout, the host's speed at the time).  Each tree's
``src/jnf`` is imported under a name of its own (``jnf_parent``,
``jnf_change``), and each pair's seed gives a corpus of
``perfbench/run.py``'s ``CORPUS_SIZE`` matrices as ``perfbench/corpus.py``
builds it.  Every matrix is solved once by each tree through its
``cli.run``, the tree that goes first alternating from matrix to matrix,
after one warm-up solve per corpus and tree.  Per workload the file
records the median and quartiles of the paired ratios (change time over
parent time), the pairs the change won, each side's median wall time, and
how many pairs printed the same document.
"""

import argparse
import ast
import importlib
import importlib.util
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")


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


def no_regression(parent, change, stats, bound, lower):
    """True, False or "unresolved" for the runs of each side (see the
    module docstring); ``stats`` are their spreads."""
    beats = max(change) < min(parent) if lower else min(change) > max(parent)
    if beats:
        return True
    sign = 1 if lower else -1
    allowed = bound * abs(stats["parent"]["median"])
    if stats["parent"]["q3"] - stats["parent"]["q1"] > allowed:
        return "unresolved"
    return sign * (stats["change"]["median"] - stats["parent"]["median"]) <= allowed


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
            "no_regression": no_regression(sides["parent"], sides["change"], stats,
                                           m["bound"], lower),
        }
    return out


def load_module(path, name, package_dir=None):
    """The module or package (``package_dir``) at ``path`` imported as
    ``name``, whatever else of that name this interpreter holds."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir and [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(checkout, side):
    """``jnf.cli`` of ``checkout``'s ``src/``, imported as ``jnf_<side>.cli``."""
    pkg = Path(checkout) / "src" / "jnf"
    load_module(pkg / "__init__.py", f"jnf_{side}", pkg)
    return importlib.import_module(f"jnf_{side}.cli")


def solve(cli, workload, job):
    """(wall seconds, document) of one ``cli.run`` on a corpus job, as
    ``perfbench/run.py`` configures it."""
    mat, hint, _ = job
    config = cli.JobConfig(input_path=str(mat), field_spec=workload.field_spec,
                           form=workload.form, output="json",
                           factors_path=str(hint) if hint else None)
    start = time.perf_counter()
    code, report = cli.run(config)
    elapsed = time.perf_counter() - start
    if code:
        raise RuntimeError(f"{mat.name} exited {code} in {cli.__name__}")
    return elapsed, report


def corpus_size(checkout):
    """``CORPUS_SIZE`` of ``checkout``'s ``perfbench/run.py``, read without
    running the script."""
    tree = ast.parse((Path(checkout) / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["CORPUS_SIZE"])


def in_process(dirs, names, seeds, size):
    """Per workload name, [(parent seconds, change seconds, same document)]
    for every matrix of every seed's corpus of ``size`` matrices (see the
    module docstring)."""
    clis = {side: load_cli(dirs[side], side) for side in SIDES}
    corpus = load_module(dirs["change"] / "perfbench" / "corpus.py", "bench_pairs_corpus")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload, pairs = corpus.WORKLOADS[name], []
            for seed in seeds:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                warm, jobs = corpus.generate(work, workload, seed, size)
                for cli in clis.values():
                    solve(cli, workload, warm)
                for job in jobs:
                    order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
                    runs = {side: solve(clis[side], workload, job) for side in order}
                    pairs.append((runs["parent"][0], runs["change"][0],
                                  runs["parent"][1] == runs["change"][1]))
            print(f"# {name} in process: median ratio "
                  f"{summarize_in_process(pairs)['ratio']['median']:.4f}",
                  file=sys.stderr, flush=True)
            out[name] = pairs
    return out


def summarize_in_process(pairs):
    """The paired ratios' median and quartiles, the pairs the change won
    (ties count for neither side), each side's median wall time and the
    pairs that printed the same document, for [(parent s, change s,
    same document)]."""
    return {
        "pairs": len(pairs),
        "ratio": spread([c / p for p, c, _ in pairs]),
        "change_wins": sum(c < p for p, c, _ in pairs),
        "parent_median_s": statistics.median(p for p, _, _ in pairs),
        "change_median_s": statistics.median(c for _, c, _ in pairs),
        "same_document": sum(same for _, _, same in pairs),
    }


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
        seeds = [args.seed + i for i in range(PAIRS)]
        size = corpus_size(dirs["change"])
        for name, pairs in in_process(dirs, list(workloads), seeds, size).items():
            workloads[name]["in_process"] = {
                "summary": summarize_in_process(pairs),
                "pairs": [{"parent_s": p, "change_s": c, "same_document": same}
                          for p, c, same in pairs]}
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
