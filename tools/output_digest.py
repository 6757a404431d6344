"""One SHA-256 over the exit codes and outputs of the seed-1 benchmark
corpora, for checking that a change leaves every document byte-identical.

It generates the warm-up and timed matrices of ``perfbench/corpus.py`` for
seed 1 (the corpus is only read) and solves each with ``--output json
--verify`` in both orientations: qq_split in split form, qq_rational and
fp_hessenberg in rational and pseudo forms, 650 documents.  jnf is imported
from ``src/`` of the checkout the script sits in.  Run from anywhere:

    python3 tools/output_digest.py

and compare the printed digest with the one of the parent commit.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from jnf.cli import main  # noqa: E402

SEED = 1
MATRICES = 64        # timed matrices per corpus, as in perfbench/run.py
FORMS = {"qq_split": ["split"], "qq_rational": ["rational", "pseudo"],
         "fp_hessenberg": ["rational", "pseudo"]}


def documents(directory):
    """(exit code, stdout) of every job, in a fixed order."""
    for name, forms in FORMS.items():
        w = corpus.WORKLOADS[name]
        sub = Path(directory) / name
        sub.mkdir()
        warm, jobs = corpus.generate(sub, w, SEED, MATRICES)
        for mat, hint, _ in [warm] + jobs:
            for form in forms:
                for orientation in ("--upper", "--lower"):
                    argv = [str(mat), "--field", w.field_spec, "--form", form,
                            "--output", "json", "--verify", orientation]
                    if hint:
                        argv += ["--factors", str(hint)]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(argv)
                    yield code, out.getvalue()


def main_digest():
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as directory:
        for code, out in documents(directory):
            digest.update(f"{code}\n{len(out)}\n{out}".encode())
            count += 1
    print(f"{count} documents: {digest.hexdigest()}")


if __name__ == "__main__":
    main_digest()
