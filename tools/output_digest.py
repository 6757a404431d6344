"""One SHA-256 over the exit codes and outputs of the seed-1 benchmark
corpora, for checking that a change leaves every document byte-identical.

It generates the warm-up and timed matrices of ``perfbench/corpus.py`` for
seed 1 (the corpus is only read) and solves each with ``--output json
--verify`` in both orientations: qq_split in split form, qq_rational and
fp_hessenberg in rational and pseudo forms, 650 documents.  A second line
digests the qq_rational corpus solved without its hint files, in the same
forms and orientations (260 documents, stderr included): those solves
factor the characteristic polynomial themselves, through the squarefree
decomposition, the rational-root deflation and the leftover quadratics.
jnf is imported from ``src/`` of the checkout the script sits in.  Run from
anywhere:

    python3 tools/output_digest.py

and compare the printed digests with those of the parent commit.
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


def documents(directory, forms=FORMS, hints=True):
    """(exit code, stdout, stderr) of every job, in a fixed order; with
    ``hints`` false the hint files are left out."""
    for name, names in forms.items():
        w = corpus.WORKLOADS[name]
        sub = Path(directory) / name
        sub.mkdir(parents=True)
        warm, jobs = corpus.generate(sub, w, SEED, MATRICES)
        for mat, hint, _ in [warm] + jobs:
            for form in names:
                for orientation in ("--upper", "--lower"):
                    argv = [str(mat), "--field", w.field_spec, "--form", form,
                            "--output", "json", "--verify", orientation]
                    if hint and hints:
                        argv += ["--factors", str(hint)]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    yield code, out.getvalue(), err.getvalue()


def digest_line(label, docs, with_stderr):
    digest = hashlib.sha256()
    count = 0
    for code, out, err in docs:
        digest.update(f"{code}\n{len(out)}\n{out}".encode())
        if with_stderr:
            digest.update(f"{len(err)}\n{err}".encode())
        count += 1
    return f"{count} {label}: {digest.hexdigest()}"


def main_digest():
    with tempfile.TemporaryDirectory() as directory:
        print(digest_line("documents", documents(Path(directory) / "hinted"), False))
        print(digest_line("unhinted qq_rational documents",
                          documents(Path(directory) / "unhinted",
                                    {"qq_rational": FORMS["qq_rational"]}, False),
                          True))


if __name__ == "__main__":
    main_digest()
