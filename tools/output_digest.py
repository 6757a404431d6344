"""SHA-256 digests of the exit codes and outputs of the seed-1 benchmark
corpora, for checking what a change moves in every document.

It generates the warm-up and timed matrices of ``perfbench/corpus.py`` for
seed 1 (the corpus is only read) and solves each with ``--output json
--verify`` in both orientations: qq_split in split form, qq_rational and
fp_hessenberg in rational and pseudo forms, 650 documents.  A fourth corpus
is qq_rational solved without its hint files, in the same forms and
orientations (260 documents): those solves factor the characteristic
polynomial themselves, through the squarefree decomposition, the
rational-root deflation and the leftover quadratics.

Each corpus gets one line with two digests.  The full one covers the exit
code, stdout and stderr of every job.  The P-free one covers the same with
the transform P taken out of each document: the exit code, the form, the
field, the blocks, J, the verify line and stderr.  P depends on the cycle
vectors a solve happens to find, the rest on A alone, so a change that
moves P (another probe block, another route to B) must leave the P-free
digests as they are.  jnf is imported from ``src/`` of the checkout the
script sits in.  Run from anywhere:

    python3 tools/output_digest.py

and compare the printed digests with those of the parent commit.
"""

import contextlib
import hashlib
import io
import json
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


def documents(directory, name, hints=True):
    """(exit code, stdout, stderr) of every job of one corpus, in a fixed
    order; with ``hints`` false the hint files are left out."""
    w = corpus.WORKLOADS[name]
    sub = Path(directory) / name
    sub.mkdir(parents=True)
    warm, jobs = corpus.generate(sub, w, SEED, MATRICES)
    for mat, hint, _ in [warm] + jobs:
        for form in FORMS[name]:
            for orientation in ("--upper", "--lower"):
                argv = [str(mat), "--field", w.field_spec, "--form", form,
                        "--output", "json", "--verify", orientation]
                if hint and hints:
                    argv += ["--factors", str(hint)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                yield code, out.getvalue(), err.getvalue()


def without_p(code, out):
    """stdout with the document's P taken out (unchanged when no document
    was written)."""
    if code:
        return out
    end = out.rindex("}") + 1
    doc = json.loads(out[:end])
    del doc["P"]
    return json.dumps(doc, sort_keys=True) + out[end:]


def digest_line(label, docs):
    full, p_free = hashlib.sha256(), hashlib.sha256()
    count = 0
    for code, out, err in docs:
        for digest, text in ((full, out), (p_free, without_p(code, out))):
            digest.update(f"{code}\n{len(text)}\n{text}{len(err)}\n{err}".encode())
        count += 1
    return f"{count} {label} documents: full {full.hexdigest()} P-free {p_free.hexdigest()}"


def main_digest():
    with tempfile.TemporaryDirectory() as directory:
        hinted = Path(directory) / "hinted"
        for name in FORMS:
            print(digest_line(name, documents(hinted, name)), flush=True)
        print(digest_line("unhinted qq_rational",
                          documents(Path(directory) / "unhinted", "qq_rational",
                                    hints=False)), flush=True)


if __name__ == "__main__":
    main_digest()
