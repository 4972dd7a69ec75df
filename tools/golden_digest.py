"""Print one sha256 per item of a fixed set of untensor outputs.

Two checkouts that print the same lines produce the same bytes on every
item, so a refactor that claims to keep behaviour can show it by diffing
this tool's output before and after.  Uses the standard library and the
untensor sources of this checkout.

    python tools/golden_digest.py [--shapes 2x2,2x3,3x3,3x4,4x4,5x5]

For each shape m x n it runs the CLI in-process with fixed seeds:

* `gen` of an instance, with and without `--pointed`;
* `recover` of the pointed instance;
* `square-complete` of three generic corners of the other instance;

and it digests the sheet bases, the rows of the product matrix φ, and the
scale λ of the round-trip report of one pointed recovery.  Once per run
it also runs `naturality` and `props`, with and without `--inject-fault`,
at small trial counts.  A CLI item digests the exit code and stdout.  Each
output line is "<sha256>  <item>".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from untensor.cli import main as cli  # noqa: E402
from untensor.linalg import format_scalar  # noqa: E402
from untensor.reconstruct import recover_factors, verify_round_trip  # noqa: E402
from untensor.tensor_space import load_instance  # noqa: E402

DEFAULT_SHAPES = "2x2,2x3,3x3,3x4,4x4,5x5"
SEED = 7
SUITE_RUNS = (
    ("naturality", "--trials", "2", "--seed", "4"),
    ("props", "--suite", "all", "--trials", "1", "--seed", "3"),
    ("props", "--suite", "all", "--trials", "1", "--seed", "3", "--inject-fault"),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(*argv: str) -> str:
    """The exit code and stdout of one in-process CLI run, as one text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli(list(argv))
    return f"{code}\n{out.getvalue()}"


def matrix_text(rows) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in rows]


def shape_items(m: int, n: int, tmp: Path):
    """(item, text) pairs for one shape."""
    name = f"{m}x{n}"
    plain, pointed = tmp / f"{name}.json", tmp / f"{name}-pointed.json"
    base = ("gen", "--m", str(m), "--n", str(n), "--seed", str(SEED))
    yield f"gen {name}", run_cli(*base, "--out", str(plain))
    yield f"gen --pointed {name}", run_cli(*base, "--pointed", "--out", str(pointed))
    yield f"recover {name}", run_cli("recover", str(pointed), "--seed", str(SEED))

    inst = load_instance(plain)
    alpha0, alpha = [1] + [0] * (m - 1), list(range(1, m + 1))
    beta0, beta = [2] + [0] * (n - 1), [(-1) ** j * (j + 1) for j in range(n)]
    corners = {
        key: [format_scalar(x) for x in inst.embed_simple(x, y)]
        for key, (x, y) in zip("abc", ((alpha0, beta0), (alpha0, beta), (alpha, beta0)))
    }
    corner_file = tmp / f"{name}-corners.json"
    corner_file.write_text(json.dumps(corners), encoding="utf-8")
    yield f"square-complete {name}", run_cli("square-complete", str(plain), str(corner_file))

    inst = load_instance(pointed)
    recon = recover_factors(inst, Random(SEED))
    report = verify_round_trip(inst, recon)
    sheets = [matrix_text(recon.sheet_w1.subspace.basis.rows), matrix_text(recon.sheet_w2.subspace.basis.rows)]
    yield f"sheets {name}", json.dumps(sheets)
    yield f"phi {name}", json.dumps(matrix_text(recon.product_matrix.rows))
    yield f"lambda {name}", json.dumps([report.success, None if report.lam is None else format_scalar(report.lam)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", default=DEFAULT_SHAPES, help=f"comma-separated m x n list (default {DEFAULT_SHAPES})")
    args = parser.parse_args(argv)
    shapes = [tuple(int(k) for k in chunk.split("x")) for chunk in args.shapes.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        for m, n in shapes:
            for item, text in shape_items(m, n, Path(tmp)):
                print(f"{digest(text)}  {item}")
    for suite_argv in SUITE_RUNS:
        print(f"{digest(run_cli(*suite_argv))}  {' '.join(suite_argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
