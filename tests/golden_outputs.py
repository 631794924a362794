"""Write every output that must stay byte-identical across a change.

    python tests/golden_outputs.py TREE OUTDIR

Runs the package of the source tree TREE (``PYTHONPATH=TREE/src``, working
directory TREE) and writes each pinned output into OUTDIR under a fixed name:

- the ``verify`` reports for seeds 7 and 0, the seed-7 CSV, ``--kappa 2``,
  ``--kappa 3 --lambda 1..2 --seed 3`` and ``--kappa 3 --lambda 1..3 --seed 7``;
- the ``apply`` digests of this script's ``apply_digest.py``, which runs
  against TREE's ``src`` like everything else;
- the six ``net`` packings and their stderr lines;
- the m = 2 ``counterexample`` record;
- the stdout of ``counterexample``, of every ``demos/`` script and of the
  three ``compent demo`` commands;
- seeds 7, 0 and 7 run in one process, which must reproduce the seed-7 and
  seed-0 reports: the script exits 1 if they do not.

Run it against two trees and compare the two directories with ``diff -r``.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI = ["-m", "compent.cli"]
VERIFY = [*CLI, "verify", "--suite", "all"]
# output name -> arguments to python: a run given ``{out}`` writes the file,
# any other's stdout is it
RUNS = {
    "verify-seed7.json": [*VERIFY, "--lambda", "1..3", "--seed", "7", "--out", "{out}"],
    "verify-seed0.json": [*VERIFY, "--lambda", "1..3", "--seed", "0", "--out", "{out}"],
    "verify-seed7.csv": [*VERIFY, "--lambda", "1..3", "--seed", "7", "--format", "csv",
                         "--out", "{out}"],
    # 219 checks: the keyed suites mix and tensor states over 4 keys
    "verify-kappa2.json": [*VERIFY, "--lambda", "1..3", "--kappa", "2", "--seed", "7", "--out", "{out}"],
    # m = 2 keyed setting: two-wire local layers and the keyed builders
    "verify-kappa3.json": [*VERIFY, "--lambda", "1..2", "--kappa", "3", "--seed", "3", "--out", "{out}"],
    # 579 checks, 432 of them in the four lambda-free keyed suites (each computed once per key tuple)
    "verify-kappa3-full.json": [*VERIFY, "--lambda", "1..3", "--kappa", "3", "--seed", "7",
                                "--out", "{out}"],
    # the 5+5 local circuit runs grouped gate moves on a 10-qubit density tensor
    "apply-digests.txt": [str(HERE / "apply_digest.py")],
    "net-eta05.json": [*CLI, "net", "--m", "2", "--eta", "0.5", "--seed", "0", "--out", "{out}"],
    # 636 members: ten 64-member chunks and several buffer doublings
    "net-eta03.json": [*CLI, "net", "--m", "2", "--eta", "0.3", "--seed", "0", "--out", "{out}"],
    # 2,454 members; the complex64 overlap screen sends dozens of columns to its exact path
    "net-eta025.json": [*CLI, "net", "--m", "2", "--eta", "0.25", "--seed", "0", "--out", "{out}"],
    # the m = 1 packing: 18 members from 1,046 candidates
    "net-m1-eta01.json": [*CLI, "net", "--m", "1", "--eta", "0.1", "--seed", "0", "--out", "{out}"],
    # 16 members; the candidate cap ends the run in the middle of a draw
    "net-cap700.json": [*CLI, "net", "--m", "2", "--eta", "0.5", "--seed", "3", "--max-candidates", "700",
                        "--out", "{out}"],
    # one 64-candidate draw: the clock is read only before later draws, so the bytes are fixed
    "net-deadline0.json": [*CLI, "net", "--m", "2", "--eta", "0.5", "--seed", "3", "--deadline", "0",
                           "--out", "{out}"],
    "counterexample.txt": [*CLI, "counterexample", "--m", "1", "--eps", "1e-4", "--seed", "7"],
    # the only pinned m = 2 overlap: verify's m = 2 counterexample record is inconclusive
    "counterexample-m2.json": [*CLI, "counterexample", "--m", "2", "--eps", "0", "--seed", "7",
                               "--out", "{out}"],
    "demo-cli-teleport.txt": [*CLI, "demo", "teleport", "--n", "2"],
    "demo-cli-unrotate.txt": [*CLI, "demo", "unrotate", "--m", "2"],
    "demo-cli-bbpssw.txt": [*CLI, "demo", "bbpssw"],
}
# the stderr line of each run named here is pinned too
STDERR = {"net-eta05.json": "net-eta05.err", "net-eta03.json": "net-eta03.err",
          "net-eta025.json": "net-eta025.err", "net-m1-eta01.json": "net-m1-eta01.err",
          "net-cap700.json": "net-cap700.err", "net-deadline0.json": "net-deadline0.err"}
# seeds 7, 0 and 7 in one process, each against the fresh-process report it must equal
REPEAT = [("7", "repeat-1-seed7.json", "verify-seed7.json"),
          ("0", "repeat-2-seed0.json", "verify-seed0.json"),
          ("7", "repeat-3-seed7.json", "verify-seed7.json")]
REPEAT_CODE = ("import sys; from compent.cli import main; sys.exit(max(main(["
               "'verify', '--suite', 'all', '--lambda', '1..3', '--seed', s, '--out', out])"
               " for s, out in zip(sys.argv[1::2], sys.argv[2::2])))")


def run(tree: Path, args: list[str], stdout: Path | None = None, stderr: Path | None = None) -> None:
    """``python args`` on TREE's package; a named stream is written to its file byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE if stdout else None,
                          stderr=subprocess.PIPE if stderr else None)
    for path, data in ((stdout, done.stdout), (stderr, done.stderr)):
        if path:
            path.write_bytes(data)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    tree, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for name, args in RUNS.items():
        target = outdir / name
        run(tree, [str(target) if a == "{out}" else a for a in args],
            stdout=None if "{out}" in args else target,
            stderr=outdir / STDERR[name] if name in STDERR else None)
    for script in sorted((tree / "demos").glob("*.py")):
        run(tree, [str(script.relative_to(tree))], stdout=outdir / f"demo-{script.stem}.txt")
    run(tree, ["-c", REPEAT_CODE, *(a for seed, name, _ in REPEAT for a in (seed, str(outdir / name)))])
    status = 0
    for _, name, fresh in REPEAT:
        if not filecmp.cmp(outdir / name, outdir / fresh, shallow=False):
            sys.stderr.write(f"{name} differs from {fresh}: an in-process repeat changed a report\n")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
