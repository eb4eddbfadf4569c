"""Committed CLI outputs: ``estimate`` (all 8 kinds) and ``diagnose`` on a
fusion file, a transport file and a study file plus a target file, and a
small ``simulate --per-replicate``, each on fixed inputs drawn with
``derive_seed``.

Every output file is kept under ``golden/<run>/`` as written, except that
config.json names the input and output paths relative to the run folder. A
file larger than DIGEST_BYTES (scores.csv) is kept as its SHA-256 digest and
line count. ``stderr.txt`` holds the exit status, then what the command
printed to stderr and its log records at WARNING and above.
``test_cli_golden.py`` reruns the commands against the committed files. A
change meant to move an output regenerates them:

    PYTHONPATH=src python tests/cli_golden.py

and declares which fields moved.
"""

import contextlib
import csv
import hashlib
import io
import logging
import shutil
import tempfile
from pathlib import Path

from targetcal.cli import main
from targetcal.estimators import EstimatorKind
from targetcal.sim import SCENARIOS, derive_seed, generate

GOLDEN = Path(__file__).with_name("golden")
DIGEST_BYTES = 16_384
N = 2000
KINDS = ",".join(kind.value for kind in EstimatorKind)


def _write_csv(path: Path, ds, rows, with_s: bool, with_zy: bool) -> None:
    covariates = [f"x{j + 1}" for j in range(ds.x.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((["s"] if with_s else []) + (["z", "y"] if with_zy else []) + covariates)
        for i in rows:
            writer.writerow(([int(ds.s[i])] if with_s else [])
                            + ([int(ds.z[i]), repr(float(ds.y[i]))] if with_zy else [])
                            + [repr(float(v)) for v in ds.x[i]])


def write_inputs(folder: Path) -> None:
    """fusion.csv and transport.csv (one file each, with an s column), and
    study.csv plus target.csv (the target file without z and y)."""
    everyone = range(N)
    fusion = generate(SCENARIOS["A"], N, derive_seed("cli-golden", "fusion", N))
    _write_csv(folder / "fusion.csv", fusion, everyone, with_s=True, with_zy=True)
    transport = generate(SCENARIOS["D"], N, derive_seed("cli-golden", "transport", N))
    _write_csv(folder / "transport.csv", transport, everyone, with_s=True, with_zy=True)
    split = generate(SCENARIOS["E"], N, derive_seed("cli-golden", "two-file", N))
    study = [i for i in everyone if split.s[i] == 1]
    target = [i for i in everyone if split.s[i] == 0]
    _write_csv(folder / "study.csv", split, study, with_s=False, with_zy=True)
    _write_csv(folder / "target.csv", split, target, with_s=False, with_zy=False)


INPUTS = {"fusion": ["--mode", "fusion", "--input", "fusion.csv"],
          "transport": ["--mode", "transport", "--input", "transport.csv"],
          "two-file": ["--mode", "transport", "--input", "study.csv",
                       "--target-input", "target.csv"]}
RUNS = {
    **{f"estimate-{name}": ["estimate", *flags, "--estimators", KINDS]
       for name, flags in INPUTS.items()},
    **{f"diagnose-{name}": ["diagnose", *flags] for name, flags in INPUTS.items()},
    "simulate": ["simulate", "--scenarios", "A,B", "--sizes", "200", "--reps", "3",
                 "--estimators", KINDS, "--seed", "21", "--oracle-n", "20000",
                 "--per-replicate"],
}


def _run(argv: list, folder: Path, out: Path) -> str:
    """Run one command in-process; its exit status and stderr text."""
    # Paths in the arguments are relative to the run folder.
    argv = [str(folder / a) if a.endswith(".csv") else a for a in argv]
    stderr = io.StringIO()
    handler = logging.StreamHandler(stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)  # main's basicConfig then adds no handler of its own
    try:
        with contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
    finally:
        root.removeHandler(handler)
    return f"exit {code}\n{stderr.getvalue()}"


def run_all(folder: Path) -> dict:
    """{run: {file: bytes}} for every run of RUNS, its inputs written to ``folder``."""
    write_inputs(folder)
    prefix = str(folder) + "/"
    outputs = {}
    for name, argv in RUNS.items():
        out = folder / "out" / name
        files = {"stderr.txt": _run(argv, folder, out).replace(prefix, "").encode()}
        for path in sorted(out.iterdir()):
            body = path.read_bytes()
            if path.name == "config.json":
                body = body.replace(prefix.encode(), b"")
            if len(body) > DIGEST_BYTES:
                digest, lines = hashlib.sha256(body).hexdigest(), body.count(b"\n")
                files[path.name + ".sha256"] = f"{digest} {lines} lines\n".encode()
            else:
                files[path.name] = body
        outputs[name] = files
    return outputs


def read_golden() -> dict:
    return {run.name: {path.name: path.read_bytes() for path in sorted(run.iterdir())}
            for run in sorted(GOLDEN.iterdir())}


def write_golden(outputs: dict) -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, files in outputs.items():
        (GOLDEN / name).mkdir(parents=True)
        for filename, body in files.items():
            (GOLDEN / name / filename).write_bytes(body)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(run_all(Path(tmp)))
