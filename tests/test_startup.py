"""numpy loads only where residues or jets are counted.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy through the other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAZY = {
    "arcs": ("CodimEstimate", "count_contact_jets", "empirical_codim"),
    "expsum": (
        "ExpSumProfile",
        "IgusaReport",
        "ResidueHistogram",
        "count_solutions",
        "decay_profile",
        "exp_sum",
        "exp_sum_restricted",
        "igusa_identity_check",
        "residue_histogram",
    ),
}


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with lctlab on its path; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def loads_numpy(argv) -> bool:
    out = fresh(
        "import contextlib, io, sys\n"
        "import lctlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = lctlab.cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    code, loaded = out.split()
    assert code == "0"
    return loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ["lct", "det", "--n", "3"],
        ["milnor", "--poly", "x^3+y^4"],
        ["tougeron", "--poly", "x^3+y^4", "--g", "x^4", "--order", "10"],
        ["check", "corD"],
    ],
    ids=lambda argv: argv[0],
)
def test_exact_commands_run_without_numpy(argv):
    assert not loads_numpy(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["jets", "count", "--ideal", "x1*x4-x2*x3", "--p", "3", "--m", "1", "--e", "1"],
        ["expsum", "--poly", "x^3+y^3", "--p", "7", "--m", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_counting_commands_load_numpy(argv):
    assert loads_numpy(argv)


def test_lazy_names_are_the_defining_modules_objects():
    checks = "\n".join(
        f"from lctlab import {name}\n"
        f"from lctlab.{module} import {name} as defined\n"
        f"print({name!r}, {name} is defined)"
        for module, names in LAZY.items()
        for name in names
    )
    lines = fresh(checks).splitlines()
    assert lines == [f"{name} True" for names in LAZY.values() for name in names]


def test_bare_import_stays_numpy_free_and_reaches_the_submodules():
    out = fresh(
        "import sys\n"
        "import lctlab\n"
        "print('numpy' in sys.modules)\n"
        "print(lctlab.expsum.__name__, lctlab.arcs.__name__)\n"
    )
    assert out.splitlines() == ["False", "lctlab.expsum lctlab.arcs"]


def test_dir_lists_the_lazy_names_and_unknown_names_raise():
    out = fresh(
        "import sys\n"
        "import lctlab\n"
        "listed = dir(lctlab)\n"
        f"print(all(n in listed for n in {sorted(n for ns in LAZY.values() for n in ns)!r}))\n"
        "print('numpy' in sys.modules)\n"
        "try:\n"
        "    lctlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "True",
        "False",
        "module 'lctlab' has no attribute 'no_such_name'",
    ]
