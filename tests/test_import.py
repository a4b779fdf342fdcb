import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import alphaleak
import alphaleak.cli  # noqa: F401  (a module of the package like the others)


def modules_after(statements: str, names=("scipy",)) -> list[str]:
    """The modules among `names`, and their submodules, loaded in a fresh
    interpreter that runs `statements`."""
    src = str(Path(alphaleak.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        f"import json, sys; names = {tuple(names)!r}; {statements}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in names)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    """scipy costs most of a CLI start-up, and the package never imports it:
    numpy is its one runtime dependency.  Exact rationals (`fractions`, which
    loads `decimal`) are not needed either: the combinatorics are integers."""
    assert modules_after("import alphaleak, alphaleak.cli", ("scipy", "fractions", "decimal")) == []


def test_sensitive_lower_bound_loads_no_scipy():
    """The tightness check solves its feasibility program on `lp`'s simplex."""
    statements = (
        "import numpy as np, alphaleak as al; "
        "b = al.Alphabet.of_size(2); "
        "sj = al.SensitiveJoint(al.Joint(b, b, [[0.3, 0.1], [0.15, 0.45]]), "
        "al.DistortionSpec(b, b, 1.0 - np.eye(2), 1.0)); "
        "al.sensitive_lower_bound(sj, 2.0)"
    )
    assert modules_after(statements) == []


def test_capacity_solve_loads_no_scipy():
    """The capacity solver's Newton steps use numpy's LAPACK only: importing
    scipy.linalg would cost a CLI `capacity` run more than its solves."""
    statements = (
        "import numpy as np, alphaleak as al; "
        "W = np.random.default_rng(0).dirichlet(np.ones(40), size=30); "
        "al.maximal_alpha_leakage(al.Channel(al.Alphabet.of_size(30, 'x'), al.Alphabet.of_size(40, 'y'), W), 2.0)"
    )
    assert modules_after(statements) == []


def test_orders_and_units_are_not_public_types():
    """An order is a float (inf included) and --base belongs to the CLI, so
    neither has a public class."""
    gone = {"AlphaOrder", "as_order", "LogBase"}
    assert not gone & set(alphaleak.__all__)
    modules = [m for m in vars(alphaleak).values() if isinstance(m, ModuleType)]  # cli included
    assert not any(hasattr(module, name) for module in modules for name in gone)
