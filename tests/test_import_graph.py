"""The package's import layering, and SciPy, the process pool and
``numpy.random`` loading only on the paths that use them.

Each load check runs in a fresh interpreter: ``oracles`` imports SciPy, so
the test process itself always has it loaded.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "glmbandit"

# The world and numeric core sit beneath the policies, the runner, the
# checks and the command line, and never reach up into them.
LOWER = ("errors", "rng", "links", "design", "mle", "environment")
UPPER = ("policies", "harness", "validation", "cli")


def relative_imports(module: str) -> set[str]:
    """The sibling modules that ``module`` imports, by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(name.split(".")[0] for name in names)
    return found


def test_lower_modules_import_nothing_above_them():
    reach = {module: relative_imports(module) & set(UPPER) for module in LOWER}
    assert reach == {module: set() for module in LOWER}


def test_config_rules_are_assigned_in_one_module():
    assigners = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "CONFIG_RULES"
    ]
    assert assigners == ["errors"]


def run_fresh(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC), "GLM_BANDIT_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_logistic_run_and_check_load_no_scipy_and_no_pool():
    run_fresh("""
        import sys

        import numpy as np

        import glmbandit, glmbandit.cli
        from glmbandit.harness import ExperimentSpec, run_experiment
        from glmbandit.links import IDENTITY, LOGISTIC
        from glmbandit.validation import (
            probe_directions,
            proposition1_growth,
            run_ucb_glm_instrumented,
            theorem1_coverage,
            znorm_bound_check,
        )

        spec = ExperimentSpec.from_dict({
            "T": 60, "d": 2, "K": 3, "link": "logistic", "noise": "bernoulli",
            "context_dist": "uniform_ball",
            "algorithms": ["ucb-glm", "epsilon-greedy", "supcb-glm", "uniform"],
            "tau": 10, "replications": 1, "master_seed": 3,
        })
        run_experiment(spec)
        theorem1_coverage(
            LOGISTIC, 2, 200, sigma=None, delta=0.05, directions=probe_directions(2, 5),
            replications=3, noise="bernoulli", theta_star=np.array([0.5, 0.0]),
        )
        # At one worker every check maps its replications in this process.
        proposition1_growth("uniform_ball", 2, [20, 60], 3)
        znorm_bound_check(IDENTITY, 2, 50, 0.1, 0.05, 3)
        run_ucb_glm_instrumented(LOGISTIC, 2, 3, 40, 0.05, None, 3, noise="bernoulli", tau=10)
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        assert "concurrent.futures.process" not in sys.modules
    """)


def test_import_loads_no_numpy_random():
    run_fresh("""
        import sys

        import glmbandit, glmbandit.cli

        assert "numpy.random" not in sys.modules
    """)


def test_probit_and_gaussian_normalized_load_scipy_special():
    run_fresh("""
        import sys

        from glmbandit.environment import second_moment_min_eig
        from glmbandit.links import PROBIT

        assert "scipy.special" not in sys.modules
        PROBIT.mu(0.5)
        second_moment_min_eig("gaussian_normalized", 3)
        assert "scipy.special" in sys.modules
        assert "scipy.stats" not in sys.modules
    """)
