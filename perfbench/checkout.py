"""Where the benchmark finds the program, and the thread settings it pins.

Every benchmark entry point imports this module first: the thread
variables must be in the environment before NumPy loads its BLAS.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

# One replication worker and one BLAS thread. Units share nothing, so the
# replication pool only divides them; on a small shared machine its scaling
# would measure the neighbours rather than the program.
THREAD_ENV = {
    "GLM_BANDIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingProgramError(RuntimeError):
    """The checkout holds no glmbandit sources to benchmark."""


def use_checkout() -> None:
    """Pin the thread settings and put the checkout's sources first on sys.path."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "glmbandit" / "__init__.py").is_file():
        raise MissingProgramError(f"no glmbandit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def verify_imported() -> None:
    """Fail unless the imported glmbandit is the checkout's own copy."""
    import glmbandit

    origin = Path(glmbandit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgramError(f"glmbandit was imported from {origin}, not {SRC}")
