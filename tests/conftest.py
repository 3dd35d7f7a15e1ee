import math
from pathlib import Path

import numpy as np
import pytest

from zetalab import hybrid, zeros

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def zeros_100():
    return zeros.compute_zeros(100.0)


@pytest.fixture(scope="session")
def zeros_5000():
    """The big computed list shared by every zeta-side experiment test, read
    from and written to ZETALAB_CACHE when that is set."""
    return zeros.compute_zeros(5000.0)


@pytest.fixture(scope="session")
def stored_table_5000():
    """The benchmark's stored zero list to T = 5000 (4520 ordinates)."""
    return np.loadtxt(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zeros_t5000.txt")


@pytest.fixture(scope="session")
def published_table_path():
    return DATA_DIR / "zeros_first100.txt"


@pytest.fixture(scope="session")
def smoothing_y4():
    return hybrid.SmoothingSpec(4.0)


@pytest.fixture(scope="session")
def params_x_e3(smoothing_y4):
    return hybrid.HybridParams(n=8, x_cutoff=math.e**3, smoothing=smoothing_y4)
