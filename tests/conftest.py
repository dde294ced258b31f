import datetime
import os
import subprocess
import sys

import numpy as np
import pytest

from epicast.core import UnivariateSeries, load_india_panel, load_india_series

START = datetime.date(2020, 3, 14)


def make_series(values, name="test", start=START):
    dates = [start + datetime.timedelta(days=i) for i in range(len(values))]
    return UnivariateSeries(name, dates, values)


def linear_series(n, intercept=2.0, slope=3.0, name="linear"):
    t = np.arange(1, n + 1, dtype=float)
    return make_series(intercept + slope * t, name=name)


def python_output(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


@pytest.fixture(scope="session")
def india():
    return load_india_series()


@pytest.fixture(scope="session")
def panel():
    return load_india_panel()
