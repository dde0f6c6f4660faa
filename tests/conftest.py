import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rclink import Band, LcParallel, ReceiverParams, TLineShortedTapped, build_grid

# reference operating point: ~3 GHz resonance, 10 MHz band, 300 K, 40 dB gain
LC_MODEL = LcParallel(4.7e-9, 6.0e-13)
TLINE_MODEL = TLineShortedTapped(50.0, 3.0e8, 75.0, 75.0 / 7, 8 * 75.0 / 13)
POWER_W = 2.68e-14
QA = 3.29e-18
# the reference grids: 512 base points, each pole refined 6 levels
BASE_POINTS = 512
REFINE = 6


@pytest.fixture(scope="session")
def lc_model():
    return LC_MODEL


@pytest.fixture(scope="session")
def tline_model():
    return TLINE_MODEL


@pytest.fixture(scope="session")
def lc_band():
    return Band(LC_MODEL.resonance, 1.0e7)


@pytest.fixture(scope="session")
def tline_band():
    import math

    return Band(2 * math.pi * 3.0e9, 1.0e7)


# a grid's arrays are read-only, so one grid per session serves every test
@pytest.fixture(scope="session")
def lc_grid(lc_band):
    return build_grid(lc_band, LC_MODEL, BASE_POINTS, REFINE)


@pytest.fixture(scope="session")
def tline_grid(tline_band):
    return build_grid(tline_band, TLINE_MODEL, BASE_POINTS, REFINE)


def impedances(model, omega):
    """(i*Z_R, i*Z_RT) of `model` at omega, complex omega included, from its own
    `reactances`: the voltages at the receive tap per unit current into the
    receive and the transmit port."""
    s = model.reactances(omega)
    return 1j * s.num_r / s.denom, 1j * s.num_rt / s.denom


def make_receiver(load_resistance, temperature=300.0, amp_noise=QA):
    return ReceiverParams(load_resistance, 100.0, amp_noise, temperature)


@pytest.fixture(scope="session")
def receiver():
    return make_receiver(5.0e4)
