import numpy as np
import pytest
from hypothesis import settings

from multivital.config import ChirpConfig
from multivital.geometry import ArrayGeometry, build_virtual_array, select_azimuth_ula

# The same examples on every run: each property test draws from a seed
# fixed by its own source, and its @settings keep their example counts.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def table1():
    """Long-window waveform used for the far single-target scenario."""
    return ChirpConfig(
        fc=77e9, prt=85.3e-6, t_frame=0.135, n_adc=512, fs=7e6,
        k_chirp=63.005e12, n_frames=50,
    )


@pytest.fixture(scope="session")
def table2():
    """20 Hz frame-rate waveform used for the close-range scenarios."""
    return ChirpConfig(
        fc=77e9, prt=70e-6, t_frame=0.05, n_adc=256, fs=5e6,
        k_chirp=65.998e12, n_frames=600,
    )


@pytest.fixture(scope="session")
def cascade():
    return ArrayGeometry.ti_cascade()


@pytest.fixture(scope="session")
def steering():
    """Plane-wave reference: Tx and Rx steering phasors of a geometry for
    direction cosines u (azimuth) and v (elevation),

        a[i] = exp(+j pi (p_az u + p_el v)),  b[i] = exp(-j pi (q_az u + q_el v))

    with Tx positions p and Rx positions q in half-wavelength units, so
    channel (t, r) carries conj(a[t]) b[r]: the far-field limit of its
    exact two-way path."""
    def phasors(geom, u, v):
        tx = np.asarray(geom.tx_elements, dtype=np.float64)
        rx = np.asarray(geom.rx_elements, dtype=np.float64)
        a = np.exp(1j * np.pi * (tx[:, 0] * u + tx[:, 1] * v))
        b = np.exp(-1j * np.pi * (rx[:, 0] * u + rx[:, 1] * v))
        return a, b
    return phasors


@pytest.fixture(scope="session")
def ula(cascade):
    return select_azimuth_ula(build_virtual_array(cascade))
