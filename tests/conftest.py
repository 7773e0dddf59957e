import pytest

from multivital.config import ChirpConfig
from multivital.geometry import ArrayGeometry, build_virtual_array, select_azimuth_ula


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
def ula(cascade):
    return select_azimuth_ula(build_virtual_array(cascade))
