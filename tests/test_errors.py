"""The exception hierarchy: everything catchable as ReproError."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.SimulationError,
    errors.ConfigurationError,
    errors.DeviceError,
    errors.ExportError,
    errors.ProxyError,
]


@pytest.mark.parametrize("error_type", ALL_ERRORS)
def test_all_derive_from_repro_error(error_type):
    assert issubclass(error_type, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise error_type("boom")


def test_specific_parentage():
    # The hierarchy is flat: catching one kind never swallows another.
    for error_type in ALL_ERRORS:
        assert error_type.__bases__ == (errors.ReproError,)


def test_public_api_raises_catchable_errors():
    """A library consumer catching ReproError survives any misuse."""
    from repro import RandomSource, Simulator

    with pytest.raises(errors.ReproError):
        Simulator().schedule(-1.0, lambda: None)
    with pytest.raises(errors.ReproError):
        RandomSource(0).exponential(-1.0)
