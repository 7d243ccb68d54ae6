"""Tests for the one-BLAS-thread cap around LACA's Step 2 products."""

import pytest

from repro.core.blas import _openblas_thread_controls, single_blas_thread


@pytest.fixture
def two_threads():
    """Every mapped OpenBLAS set to two threads, restored afterwards."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def test_caps_to_one_thread_and_restores(two_threads):
    with single_blas_thread():
        assert [get() for get, _ in two_threads] == [1] * len(two_threads)
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)


def test_restores_after_an_exception(two_threads):
    with pytest.raises(RuntimeError), single_blas_thread():
        raise RuntimeError
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)

