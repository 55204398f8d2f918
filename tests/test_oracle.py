import pytest

from frobseries.frobenius import partition_series
from frobseries.oracle import GuardError, count_cphi, count_phi


def test_count_phi_k1_examples():
    assert count_phi(1, 3) == 3  # (0|2), (1|1), (2|0)
    assert count_phi(1, 0) == 1
    assert count_phi(5, 0) == 1


def test_count_phi_k2_weight3():
    # s=1: three one-column symbols; s=2: (1,0|0,0) and (0,0|1,0)
    assert count_phi(2, 3) == 5


def test_count_phi_k1_is_partition_function():
    p = partition_series(15)
    for n in range(16):
        assert count_phi(1, n) == p.coefficient(n), n


def test_count_phi_stabilizes_in_k():
    for n in range(9):
        stable = count_phi(n if n else 1, n)
        for k in range(max(n, 1), max(n, 1) + 3):
            assert count_phi(k, n) == stable, (k, n)


def test_count_phi_monotone_in_k():
    for n in range(10):
        for k in range(1, 5):
            assert count_phi(k, n) <= count_phi(k + 1, n), (k, n)


def test_count_cphi_examples():
    assert count_cphi(2, 1) == 4
    assert count_cphi(2, 3) == 20
    assert count_cphi(1, 0) == 1
    assert count_cphi(3, 0) == 1


def test_count_cphi_first_values():
    assert [count_cphi(2, n) for n in range(6)] == [1, 4, 9, 20, 42, 80]


def test_guards():
    with pytest.raises(GuardError):
        count_phi(2, 21)
    with pytest.raises(GuardError):
        count_cphi(2, 9)
    with pytest.raises(GuardError):
        count_cphi(4, 3)


def test_guard_override(monkeypatch):
    monkeypatch.setenv("FROBSERIES_GUARD_OVERRIDE", "1")
    # s=1: 2 * 4*4 single-column symbols; s=2: C(4,2)^2 all-zero rows
    assert count_cphi(4, 2) == 68


@pytest.mark.parametrize("value", ["0", ""])
def test_guard_override_other_than_one_keeps_the_guards(value, monkeypatch):
    # only "1" lifts the guards; "0" and an empty value do not
    monkeypatch.setenv("FROBSERIES_GUARD_OVERRIDE", value)
    with pytest.raises(GuardError):
        count_phi(2, 21)
    with pytest.raises(GuardError):
        count_cphi(4, 3)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_phi(0, 3)
    with pytest.raises(ValueError):
        count_phi(1, -1)
    with pytest.raises(ValueError):
        count_cphi(0, 1)
