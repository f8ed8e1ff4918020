from fractions import Fraction as F

import pytest

from rtcnlab import moments


def test_solve_recurrence_trident_spot():
    rec = moments.FirstOrderRecurrence(
        kappa=3, toll=lambda n: 1 - F(1, n),
        initial_index=4, initial_value=F(2, 3))
    assert moments.solve_recurrence(rec, 4) == F(2, 3)
    for n in (5, 17, 60):
        closed = moments.solve_recurrence(rec, n, "closed")
        iterated = moments.solve_recurrence(rec, n, "iterate")
        assert closed == iterated == moments.mean_closed_form("trident", n)


def test_solve_recurrence_zero_toll():
    rec = moments.FirstOrderRecurrence(
        kappa=1, toll=lambda n: F(0), initial_index=2, initial_value=F(0))
    assert all(moments.solve_recurrence(rec, n) == 0 for n in range(2, 30))


def test_solve_recurrence_guards():
    with pytest.raises(ValueError):
        moments.FirstOrderRecurrence(kappa=3, toll=lambda n: F(1),
                                     initial_index=3, initial_value=F(0))
    rec = moments.FirstOrderRecurrence(
        kappa=1, toll=lambda n: F(1), initial_index=2, initial_value=F(0))
    with pytest.raises(ValueError):
        moments.solve_recurrence(rec, 1)


def test_closed_equals_iterate_to_500():
    rec = moments.FirstOrderRecurrence(
        kappa=2, toll=lambda n: F(3, n * n), initial_index=3,
        initial_value=F(1, 7))
    assert moments.solve_recurrence(rec, 500, "closed") == \
        moments.solve_recurrence(rec, 500, "iterate")


def test_mean_closed_forms():
    assert moments.mean_closed_form("trident", 4) == F(2, 3)
    big = moments.mean_closed_form("trident", 10**6)
    assert abs(big / 10**6 - F(1, 7)) < F(1, 10**5)
    big = moments.mean_closed_form("c-i", 10**6)
    assert abs(big / 10**6 - F(4, 77)) < F(1, 10**5)
    with pytest.raises(ValueError):
        moments.mean_closed_form("c-i", 5)
    with pytest.raises(KeyError):
        moments.mean_closed_form("cherry", 10)


def test_rho_recurrence_matches_closed_form():
    rho = moments.ci_mean_recurrence(60)
    for n in range(6, 61):
        assert rho[n] == moments.mean_closed_form("c-i", n)
    assert rho[6] == F(19, 75)


def test_tau_recurrence_vs_closed_forms():
    tau = moments.h3ci_mean_recurrence(30)
    for n in range(8, 31):
        assert tau[n] == moments.mean_closed_form("h3-ci", n)
    # the commonly quoted variant disagrees everywhere in range
    assert all(moments.h3ci_printed_closed_form(n) != tau[n]
               for n in range(8, 31))
    with pytest.raises(ZeroDivisionError):
        moments.h3ci_printed_closed_form(7)


def test_asymptotic_transfer():
    assert moments.asymptotic_transfer(3, F(1), F(0)) == (F(1, 7), F(1))
    assert moments.asymptotic_transfer(5, F(1, 2), F(-2)) == (F(1, 18), F(-1))
    assert moments.asymptotic_transfer(3, F(1, 2), F(-2)) == (F(1, 10), F(-1))
    assert moments.asymptotic_transfer(4, F(0), F(1))[0] == 0
    with pytest.raises(ValueError):
        moments.asymptotic_transfer(1, F(1), F(-3))


def test_gaussian_moments():
    assert moments.gaussian_moment(0) == 1
    assert moments.gaussian_moment(2) == 1
    assert moments.gaussian_moment(3) == 0
    assert moments.gaussian_moment(4) == 3
    assert moments.gaussian_moment(8) == 105


def test_higher_central_moment_target():
    assert moments.higher_central_moment_target(2) == (F(24, 637), F(1))
    assert moments.higher_central_moment_target(3) == (F(0), F(3, 2))
    assert moments.higher_central_moment_target(4) == \
        (3 * F(24, 637) ** 2, F(2))


def test_isserlis_spot_values():
    gauss = moments.GaussianMixedMoments(moments.default_sigma())
    assert gauss.moment(0, 0, 0) == 1
    assert gauss.moment(0, 0, 2) == F(24, 637)
    assert gauss.moment(1, 1, 0) == F(433528, 62537475)
    assert gauss.moment(1, 0, 0) == 0
    assert gauss.moment(1, 1, 1) == 0


def test_proof_identity_spot_cases():
    ok, diag = moments.check_proof_identity(0, 0, 2)
    assert ok and diag["lhs"] == F(24, 49)
    ok, diag = moments.check_proof_identity(2, 0, 0)
    assert ok and diag["lhs"] == F(1002796, 7022925)
    ok, _ = moments.check_proof_identity(1, 2, 3)
    assert ok


def test_proof_identity_rejects_wrong_matrix():
    sig = [list(row) for row in moments.default_sigma()]
    sig[2][2] = F(25, 637)
    sig = tuple(tuple(r) for r in sig)
    ok, _ = moments.check_proof_identity(0, 0, 2, sig)
    assert not ok


def test_sigma_loader_validates(tmp_path):
    import json
    bad = {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]}
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        moments.load_sigma(path)
