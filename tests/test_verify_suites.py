from edgehodge import verify


def test_all_suites_pass():
    results = verify.run_suites()
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    # one named check per documented invariant, grouped by module
    suites = {r.suite for r in results}
    assert suites == {"cochain", "stratified", "weights", "spectral",
                      "fibredec", "radial", "cli"}
    assert len(results) >= 25


def test_suite_subset_and_space_restriction():
    results = verify.run_suites(["weights"], ["cone-torus"])
    assert all(r.suite == "weights" for r in results)
    assert all(r.passed for r in results)


def test_unknown_suite_rejected():
    import pytest

    with pytest.raises(KeyError):
        verify.run_suites(["nope"])


def test_y_kunneth_check_covers_builtins():
    # loading no longer ranks Y; the Künneth consequence of Y == tensor(B, F)
    # is checked once here
    (check,) = [r for r in verify.stratified_checks() if r.name == "y-kunneth"]
    assert check.passed and check.suite == "stratified"
