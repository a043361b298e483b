"""check.py must fail what it exists to catch."""

from benchmarks.gcsbench.check import check_outputs, self_test


def test_self_test():
    assert self_test() is True


def test_an_unsubmitted_payload_fails():
    payloads = [("put", "k", "00000000x")]
    forged = ("put", "k", "00000000y")
    errors = check_outputs(
        "to", {"n1": [(forged, "n1")]}, payloads, {"n1": [0]}
    )
    assert any("nobody submitted" in e for e in errors)


def test_a_missing_request_fails_unless_it_was_given_up_on():
    payloads = [("put", "k", "0000000{0}x".format(i)) for i in range(2)]
    log = {"n1": [(payloads[0], "n1")]}
    assert check_outputs("to", log, payloads, {"n1": [0, 1]})
    assert check_outputs("to", log, payloads, {"n1": [0, 1]}, failed={1}) == []
