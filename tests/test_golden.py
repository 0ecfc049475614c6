"""The golden corpus (tests/golden): every recorded case still prints the
same stdout (less wall_time_s) and stderr and exits with the same code."""

from __future__ import annotations

import pytest

from golden import corpus

_RECORDED = corpus.load()


def test_the_corpus_records_every_case():
    assert list(_RECORDED) == corpus.CASES


@pytest.mark.parametrize("case", corpus.CASES)
def test_a_golden_case_prints_its_recorded_output(case, tmp_path):
    assert corpus.record(*corpus.run_case(case, tmp_path)) == _RECORDED[case]
