import numpy as np
import pytest

from momentflow.moments import SNAPSHOT_COLUMNS

from make_fingerprint import DATA, RUNS, final_table

# a refactor that is meant to leave the answer alone moves it by round-off
RTOL = 1e-11
# a discrete-velocity column is never checked finer than this scale: the
# columns that vanish by symmetry (u3, and in the shock u1, sigma12 and q1)
# hold round-off of 1e-15 and below, not a recorded answer
DV_FLOOR = 1e-2


@pytest.mark.parametrize("name", sorted(RUNS))
def test_final_table_matches_fingerprint(name):
    # each column within 1e-11 of its largest magnitude in the recorded
    # table; an NRxx column that is zero there must stay zero
    with np.load(DATA) as data:
        want = data[name]
    got = final_table(name)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    if RUNS[name][1].get("solver") == "cdvm":
        scale = np.maximum(scale, DV_FLOOR)
    for j, col in enumerate(SNAPSHOT_COLUMNS):
        err = np.max(np.abs(got[:, j] - want[:, j]))
        assert err <= RTOL * scale[j], "%s: %s off by %.3g of %.3g" % (
            name, col, err, scale[j])
