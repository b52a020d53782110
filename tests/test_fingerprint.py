import numpy as np
import pytest

from momentflow.moments import SNAPSHOT_COLUMNS

from make_fingerprint import DATA, RUNS, final_table

# a refactor that is meant to leave the answer alone moves it by round-off.
# In practice the NRxx runs are checked bit for bit: the Poiseuille u2
# column has a scale of 7.4e-6 (poiseuille-m5) and 1.0e-6
# (poiseuille-m7-chi03-nolimiter), so RTOL of it allows 7.4e-17, below the
# round-off of the O(1) momentum that u2 is read from.  An exact rewrite
# of the wall's half-line factor as a frame change of the wall-frame
# half-Maxwellian (agreeing to 1.4e-17) moved poiseuille-m5 u2 by 7.6e-17
# and failed here.
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
