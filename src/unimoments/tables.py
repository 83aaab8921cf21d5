"""Reference tables of balanced-quotient counts and their Borel-triangle prediction.

These are golden data: no module of the package computes from them, since
every row is computed (``counting.count_ddcg_partitions``).  The tests and the
benchmark in ``perfbench/`` check their results against them.

``REFERENCE_COUNTS`` holds the exact values of F(2k, j), j = 1..k+1, for
2k = 2..22.  The test suite recomputes every column with the
balanced-quotient engine (see ``counting``), in under a second for 2k = 22.

``CONJECTURED_COUNTS`` holds, for the same range, the closed-form prediction
obtained from the Borel triangle.  It matches the exact counts for k <= 5
and first breaks at 2k = 12, where the predicted F(12, 3) is 10988 against
an actual 11000.
"""

__all__ = ["REFERENCE_COUNTS", "CONJECTURED_COUNTS"]

# fmt: off
REFERENCE_COUNTS: dict[int, tuple[int, ...]] = {
    2:  (1, 1),
    4:  (1, 5, 2),
    6:  (1, 19, 24, 5),
    8:  (1, 69, 202, 112, 14),
    10: (1, 251, 1520, 1665, 510, 42),
    12: (1, 923, 11000, 21121, 11827, 2277, 132),
    14: (1, 3431, 78806, 249137, 226205, 76111, 10010, 429),
    16: (1, 12869, 566234, 2840928, 3918842, 2044444, 456456, 43472, 1430),
    18: (1, 48619, 4105320, 31954529, 64318998, 48721602, 16387776, 2596596,
         186966, 4862),
    20: (1, 184755, 30114712, 358556005, 1025094615, 1081809409, 513317334,
         120110865, 14177490, 797810, 16796),
    22: (1, 705431, 223707242, 4040139741, 16099942903, 23011155057,
         14774891956, 4781025480, 821327364, 74918558, 3382456, 58786),
}

CONJECTURED_COUNTS: dict[int, tuple[int, ...]] = {
    2:  (1, 1),
    4:  (1, 5, 2),
    6:  (1, 19, 24, 5),
    8:  (1, 69, 202, 112, 14),
    10: (1, 251, 1520, 1665, 510, 42),
    12: (1, 923, 10988, 21109, 11825, 2277, 132),
    14: (1, 3431, 78428, 248339, 225862, 76076, 10010, 429),
    16: (1, 12869, 559130, 2813712, 3896970, 2039128, 456092, 43472, 1430),
    18: (1, 48619, 4001136, 31278521, 63425538, 48338310, 16327752, 2593656,
         186966, 4862),
    20: (1, 184755, 28795012, 344578585, 996691265, 1062780789, 508232748,
         119555220, 14157090, 797810, 16796),
    22: (1, 705431, 208515164, 3783013707, 15328496106, 22255811424,
         14469523530, 4725337221, 816841806, 74790650, 3382456, 58786),
}
# fmt: on
