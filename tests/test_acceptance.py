"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import random_word
from sgcalc.construction import (
    ReplayError,
    build_p1,
    build_p2,
    build_v,
    build_w,
    build_x,
    build_p,
    replay_kill_order,
    verify_main_theorem,
)
from sgcalc.presentations import abelianize, homology_invariants, smith_normal_form
from sgcalc.words import Alphabet, commutator, invert, reduce

from test_coset_enum import CORPUS, closure_order, model_eval, todd_coxeter
from test_presentations import minor_gcd_factors

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {title}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {title}")


def test_criterion_1_end_to_end_verification():
    with criterion(1, "end-to-end verification of the assembled manifold"):
        start = time.monotonic()
        report = verify_main_theorem(max_cosets=100_000, tietze_budget=2000)
        elapsed = time.monotonic() - start

        assert report.verdict == "PASS"
        x = report.state
        # built by pulling the complement data through the surgeries, not
        # hand-entered: the builders record every surgery relator
        assert len(report.surgeries) == 6
        assert x.pi1.ngens == 8 and x.pi1.nrels == 20
        assert report.certificate is not None
        assert report.certificate.result.index == 1
        assert report.certificate.result.defined <= 100_000
        assert report.simplified is not None and report.simplified.is_empty()
        assert report.trace is not None and report.trace.complete
        assert (x.euler, x.signature) == (6, -2)
        assert report.homeo is not None
        assert (report.homeo.b_plus, report.homeo.b_minus) == (1, 3)
        assert report.homeo.description == "CP^2 # 3 CP^2bar"
        assert x.minimality.value == "minimal"
        assert x.minimality_rules == ("R1", "R2", "R3")
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_relator_oracles():
    with criterion(2, "generated relators match the published presentations"):
        for name, build in (("v", build_v), ("p1", build_p1), ("p2", build_p2)):
            expected = (GOLDEN / f"{name}_relators.txt").read_text().splitlines()
            got = [str(r) for r in build().pi1.relators]
            assert got == expected, f"{name}: {got}"
        expected_x = (GOLDEN / "x_relators.txt").read_text().splitlines()
        assert [str(r) for r in build_x().pi1.relators] == expected_x


def test_criterion_3_invariant_arithmetic():
    with criterion(3, "(e, sigma) of V, W, P, X are exact"):
        assert (build_v().euler, build_v().signature) == (0, 0)
        assert (build_w().euler, build_w().signature) == (2, -2)
        assert (build_p().euler, build_p().signature) == (0, 0)
        assert (build_x().euler, build_x().signature) == (6, -2)


def test_criterion_4_homology_checks():
    with criterion(4, "H1(V) = Z^2 and H1(X bound) = 0 via Smith normal form"):
        v, x = build_v(), build_x()
        assert smith_normal_form(abelianize(v.pi1)) == [1, 1]
        assert homology_invariants(v.pi1) == (2, [])
        assert homology_invariants(x.pi1) == (0, [])


def test_criterion_5_group_engine_property_suite():
    with criterion(5, "word laws, SNF properties, enumeration vs brute force"):
        # word-algebra laws on >= 10^4 random words
        ab = Alphabet(("x", "y", "a", "b"))
        rng = random.Random(57173)
        words = [random_word(rng, ab) for _ in range(10_000)]
        for w in words:
            assert reduce(ab, w.letters()) == w  # reduction is idempotent
            assert invert(invert(w)) == w
            assert (w * invert(w)).is_identity
        for u, v in zip(words[::2], words[1::2]):
            assert commutator(u, v) == invert(commutator(v, u))

        # SNF divisibility chain and determinant data on random 4x6 matrices
        for _ in range(200):
            m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
            factors = smith_normal_form(m)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert factors == minor_gcd_factors(m)

        # enumeration vs brute-force multiplication tables (>= 5 presentations)
        assert len(CORPUS) >= 5
        for p, model, expected in CORPUS:
            order, _ = closure_order(model["gens"], model["mul"], model["identity"])
            assert order == expected
            for r in p.relators:
                assert (
                    model_eval(
                        r,
                        model["assignment"],
                        model["mul"],
                        model["identity"],
                        model["inverse"],
                    )
                    == model["identity"]
                )
            assert todd_coxeter(p, max_cosets=10_000).index == order


def test_criterion_6_scripted_kill_order_with_negative_control():
    with criterion(6, "kill-order replay succeeds; dropping relation 19 fails"):
        x = build_x()
        report = replay_kill_order(x.pi1)
        assert report.killed == ("y1", "y2", "t1", "s1", "s2", "t2", "x1", "x2")
        try:
            replay_kill_order(x.pi1, drop=(19,))
        except ReplayError as err:
            assert err.generator == "y1"
        else:
            raise AssertionError("replay without relation 19 should fail at y1")
