import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word
from sgcalc import construction
from sgcalc.construction import complement_data
from sgcalc.coset_enum import todd_coxeter
from sgcalc.manifolds import ManifoldState, SurfaceMark
from sgcalc.presentations import Presentation, solve_relator
from sgcalc.words import (
    Alphabet,
    Word,
    WordError,
    are_conjugate,
    commutator,
    conjugate,
    cyclic_core,
    inverse_codes,
    invert,
    matches_relator,
    reduce,
    relabel,
    relator_texts,
    rotations,
    same_relator,
    substitute,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
XYZ = Alphabet(("x", "y", "z"))
# raw, unreduced letter codes over x and y, and the words they reduce to
raw_codes = st.lists(st.integers(0, 3), max_size=14)
words = raw_codes.map(lambda codes: Word(XYZ, codes))


def test_alphabet_rejects_duplicates_and_bad_names():
    with pytest.raises(WordError):
        Alphabet(("x", "x"))
    with pytest.raises(WordError):
        Alphabet(("",))
    with pytest.raises(WordError):
        Alphabet(("2x",))
    assert len(Alphabet(())) == 0


def test_reduce_cancellation(xyab):
    assert reduce(xyab, [("x", 1), ("x", -1)]).is_identity
    assert reduce(xyab, [("x", 1), ("y", 1), ("y", -1), ("x", 1)]) == xyab.gen("x", 2)


def test_reduce_keeps_reduced_word(xyab):
    b, a = xyab.gen("b"), xyab.gen("a")
    w = b * a * ~b
    assert tuple(w.letters()) == (("b", 1), ("a", 1), ("b", -1))
    assert str(w) == "b a b^-1"


def test_alphabet_refuses_a_bool_exponent(xyab):
    for exp in (True, False):
        with pytest.raises(WordError, match="not an integer"):
            xyab.gen("x", exp)
        with pytest.raises(WordError, match="not an integer"):
            xyab.word([("y", 1), ("x", exp)])
    assert xyab.gen("x", 1).codes() == [0]


def test_reduce_unknown_generator(xyab):
    with pytest.raises(WordError):
        reduce(xyab, [("z", 1)])


def test_multiply(xyab):
    x, b, a = xyab.gen("x"), xyab.gen("b"), xyab.gen("a")
    assert (x * ~x).is_identity
    assert (b * a) * ~b == b * a * ~b


def test_multiply_derived_example():
    # [s1^-1, x1^-1] * y1^-1 expands to s1^-1 x1^-1 s1 x1 y1^-1 by hand
    ab = Alphabet(("x1", "y1", "s1", "t1"))
    w = commutator(ab.gen("s1", -1), ab.gen("x1", -1)) * ab.gen("y1", -1)
    assert tuple(w.letters()) == (("s1", -1), ("x1", -1), ("s1", 1), ("x1", 1), ("y1", -1))


def test_multiply_alphabet_mismatch(xyab):
    other = Alphabet(("x", "y"))
    with pytest.raises(WordError):
        xyab.gen("x") * other.gen("x")


def _alphabet_checks(ab: Alphabet, other: Alphabet) -> dict:
    """Each place that checks that two alphabets agree, given words over
    ``ab`` and ``other``."""
    x, y, a, b = ab.gen("x"), other.gen("y"), ab.gen("a"), ab.gen("b")
    return {
        "product": lambda: x * y,
        "commutator": lambda: commutator(x, y),
        "conjugate": lambda: conjugate(x, y),
        "substitute": lambda: substitute(x, {"x": x, "y": y}),
        "are_conjugate": lambda: are_conjugate(x, y),
        "same_relator": lambda: same_relator(x, y),
        "Presentation": lambda: Presentation(ab, (x, y)),
        "ManifoldState": lambda: ManifoldState(Presentation(ab), 0, 0, True, surfaces=(SurfaceMark("S", 1, 0, (x, y)),)),
        "complement_data": lambda: complement_data({"x": x, "y": y, "a": a, "b": b}),
        "todd_coxeter": lambda: todd_coxeter(Presentation(ab, (x, a, b, ab.gen("y"))), (y,)),
    }


def test_words_over_equal_but_distinct_alphabets_still_combine():
    ab, twin = Alphabet(("x", "y", "a", "b")), Alphabet(("x", "y", "a", "b"))
    assert ab is not twin and ab == twin
    for check in _alphabet_checks(ab, twin).values():
        check()  # raises nothing
    assert str(ab.gen("x") * twin.gen("y")) == "x y"


def test_words_over_unequal_alphabets_still_raise():
    checks = _alphabet_checks(Alphabet(("x", "y", "a", "b")), Alphabet(("x", "y", "a", "b", "c")))
    for check in checks.values():
        with pytest.raises(ValueError, match="alphabet|foreign"):
            check()


def test_one_verdict_compares_alphabets_by_identity(monkeypatch):
    """Nearly every alphabet check of a verdict compares an alphabet with
    itself, which ``is`` settles without a call to ``Alphabet.__eq__``."""
    calls = []
    equal = Alphabet.__eq__
    monkeypatch.setattr(Alphabet, "__eq__", lambda self, other: calls.append(1) or equal(self, other))
    report = construction.verify_main_theorem()
    assert report.verdict == "PASS" and len(calls) <= 10, len(calls)


def test_invert(xyab):
    x, y, b, a = (xyab.gen(n) for n in "xyba")
    assert invert(xyab.identity()).is_identity
    assert invert(x * y) == ~y * ~x
    assert invert(b * a * ~b) == b * ~a * ~b


def test_commutator_convention(xyab):
    x, y, b = xyab.gen("x"), xyab.gen("y"), xyab.gen("b")
    assert commutator(x, x).is_identity
    assert commutator(~b, ~y) == ~b * ~y * b * y
    assert commutator(~x, b) == ~x * b * x * ~b


def test_substitute_pullback(xyab):
    # the assignment used for the first closed block sends [b^-1, y^-1]
    # to [s1^-1, x1^-1]
    target = Alphabet(("x1", "y1", "s1", "t1"))
    images = {
        "b": target.gen("s1"),
        "y": target.gen("x1"),
        "x": target.gen("y1", -1),
        "a": target.gen("t1", -1),
    }
    got = substitute(commutator(~xyab.gen("b"), ~xyab.gen("y")), images)
    assert got == commutator(target.gen("s1", -1), target.gen("x1", -1))


def test_substitute_identity_map(xyab):
    images = {n: xyab.gen(n) for n in xyab.names}
    assert substitute(xyab.gen("x"), images) == xyab.gen("x")


def test_substitute_kills_conjugate_of_identity(xyab):
    b, a = xyab.gen("b"), xyab.gen("a")
    images = {
        "a": xyab.identity(),
        "b": xyab.gen("b"),
        "x": xyab.gen("x"),
        "y": xyab.gen("y"),
    }
    assert substitute(b * a * ~b, images).is_identity


def test_substitute_missing_image(xyab):
    with pytest.raises(WordError):
        substitute(xyab.gen("x"), {"y": xyab.gen("y")})


def test_cyclic_core(xyab):
    x, y = xyab.gen("x"), xyab.gen("y")
    w = x * y * ~x
    core, prefix = cyclic_core(w)
    assert core == y and prefix == x
    assert conjugate(core, prefix) == w


def test_conjugacy(xyab):
    x, y, a = xyab.gen("x"), xyab.gen("y"), xyab.gen("a")
    assert are_conjugate(x * y, y * x)
    assert are_conjugate(a * x * y * ~a, x * y)
    assert not are_conjugate(x * y, x * ~y)


def test_rotations(xyab):
    x, y = xyab.gen("x"), xyab.gen("y")
    rots = rotations(x * y * x)
    assert x * y * x in rots and x * x * y in rots and y * x * x in rots


def test_codes(xyab):
    x, b = xyab.gen("x"), xyab.gen("b")
    assert (x ** 2 * ~b).codes() == [0, 0, 7]
    assert xyab.identity().codes() == []
    # codes are the constructor's input: validated, then freely reduced
    assert Word(xyab, [0, 1, 2]) == xyab.gen(xyab.names[1])
    for bad in ([8], [-1], [("x", 1)], [True]):
        with pytest.raises(WordError):
            Word(xyab, bad)
    rng = random.Random(2007)
    for _ in range(200):
        w = random_word(rng, xyab)
        assert Word(xyab, w.codes()) == w
        assert xyab.word(w.letters()) == w


def _brute_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy by brute force: ``v``'s cyclic core among the rotations of ``u``'s."""
    return cyclic_core(v)[0] in rotations(cyclic_core(u)[0])


def test_are_conjugate_is_rotation_of_cyclic_cores():
    """``are_conjugate`` agrees with a search over every rotation of the cyclic core."""
    ab = Alphabet(("x", "y"))  # two letters, so distinct words are often rotations
    rng = random.Random(1980)
    seen = set()
    for _ in range(1500):
        u, _ = cyclic_core(random_word(rng, ab, 6))
        if rng.random() < 0.5:
            v = conjugate(rng.choice(rotations(u)), random_word(rng, ab, 3))
        else:
            v = random_word(rng, ab, 6)
        same = _brute_conjugate(u, v)
        seen.add(same)
        assert are_conjugate(u, v) == are_conjugate(v, u) == same, (u, v)
    assert seen == {True, False}


def test_same_relator_is_conjugacy_up_to_inversion():
    ab = Alphabet(("x", "y"))
    rng = random.Random(1984)
    seen = set()
    for _ in range(1500):
        u = random_word(rng, ab, 5)
        v = rng.choice((conjugate(u, random_word(rng, ab, 2)), ~u, random_word(rng, ab, 5)))
        same = _brute_conjugate(u, v) or _brute_conjugate(u, ~v)
        seen.add(same)
        assert same_relator(u, v) == same_relator(v, u) == same, (u, v)
    assert seen == {True, False}


def test_matches_relator_is_same_relator_against_any_of_a_list():
    """The texts are derived once for the list; the answer is same_relator's against each member."""
    ab = Alphabet(("x", "y"))
    rng = random.Random(2007)
    seen = set()
    for _ in range(300):
        u = random_word(rng, ab, 4)
        relators = [rng.choice((conjugate(u, random_word(rng, ab, 2)), ~u, random_word(rng, ab, 4))) for _ in range(3)]
        texts = relator_texts(relators)
        assert len(texts) == 2 * len(relators)
        expected = any(same_relator(u, r) for r in relators)
        seen.add(expected)
        assert matches_relator(u, texts) == expected, (u, relators)
    assert seen == {True, False}
    assert not matches_relator(ab.gen("x"), relator_texts(()))


def test_rotation_tests_on_edge_cases(xyab):
    x, y, a = xyab.gen("x"), xyab.gen("y"), xyab.gen("a")
    one, xy = xyab.identity(), x * y
    cases = [
        (one, one),  # the identity
        (one, x),
        (x, x), (x, ~x), (x, y), (x, a * x * ~a),  # single letters
        (xy ** 3, y * xy ** 2 * x), (xy ** 3, xy ** 2), (xy ** 3, ~xy ** 3), (xy ** 2, (x * ~y) ** 2),  # powers
        (commutator(x, y), ~commutator(x, y)), (commutator(x, y), commutator(y, x)),  # [x, y]^-1 = [y, x]
        (commutator(x, y), commutator(x, a)), (x * x * y, x * y * y), (x * y * a, x * a * y),  # equal lengths
    ]
    for u, v in cases:
        conj = _brute_conjugate(u, v)
        assert are_conjugate(u, v) == are_conjugate(v, u) == conj, (u, v)
        assert same_relator(u, v) == same_relator(v, u) == (conj or _brute_conjugate(u, ~v)), (u, v)
    assert are_conjugate(one, one) and not are_conjugate(one, x) and not are_conjugate(x, ~x)
    assert same_relator(x, ~x) and not same_relator(x, y) and not same_relator(xy ** 3, xy ** 2)
    # [x, y]^-1 is the same relator as [x, y] but not a rotation of it: they are not conjugate
    assert same_relator(commutator(x, y), ~commutator(x, y)) and not are_conjugate(commutator(x, y), ~commutator(x, y))
    assert not same_relator(x * x * y, x * y * y)


def test_as_letter(xyab):
    x, y = xyab.gen("x"), xyab.gen("y")
    assert x.as_letter() == ("x", 1)
    assert (~y).as_letter() == ("y", -1)
    assert (x * x).as_letter() is None
    assert (x * y).as_letter() is None
    assert xyab.identity().as_letter() is None


def test_power_is_linear(xyab):
    x, y = xyab.gen("x"), xyab.gen("y")
    assert (x * y) ** 3 == x * y * x * y * x * y
    assert (x * y) ** -2 == ~y * ~x * ~y * ~x
    assert (x * y * ~x) ** 4 == x * y ** 4 * ~x
    assert (x * y) ** 0 == xyab.identity()

    def best(n: int) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            (x * y) ** n
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(4000) < 0.5  # one reduction pass, not 4000 re-reductions
    # linear: 4x the exponent costs about 4x; the repeated product cost 16x
    assert best(80_000) < 10 * best(20_000)


def test_word_str_and_len(xyab):
    assert str(xyab.identity()) == "1"
    w = xyab.gen("x", -2) * xyab.gen("y")
    assert str(w) == "x^-2 y"
    assert len(w) == 3


def test_a_word_renders_once_and_its_text_is_not_part_of_it(xyab):
    w = xyab.gen("x", -2) * xyab.gen("y")
    text = str(w)
    assert str(w) is text and repr(w) == f"<Word {text}>"
    fresh = Word(xyab, w.codes())  # equal, with no text yet
    assert fresh == w and hash(fresh) == hash(w)
    assert str(fresh) == text and str(fresh) is not text
    with pytest.raises(AttributeError):
        w._text = "y"


def test_letter_codes_name_each_letter_and_its_inverse(xyab):
    table = xyab.letter_codes()
    assert table == {"x": 0, "x^-1": 1, "y": 2, "y^-1": 3, "a": 4, "a^-1": 5, "b": 6, "b^-1": 7}
    assert xyab.letter_codes() is table  # built once
    for text, code in table.items():
        assert str(Word(xyab, [code])) == text
    assert Alphabet().letter_codes() == {}
    assert xyab == Alphabet(xyab.names) and hash(xyab) == hash(Alphabet(xyab.names))


def test_algebra_laws_randomized(xyab):
    rng = random.Random(20070202)
    identity = xyab.identity()
    for _ in range(400):
        u = random_word(rng, xyab)
        v = random_word(rng, xyab)
        w = random_word(rng, xyab)
        assert reduce(xyab, u.letters()) == u
        assert (u * v) * w == u * (v * w)
        assert ~(~u) == u
        assert (u * ~u).is_identity
        assert commutator(u, v) == ~commutator(v, u)
        images = {n: random_word(rng, xyab, 6) for n in xyab.names}
        assert substitute(u * v, images, xyab) == substitute(u, images, xyab) * substitute(
            v, images, xyab
        )
        assert substitute(~u, images, xyab) == ~substitute(u, images, xyab)
        assert substitute(u, {n: xyab.gen(n) for n in xyab.names}) == u
        assert conjugate(identity, u).is_identity


# The producers below build their words from codes they have reduced
# themselves, without the constructor's check; each must equal the word the
# validating constructor makes of the raw, unreduced codes.


def validated(codes) -> Word:
    return Word(XYZ, list(codes))


@PROPERTY
@given(words, st.data())
def test_product_cancels_across_the_seam_as_the_constructor_would(u, data):
    # v starts with the inverse of none, some or all of u's last letters
    cancel = data.draw(st.integers(0, len(u)))
    v = validated(inverse_codes(u.codes()[len(u) - cancel :]) + tuple(data.draw(raw_codes)))
    for a, b in ((u, v), (v, u), (u, ~u), (~u, u), (u, XYZ.identity()), (XYZ.identity(), u)):
        assert a * b == validated(a.codes() + b.codes())
    assert (u * ~u).is_identity


@PROPERTY
@given(words)
def test_inverse_is_the_reversed_inverse_letters(u):
    assert ~u == validated(c ^ 1 for c in reversed(u.codes()))


@PROPERTY
@given(words, words, st.integers(-4, 4))
def test_power_of_a_word_not_cyclically_reduced(core, prefix, n):
    base = validated(prefix.codes() + core.codes() + list(inverse_codes(prefix.codes())))  # rarely cyclically reduced
    raw = base.codes() if n >= 0 else [c ^ 1 for c in reversed(base.codes())]
    assert base ** n == validated(raw * abs(n))


@PROPERTY
@given(words, words)
def test_commutator_and_conjugate_reduce_in_one_pass(u, v):
    a, b = u.codes(), v.codes()
    assert commutator(u, v) == validated(a + b + list(inverse_codes(a)) + list(inverse_codes(b)))
    assert conjugate(u, v) == validated(b + a + list(inverse_codes(b)))


@PROPERTY
@given(words)
def test_cyclic_core_slices_the_reduced_word(w):
    core, prefix = cyclic_core(w)
    codes, k = w.codes(), len(prefix)
    assert prefix == validated(codes[:k])
    assert core == validated(codes[k : len(codes) - k])
    assert w == validated(prefix.codes() + core.codes() + list(inverse_codes(prefix.codes())))
    assert len(core) < 2 or core.codes()[0] != core.codes()[-1] ^ 1


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(XYZ.names), st.integers(-3, 3)), max_size=8))
def test_alphabet_word_reduces_its_syllables_as_the_constructor_would(syllables):
    assert XYZ.word(syllables) == validated(2 * XYZ.rank(n) + (e < 0) for n, e in syllables for _ in range(abs(e)))


@PROPERTY
@given(raw_codes, raw_codes, st.sampled_from((4, 5)))
def test_solve_relator_slices_as_the_constructor_would(p, q, z):
    relator = validated(p + [z] + q)  # z occurs once and cannot cancel
    i = relator.codes().index(z)
    p, q = relator.codes()[:i], relator.codes()[i + 1 :]
    raw = q + p if z & 1 else list(inverse_codes(p)) + list(inverse_codes(q))
    assert solve_relator(relator, "z") == validated(raw)


@PROPERTY
@given(words, st.lists(words, min_size=3, max_size=3))
def test_substitute_reduces_as_the_constructor_would(w, images):
    named = dict(zip(XYZ.names, images))
    pieces = [named[XYZ.names[c >> 1]].codes() for c in w.codes()]
    raw = [c for code, piece in zip(w.codes(), pieces) for c in (inverse_codes(piece) if code & 1 else piece)]
    assert substitute(w, named) == validated(raw)


@PROPERTY
@given(words, st.permutations(XYZ.names), st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
def test_relabel_by_signed_generators_is_the_substitution(w, order, signs):
    letters = []
    for name, sign in zip(order, signs):
        code = 2 * XYZ.rank(name) + (sign < 0)
        letters += (code, code ^ 1)
    moved = relabel(w, letters, XYZ)
    assert moved == validated(letters[c] for c in w.codes())
    assert moved == substitute(w, {n: XYZ.gen(g, e) for n, g, e in zip(XYZ.names, order, signs)})
