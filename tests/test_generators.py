import io

import pytest

from nlcx.finite_field import field_of_order
from nlcx.generators import (Sequence, SplitMix64, child_seed,
                             default_periodic_c, inversive_finite,
                             inversive_periodic, least_period,
                             random_sequence, read_sequence,
                             sequence_from_text, sequence_to_text,
                             splitmix64_mix, write_sequence)


def test_splitmix64_reference_values():
    # first outputs for seed 0; standard splitmix64 stream
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F


def test_splitmix64_mix_is_deterministic_and_64bit():
    for z in (0, 1, 2**64 - 1, 0xDEADBEEF):
        v = splitmix64_mix(z)
        assert 0 <= v < 2**64
        assert v == splitmix64_mix(z)
    assert child_seed(5, 0) != child_seed(5, 1)


def test_sequence_validation_and_views():
    f5 = field_of_order(5)
    s = Sequence(f5, [1, 2, 3])
    assert len(s) == 3 and s[1] == 2 and list(s) == [1, 2, 3]
    assert s.prefix(2).values == [1, 2]
    assert [int(x) for x in s.elements()] == [1, 2, 3]
    with pytest.raises(ValueError):
        Sequence(f5, [1, 5, 0])
    with pytest.raises(ValueError):
        Sequence(f5, [-1])


def test_inversive_small_fields():
    # worked by hand: q=5, g=2, a=1 gives (2^i - 1)^{-1} for i=1..3
    f5 = field_of_order(5)
    assert inversive_finite(f5).values == [1, 2, 3]
    # q=5, a=3: (3*2^i - 3)^{-1}
    assert inversive_finite(f5, a=3).values == [2, 4, 1]
    f7 = field_of_order(7)
    s = inversive_finite(f7)
    assert len(s) == 5
    g = f7.primitive
    for i, v in enumerate(s.values, start=1):
        assert f7.mul(v, f7.sub(f7.pow(g, i), 1)) == 1


def test_inversive_terms_are_defined_and_nonzero_denominator():
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field_of_order(q)
        s = inversive_finite(f)
        assert len(s) == q - 2
        assert s.provenance["kind"] == "inversive"


def test_inversive_rejects_bad_args():
    f5 = field_of_order(5)
    with pytest.raises(ValueError):
        inversive_finite(f5, a=0)
    with pytest.raises(ValueError):
        inversive_finite(field_of_order(2))
    with pytest.raises(ValueError):
        inversive_finite(f5, base=4)  # order 2, not primitive


def test_periodic_worked_example():
    # q=7, d=3: u=2, default c=3, b=1 gives (2^i - 3)^{-1} repeating 6,1,3
    f7 = field_of_order(7)
    s = inversive_periodic(f7, 3, 6)
    assert s.values == [6, 1, 3, 6, 1, 3]
    assert s.provenance == {"kind": "periodic", "d": 3, "b": 1, "c": 3, "n": 6}
    assert default_periodic_c(f7, 3) == 3


def test_periodic_least_period_is_d():
    for q, d in [(7, 3), (7, 2), (9, 4), (13, 6), (13, 4), (13, 3), (13, 2), (13, 1)]:
        f = field_of_order(q)
        s = inversive_periodic(f, d, 3 * d)
        assert least_period(s.values) == d
        assert len(set(s.values[:d])) == d  # one period, pairwise distinct


def test_periodic_rejects_bad_args():
    f7 = field_of_order(7)
    with pytest.raises(ValueError):
        inversive_periodic(f7, 6, 6)  # d must be < q-1
    with pytest.raises(ValueError):
        inversive_periodic(f7, 4, 8)  # 4 does not divide 6
    with pytest.raises(ValueError):
        inversive_periodic(f7, 3, 6, c=2)  # 2 lies in <u> = {1,2,4}
    with pytest.raises(ValueError):
        inversive_periodic(f7, 3, 6, b=0)


def test_random_sequence_deterministic_and_uniformish():
    f = field_of_order(5)
    a = random_sequence(f, 50, 123)
    b = random_sequence(f, 50, 123)
    c = random_sequence(f, 50, 124)
    assert a.values == b.values
    assert a.values != c.values
    assert set(a.values) <= set(range(5))
    big = random_sequence(field_of_order(3), 3000, 7)
    counts = [big.values.count(v) for v in range(3)]
    assert all(700 < c < 1300 for c in counts)


def test_least_period():
    assert least_period([1, 2, 1, 2, 1, 2]) == 2
    assert least_period([1, 2, 3]) == 3
    assert least_period([5]) == 1
    assert least_period([]) == 0
    assert least_period([1, 2, 1, 2, 1]) == 2


def test_text_round_trip():
    f = field_of_order(9)
    s = inversive_finite(f, a=2)
    text = sequence_to_text(s, extra_comments=["generated for a test"])
    t = sequence_from_text(text)
    assert t.values == s.values
    assert t.field is s.field
    assert t.provenance["kind"] == "inversive"
    assert t.provenance["a"] == 2


def test_file_round_trip(tmp_path):
    f = field_of_order(7)
    s = inversive_periodic(f, 3, 9)
    p = tmp_path / "seq.txt"
    write_sequence(s, str(p))
    t = read_sequence(str(p))
    assert t.values == s.values
    assert t.provenance == s.provenance


@pytest.mark.parametrize("how", ["str", "bytes", "path", "file"])
def test_files_hold_exactly_the_text_format(tmp_path, how):
    s = inversive_periodic(field_of_order(9), 4, 7)
    comments = ["first comment", "second"]
    p = tmp_path / "seq.txt"
    if how == "file":
        with open(p, "w") as out:
            write_sequence(s, out, comments)
        with open(p) as src:
            t = read_sequence(src)
    else:
        target = {"str": str(p), "bytes": bytes(p), "path": p}[how]
        write_sequence(s, target, comments)
        t = read_sequence(target)
    assert p.read_text() == sequence_to_text(s, comments)
    assert t == s


def test_read_rejects_headerless_input():
    with pytest.raises(ValueError):
        read_sequence(io.StringIO("1\n2\n"))
    with pytest.raises(ValueError):
        sequence_from_text("# kind=foo params=\n1\n")


def test_read_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        sequence_from_text("# q=5 kind=raw params=\n1\n7\n")
