import pytest

from diffops.errors import FixtureError, InsufficientTermsError, InvalidArgumentError
from diffops.exactalg import count_order_k, walk_char_poly, walk_vectors
from diffops.opgraph import Family, build_space
from diffops import sequences
from diffops.sequences import (
    OEIS_IDS,
    RecurrenceSpec,
    SequenceRecord,
    derive_recurrence,
    fixture_ids,
    format_recurrence,
    id_associations,
    load_fixture,
    make_record,
    oeis_compare,
    parse_bfile,
    recurrence_table,
    verify_recurrence,
)

from fixture_terms import generate_fixture_terms, write_fixtures
from paper_data import TABLE_A, TABLE_B


class TestDeriveRecurrence:
    def test_a3_is_fibonacci_shift(self):
        spec = derive_recurrence(build_space(3, "A"))
        assert spec.coefficients == (1, 1)

    def test_b3_is_doubling(self):
        spec = derive_recurrence(build_space(3, "B"))
        assert spec.coefficients == (2,)

    def test_a6_keeps_interior_zeros(self):
        spec = derive_recurrence(build_space(6, "A"))
        assert spec.coefficients == (0, 3, 0, -1)

    def test_order_matches_coefficients(self):
        for family in ("A", "B"):
            for n in range(3, 11):
                spec = derive_recurrence(build_space(n, family))
                assert spec.order == len(spec.coefficients)


def _annihilates(coeffs, terms):
    spec = RecurrenceSpec(len(coeffs), tuple(coeffs))
    return all(spec.applies(terms, k) for k in range(spec.order + 1, len(terms) + 1))


def sampled_trim(space):
    """The sampled rule derive_recurrence replaced: take the recurrence of
    the full characteristic polynomial (degree d) and drop trailing zero
    coefficients while the shorter one still fits the first d + 25 counts."""
    p = walk_char_poly(space)
    d = p.degree
    coeffs = tuple(-p.coefficient(d - i) for i in range(1, d + 1))
    terms = [sum(vec) for vec in walk_vectors(space, d + 25)]
    while len(coeffs) > 1 and coeffs[-1] == 0 and _annihilates(coeffs[:-1], terms):
        coeffs = coeffs[:-1]
    return RecurrenceSpec(len(coeffs), coeffs)


def set_matrix(space):
    """T[s][t]: the number of operations from A_s to A_t."""
    r = space.m + 1
    T = [[0] * r for _ in range(r)]
    for dom, cod in space.signatures.values():
        T[dom][cod] += 1
    return T


class TestRecurrenceProof:
    @pytest.mark.parametrize("family", ["A", "B"])
    def test_equals_sampled_trim(self, family):
        for n in range(3, 41):
            space = build_space(n, family)
            assert derive_recurrence(space) == sampled_trim(space), n

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_holds_far_past_the_sample(self, family):
        for n in range(3, 41):
            space = build_space(n, family)
            spec = derive_recurrence(space)
            assert spec.coefficients[-1] != 0
            terms = [sum(vec) for vec in walk_vectors(space, walk_char_poly(space).degree + 200)]
            assert _annihilates(spec.coefficients, terms), n

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 15))
    def test_set_matrix_is_jacobi(self, family, n):
        space = build_space(n, family)
        T = set_matrix(space)
        r = space.m + 1
        for s in range(r):
            for t in range(r):
                if s != t:
                    assert T[s][t] == int(abs(s - t) == 1), (s, t)
        loops = [T[s][s] for s in range(r)]
        expected = [0] * r
        expected[0] += family == "B"
        expected[-1] += n % 2
        assert loops == expected

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 15))
    def test_counts_are_set_matrix_power_sums(self, family, n):
        space = build_space(n, family)
        T = set_matrix(space)
        power = T
        for k in range(1, 41):
            assert sum(map(sum, power)) == count_order_k(space, k), k
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*T)] for row in power]


class TestVerifyRecurrence:
    def test_a3_terms_satisfy_fibonacci_recurrence(self):
        record = make_record("A", 3, 50)
        assert record.terms[:5] == (3, 5, 8, 13, 21)
        assert verify_recurrence(record, 50)

    def test_b3_terms_satisfy_doubling(self):
        record = make_record("B", 3, 50)
        assert record.terms[:3] == (4, 8, 16)
        assert verify_recurrence(record, 50)

    def test_corrupted_term_detected(self):
        record = make_record("A", 3, 30)
        broken = SequenceRecord(
            record.family,
            record.n,
            record.terms[:10] + (record.terms[10] + 1,) + record.terms[11:],
            record.recurrence,
            record.oeis_id,
        )
        assert not verify_recurrence(broken, 30)

    def test_insufficient_terms_error(self):
        record = make_record("A", 3, 10)
        with pytest.raises(InsufficientTermsError):
            verify_recurrence(record, 11)

    @pytest.mark.parametrize("upto", [0, 2, 4])
    def test_range_with_nothing_to_check_rejected(self, upto):
        record = make_record("A", 6, 10)
        assert record.recurrence.order == 4
        with pytest.raises(InvalidArgumentError):
            verify_recurrence(record, upto)


class TestTable:
    def test_family_a_rows(self):
        specs = recurrence_table("A", 3, 10)
        assert [s.coefficients for s in specs] == [TABLE_A[n] for n in range(3, 11)]

    def test_family_b_rows(self):
        specs = recurrence_table("B", 3, 10)
        assert [s.coefficients for s in specs] == [TABLE_B[n] for n in range(3, 11)]

    def test_bad_range(self):
        with pytest.raises(Exception):
            recurrence_table("A", 5, 4)

    @pytest.mark.parametrize("family,table", [("A", TABLE_A), ("B", TABLE_B)])
    def test_rows_annihilate_computed_terms(self, family, table):
        for n, coeffs in table.items():
            space = build_space(n, family)
            terms = [count_order_k(space, k) for k in range(1, 51)]
            spec = RecurrenceSpec(len(coeffs), coeffs)
            assert all(spec.applies(terms, k) for k in range(spec.order + 1, 51))

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_recurrence_regenerates_counts(self, family, n):
        space = build_space(n, family)
        spec = derive_recurrence(space)
        terms = [count_order_k(space, k) for k in range(1, spec.order + 1)]
        for k in range(spec.order + 1, 51):
            nxt = sum(c * terms[-i] for i, c in enumerate(spec.coefficients, 1))
            terms.append(nxt)
        assert terms == [count_order_k(space, k) for k in range(1, 51)]


class TestCrossFamilyCoincidences:
    @pytest.mark.parametrize("n_b,n_a", [(4, 5), (6, 7), (8, 9)])
    def test_b_terms_equal_a_terms_one_dimension_up(self, n_b, n_a):
        b_terms = make_record("B", n_b, 25).terms
        a_terms = make_record("A", n_a, 25).terms
        assert b_terms == a_terms
        assert OEIS_IDS[(Family.B, n_b)] == OEIS_IDS[(Family.A, n_a)]

    def test_both_powers_of_two_sequences(self):
        # n=3 and n=7 share the same id; terms differ by a power-of-two shift
        t3 = make_record("B", 3, 20).terms
        t7 = make_record("B", 7, 20).terms
        assert all(t7[k] == 2 * t3[k] for k in range(20))


class TestFormatRecurrence:
    def test_typical(self):
        assert format_recurrence(RecurrenceSpec(3, (1, 2, -1)), "f") == (
            "f(k) = f(k-1) + 2 f(k-2) - f(k-3)"
        )

    def test_skips_zero_terms(self):
        assert format_recurrence(RecurrenceSpec(4, (0, 3, 0, -1)), "f") == (
            "f(k) = 3 f(k-2) - f(k-4)"
        )

    def test_single_term(self):
        assert format_recurrence(RecurrenceSpec(1, (2,)), "g") == "g(k) = 2 g(k-1)"


class TestFixtures:
    def test_twelve_ids(self):
        assert len(fixture_ids()) == 12

    def test_bundled_files_exist_and_parse(self):
        for sid in fixture_ids():
            terms = load_fixture(sid)
            assert len(terms) >= 20

    def test_bundled_content_equals_regenerated(self, tmp_path, monkeypatch):
        write_fixtures(tmp_path)
        monkeypatch.delenv(sequences.ENV_FIXTURES_DIR, raising=False)
        bundled = {sid: load_fixture(sid) for sid in fixture_ids()}
        monkeypatch.setenv(sequences.ENV_FIXTURES_DIR, str(tmp_path))
        assert {sid: load_fixture(sid) for sid in fixture_ids()} == bundled

    def test_fixture_file_format(self):
        path = sequences.fixture_path("A020701")
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "A020701"
        assert [int(t) for t in lines[1].split(",")][:4] == [3, 5, 8, 13]

    def test_unknown_id(self):
        with pytest.raises(FixtureError):
            load_fixture("A999999")
        with pytest.raises(FixtureError):
            generate_fixture_terms("A999999")

    def test_terms_validated_against_counts(self):
        # every fixture aligns, at some small shift, with the computed counts
        for (family, n), sid in OEIS_IDS.items():
            ref = load_fixture(sid)
            space = build_space(n, family)
            counts = [count_order_k(space, k) for k in range(1, 21)]
            shifts = [
                d
                for d in range(-3, 4)
                if all(
                    ref[t + d] == counts[t]
                    for t in range(20)
                    if 0 <= t + d < len(ref)
                )
            ]
            assert shifts, (family, n, sid)

    def test_env_var_override(self, tmp_path, monkeypatch):
        write_fixtures(tmp_path, count=25)
        monkeypatch.setenv(sequences.ENV_FIXTURES_DIR, str(tmp_path))
        assert len(load_fixture("A000079")) == 25


class TestOeisCompare:
    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_offline_match(self, family, n):
        record = make_record(family, n, 30)
        report = oeis_compare(record)
        assert report.passed
        assert report.source == "fixtures"
        assert abs(report.offset) <= 3
        assert report.matched_terms >= 20

    def test_expected_alignment_offsets(self):
        assert oeis_compare(make_record("B", 3, 30)).offset == 2
        assert oeis_compare(make_record("B", 7, 30)).offset == 3
        assert oeis_compare(make_record("B", 5, 30)).offset == 1
        assert oeis_compare(make_record("A", 3, 30)).offset == 0

    def test_id_associations(self):
        assert set(id_associations("A000079")) == {(Family.B, 3), (Family.B, 7)}
        assert set(id_associations("A090990")) == {(Family.A, 5), (Family.B, 4)}

    def test_too_few_terms(self):
        with pytest.raises(InsufficientTermsError):
            oeis_compare(make_record("A", 3, 5))

    def test_record_without_id(self):
        record = make_record("A", 3, 30)
        anon = SequenceRecord(record.family, record.n, record.terms, record.recurrence, None)
        with pytest.raises(FixtureError):
            oeis_compare(anon)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            oeis_compare(make_record("A", 3, 30), mode="sideways")

    def test_mismatching_reference_reported(self):
        record = make_record("A", 3, 30)
        wrong = SequenceRecord(record.family, record.n, tuple(t + 1 for t in record.terms),
                               record.recurrence, record.oeis_id)
        report = oeis_compare(wrong)
        assert not report.passed
        assert report.offset is None

    def test_online_fallback_on_network_failure(self, monkeypatch):
        def boom(sequence_id, timeout=5.0):
            raise OSError("no route to host")

        monkeypatch.setattr(sequences, "fetch_oeis_terms", boom)
        report = oeis_compare(make_record("B", 3, 30), mode="online")
        assert report.passed
        assert report.source == "offline-fallback"

    def test_online_success_path(self, monkeypatch):
        def fake_fetch(sequence_id, timeout=5.0):
            return [2**i for i in range(40)]

        monkeypatch.setattr(sequences, "fetch_oeis_terms", fake_fetch)
        report = oeis_compare(make_record("B", 3, 30), mode="online")
        assert report.passed
        assert report.source == "online"


class TestBFileParsing:
    def test_parse(self):
        text = "# comment line\n0 1\n1 2\n2 4\n\n3 8\n"
        assert parse_bfile(text) == [1, 2, 4, 8]

    def test_malformed(self):
        with pytest.raises(FixtureError):
            parse_bfile("0\n")
        with pytest.raises(FixtureError):
            parse_bfile("0 x\n")
        with pytest.raises(FixtureError):
            parse_bfile("# only comments\n")
