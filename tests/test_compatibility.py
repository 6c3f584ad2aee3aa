"""Compatibility rules against the brute-force row-subsumption oracle."""

import copy
import random

import pytest

from contractforge.compatibility import check_compatibility
from contractforge.errors import ContractForgeError, InvariantViolation
from contractforge.model import Constraints, Contract, FieldSpec, canonicalize
from _builders import compatibility_pair
from _compat_oracle import rows_subsume


def contract_of(*fields: FieldSpec) -> Contract:
    contract = Contract("pairwise", list(fields))
    contract.validate()
    return contract


BASE = contract_of(
    FieldSpec("alpha", "number", False),
    FieldSpec("beta", "string", True),
)


class TestBackwardRules:
    def test_identical_contracts_compatible_under_every_mode(self):
        for mode in ("none", "backward", "forward", "full"):
            verdict = check_compatibility(BASE, copy.deepcopy(BASE), mode)
            assert verdict.compatible, (mode, verdict.reasons)

    def test_adding_nullable_field_is_backward_compatible(self):
        grown = copy.deepcopy(BASE)
        grown.fields.append(FieldSpec("note", "string", True))
        verdict = check_compatibility(BASE, grown, "backward")
        assert verdict.compatible
        assert rows_subsume(BASE, grown)

    def test_adding_non_nullable_field_breaks(self):
        grown = copy.deepcopy(BASE)
        grown.fields.append(FieldSpec("note", "string", False))
        verdict = check_compatibility(BASE, grown, "backward")
        assert not verdict.compatible
        assert any("note" in r for r in verdict.reasons)
        assert not rows_subsume(BASE, grown)

    def test_narrowing_number_to_integer_breaks(self):
        narrowed = copy.deepcopy(BASE)
        narrowed.fields[0].logical_type = "integer"
        verdict = check_compatibility(BASE, narrowed, "backward")
        assert not verdict.compatible
        assert any("alpha" in r for r in verdict.reasons)
        assert not rows_subsume(BASE, narrowed)

    def test_widening_integer_to_number_is_compatible(self):
        old = contract_of(FieldSpec("n", "integer", False))
        new = contract_of(FieldSpec("n", "number", False))
        assert check_compatibility(old, new, "backward").compatible
        assert not check_compatibility(old, new, "forward").compatible

    def test_removing_a_field_breaks_backward(self):
        shrunk = contract_of(BASE.fields[0])
        verdict = check_compatibility(BASE, shrunk, "backward")
        assert not verdict.compatible
        assert any("beta" in r and "removed" in r for r in verdict.reasons)
        assert not rows_subsume(BASE, shrunk)

    def test_nullable_to_non_nullable_breaks(self):
        stricter = copy.deepcopy(BASE)
        stricter.fields[1].nullable = False
        assert not check_compatibility(BASE, stricter, "backward").compatible
        assert not rows_subsume(BASE, stricter)

    def test_non_nullable_to_nullable_is_widening(self):
        looser = copy.deepcopy(BASE)
        looser.fields[0].nullable = True
        assert check_compatibility(BASE, looser, "backward").compatible
        assert rows_subsume(BASE, looser)

    def test_enum_growth_compatible_shrink_not(self):
        old = contract_of(FieldSpec("c", "enum_string", False,
                                    Constraints(allowed_values=["red", "green"])))
        grown = contract_of(FieldSpec("c", "enum_string", False,
                                      Constraints(allowed_values=["red", "green", "blue"])))
        shrunk = contract_of(FieldSpec("c", "enum_string", False,
                                       Constraints(allowed_values=["red"])))
        assert check_compatibility(old, grown, "backward").compatible
        assert not check_compatibility(old, shrunk, "backward").compatible
        assert rows_subsume(old, grown)
        assert not rows_subsume(old, shrunk)

    def test_string_to_enum_breaks(self):
        old = contract_of(FieldSpec("c", "string", False))
        new = contract_of(FieldSpec("c", "enum_string", False,
                                    Constraints(allowed_values=["red"])))
        assert not check_compatibility(old, new, "backward").compatible
        assert not rows_subsume(old, new)

    def test_enum_to_string_widens(self):
        old = contract_of(FieldSpec("c", "enum_string", False,
                                    Constraints(allowed_values=["red"])))
        new = contract_of(FieldSpec("c", "string", False))
        assert check_compatibility(old, new, "backward").compatible
        assert rows_subsume(old, new)

    def test_range_narrowing_breaks_widening_holds(self):
        old = contract_of(FieldSpec("n", "integer", False,
                                    Constraints(min_value=0, max_value=10)))
        wider = contract_of(FieldSpec("n", "integer", False))
        tighter = contract_of(FieldSpec("n", "integer", False,
                                        Constraints(min_value=2, max_value=10)))
        assert check_compatibility(old, wider, "backward").compatible
        assert not check_compatibility(old, tighter, "backward").compatible
        assert rows_subsume(old, wider)
        assert not rows_subsume(old, tighter)

    def test_date_and_timestamp_do_not_interchange(self):
        d = contract_of(FieldSpec("t", "date", False))
        ts = contract_of(FieldSpec("t", "timestamp", False))
        assert not check_compatibility(d, ts, "backward").compatible
        assert not check_compatibility(ts, d, "backward").compatible
        s = contract_of(FieldSpec("t", "string", False))
        assert check_compatibility(d, s, "backward").compatible

    def test_full_mode_prefixes_forward_reasons(self):
        old = contract_of(FieldSpec("n", "integer", False))
        new = contract_of(FieldSpec("n", "number", False))
        verdict = check_compatibility(old, new, "full")
        assert not verdict.compatible
        assert any(r.startswith("forward: ") for r in verdict.reasons)

    def test_mode_none_accepts_anything(self):
        wild = contract_of(FieldSpec("totally", "boolean", False))
        assert check_compatibility(BASE, wild, "none").compatible

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractForgeError, match="unknown compatibility mode"):
            check_compatibility(BASE, BASE, "sideways")

    @pytest.mark.parametrize("bad, message", [
        (Contract("pairwise", [FieldSpec("alpha", "integr", False)]), "unknown logical_type"),
        (Contract("pairwise", None), "fields must be an array"),
    ], ids=["type-typo", "no-fields"])
    @pytest.mark.parametrize("bad_is_new", [True, False], ids=["new", "old"])
    def test_invalid_contract_is_refused(self, bad, message, bad_is_new):
        """A contract built in code is checked first, not read as a verdict."""
        old, new = (BASE, bad) if bad_is_new else (bad, BASE)
        with pytest.raises(InvariantViolation, match=message):
            check_compatibility(old, new)


class TestOracleAgreement:
    @pytest.mark.parametrize("old_spec, new_spec, backward", [
        (FieldSpec("n", "integer", True, Constraints(min_value=0.5, max_value=10)),
         FieldSpec("n", "integer", True, Constraints(min_value=1, max_value=10)), True),
        (FieldSpec("n", "integer", True, Constraints(min_value=0, max_value=10.9)),
         FieldSpec("n", "integer", True, Constraints(min_value=0, max_value=10)), True),
        (FieldSpec("n", "integer", True, Constraints(min_value=0.2, max_value=0.8)),
         FieldSpec("n", "integer", True, Constraints(min_value=5, max_value=6)), True),
        (FieldSpec("n", "integer", False, Constraints(min_value=0.2, max_value=0.8)),
         FieldSpec("n", "boolean", False), True),
        (FieldSpec("n", "integer", True, Constraints(min_value=0.5, max_value=10)),
         FieldSpec("n", "integer", True, Constraints(min_value=1.5, max_value=10)), False),
    ], ids=["fractional-min", "fractional-max", "empty-range", "empty-range-to-boolean",
            "fractional-min-cuts-an-integer"])
    def test_integer_ranges_are_read_as_their_integers(self, old_spec, new_spec, backward):
        """An ``integer`` field accepts the integers of its range alone, so
        ``[0.5, 10]`` is ``[1, 10]`` and ``[0.2, 0.8]`` accepts no value
        but ``""``; the verdict is the oracle's in every mode.  The last pair
        needs the oracle's integer probes next to a fractional bound: ``"1"``
        passes ``[0.5, 10]`` and fails ``[1.5, 10]``."""
        old, new = contract_of(old_spec), contract_of(new_spec)
        assert rows_subsume(old, new) == backward
        forward = rows_subsume(new, old)
        expected = {"none": True, "backward": backward, "forward": forward,
                    "full": backward and forward}
        for mode, compatible in expected.items():
            verdict = check_compatibility(old, new, mode)
            assert verdict.compatible == compatible, (mode, verdict.reasons)

    def test_a_narrowed_range_names_its_declared_bounds(self):
        """Where a range is narrowed, the reason names each declared bound
        that the new range cuts into, also one that cuts off no integer."""
        old = contract_of(FieldSpec("n", "integer", True, Constraints(min_value=0.5, max_value=10)))
        new = contract_of(FieldSpec("n", "integer", True, Constraints(min_value=1, max_value=9)))
        assert check_compatibility(old, new).reasons == [
            "field 'n': numeric range narrowed (lower bound 1, upper bound 9)"]
        assert not rows_subsume(old, new)

    def test_random_pairs_agree_with_row_oracle(self):
        rng = random.Random(424242)
        outcomes = set()
        for i in range(40):
            old, new = compatibility_pair(rng)
            expected = rows_subsume(old, new)
            verdict = check_compatibility(old, new, "backward")
            assert verdict.compatible == expected, (
                i, canonicalize(old), canonicalize(new), verdict.reasons)
            outcomes.add(expected)
        assert outcomes == {True, False}  # the generator exercises both

    def test_random_fractional_ranges_agree_with_row_oracle(self):
        """One field each side, of a numeric or other type, with bounds on
        halves and tenths, so that ranges often hold no integer or cut
        between two."""
        rng = random.Random(5)

        def bound():
            return rng.choice([None, rng.randint(-3, 3), rng.randint(-6, 6) / 2,
                               rng.randint(-30, 30) / 10])

        def spec() -> FieldSpec:
            logical_type = rng.choice(["integer", "integer", "number", "boolean", "string"])
            constraints = None
            if logical_type in ("integer", "number"):
                lo, hi = bound(), bound()
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                constraints = Constraints(min_value=lo, max_value=hi)
            return FieldSpec("n", logical_type, rng.random() < 0.5, constraints)

        outcomes = set()
        for i in range(400):
            old, new = contract_of(spec()), contract_of(spec())
            expected = rows_subsume(old, new)
            verdict = check_compatibility(old, new, "backward")
            assert verdict.compatible == expected, (
                i, canonicalize(old), canonicalize(new), verdict.reasons)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_duality_and_full_composition(self):
        rng = random.Random(99)
        for _ in range(40):
            old, new = compatibility_pair(rng)
            backward = check_compatibility(old, new, "backward").compatible
            forward = check_compatibility(old, new, "forward").compatible
            assert forward == check_compatibility(new, old, "backward").compatible
            assert check_compatibility(new, old, "forward").compatible == backward
            full = check_compatibility(old, new, "full")
            assert full.compatible == (backward and forward)

    def test_incompatible_reasons_name_fields(self):
        rng = random.Random(7)
        seen_reason = False
        for _ in range(30):
            old, new = compatibility_pair(rng)
            verdict = check_compatibility(old, new, "backward")
            if not verdict.compatible:
                seen_reason = True
                assert verdict.reasons
                assert all("field" in r for r in verdict.reasons)
        assert seen_reason
