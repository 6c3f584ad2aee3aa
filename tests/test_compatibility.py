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
