"""End-to-end acceptance suite.

Every check is exact (rational arithmetic, tolerance zero) and carries the
stated wall-clock budget.  Each criterion prints one PASS/FAIL line; run
with ``pytest -s`` to see them live.
"""

import io
import time
from contextlib import contextmanager

import pytest

from invforge.cli import main as cli_main
from invforge.derivations import expand_u_to_x
from invforge.fixtures import fixture_generator_set, load_fixtures
from invforge.invariants import (
    invariant_basis,
    is_member,
    mingenset,
    verify_invariant_u,
    verify_invariant_x,
)
from invforge.rings import u_ring, x_ring
from invforge.syzygies import check_syzygy, minimal_syzygies, syzygy_basis
from invforge.textio import parse_poly

import properties
from properties import invariant_basis_direct, normalize, span_equal

F2_QUARTIC = "x0*u4 + 3*u2^2"
F3_QUARTIC = "u2^3 - x0*u2*u4 + x0*u3^2"
CUBIC_X_FORM = "4*x0*x2^3 - 3*x1^2*x2^2 + x0^2*x3^2 - 6*x0*x1*x2*x3 + 4*x1^3*x3"
QUINTIC_RELATION = (
    "1296*f18^2 + 48*f12^3 - f4^5*f8^2 + 6*f4^3*f8^3 - 9*f4*f8^4"
    " + 2*f4^4*f8*f12 + 18*f4^2*f8^2*f12 - 72*f8^3*f12 - f4^3*f12^2"
    " - 72*f4*f8*f12^2"
)


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {number}: PASS - {description} ({dt:.2f}s, budget {budget_s}s)")
    assert dt < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_quadratic_generator():
    with criterion(1, "n=2 mingenset is exactly the discriminant", 1):
        out = io.StringIO()
        code = cli_main(["mingenset", "--n", "2", "--coords", "x"], out=out)
        assert code == 0
        lines = [l for l in out.getvalue().splitlines() if "*" in l]
        assert lines == ["x0*x2 - x1^2"]


def test_criterion_2_cubic_quartic_invariant():
    with criterion(2, "n=3 degree-4 basis and its x-form", 1):
        basis = invariant_basis(3, 4)
        assert len(basis) == 1
        assert basis[0] == parse_poly("4*x0*u2^3 + x0^2*u3^2", u_ring(3))
        assert expand_u_to_x(basis[0], 3) == parse_poly(CUBIC_X_FORM, x_ring(3))


def test_criterion_3_quartic_generators():
    with criterion(3, "n=4 generators match the reference pair exactly", 1):
        gens = mingenset(4, 2, [2, 3])
        assert gens.degrees() == (2, 3)
        U4 = u_ring(4)
        assert normalize(gens[0].u_poly) == normalize(parse_poly(F2_QUARTIC, U4))
        assert normalize(gens[1].u_poly) == normalize(parse_poly(F3_QUARTIC, U4))


def test_criterion_4_quintic_generating_set(store):
    with criterion(4, "n=5 generating set, verified, reference-compatible", 120):
        gens = store.get("mingenset5", lambda: mingenset(5, 4, [4, 8, 12, 18]))
        assert store.seconds["mingenset5"] < 120
        assert gens.degrees() == (4, 8, 12, 18)
        for g in gens:
            assert verify_invariant_u(5, g.u_poly)
            assert verify_invariant_x(5, g.x_poly)
        records = load_fixtures(5)
        assert all(r.status == "validated" for r in records)
        reference = fixture_generator_set(5)
        # the degree-4 reference generator is a scalar multiple of ours
        assert normalize(reference[0].u_poly) == normalize(gens[0].u_poly)
        for g in reference:
            assert is_member(gens, g.u_poly) is not None
        for g in gens:
            assert is_member(reference, g.u_poly) is not None


def test_criterion_5_quintic_syzygy():
    with criterion(5, "n=5 degree-36 relation space and the printed identity", 120):
        reference = fixture_generator_set(5)
        basis = syzygy_basis(reference, 36)
        assert len(basis) == 1
        rel = parse_poly(QUINTIC_RELATION, reference.gen_context())
        assert check_syzygy(reference, rel)


def test_criterion_6_sextic(store):
    with criterion(6, "n=6 generators and the single degree-30 relation", 600):
        gens = store.get("mingenset6", lambda: mingenset(6, 5, [2, 4, 6, 10, 15]))
        assert gens.degrees() == (2, 4, 6, 10, 15)
        found = minimal_syzygies(gens, [30])
        assert len(found) == 1
        records = load_fixtures(6)
        assert all(r.status == "validated" for r in records)
        # fixtures validated, so the printed identity must expand to zero
        reference = fixture_generator_set(6)
        rel = next(r.poly for r in records if r.name == "syzygy-1")
        assert check_syzygy(reference, rel)


@pytest.mark.slow
def test_criterion_7_octavic():
    with criterion(7, "n=8 nine generators and five minimal relations", 1800):
        gens = mingenset(8, 9, list(range(2, 11)))
        assert gens.degrees() == tuple(range(2, 11))
        found = minimal_syzygies(gens, [16, 17, 18, 19, 20])
        assert len(found) == 5
        for syz in found:
            assert check_syzygy(gens, syz.relation)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "reduced-operator bases match the two-equation oracle", 300):
        for n in (2, 3, 4, 5):
            for d in range(1, 24 // n + 1):
                via_reduction = invariant_basis(n, d)
                direct = invariant_basis_direct(n, d)
                assert len(via_reduction) == len(direct)
                converted = [normalize(expand_u_to_x(f, n)) for f in via_reduction]
                assert span_equal(converted, list(direct), n)


def test_criterion_9_property_batteries():
    with criterion(9, "exact property batteries", 60):
        properties.check_leibniz(pairs=200)
        properties.check_kernel_projection_closed_forms(8)
        properties.check_x_round_trip(8)
        properties.check_raising_chain_rule(8)
        properties.check_coefficient_sums(12, 12)
        properties.check_commutator(8)
        properties.check_reduced_operator_grading()
        properties.check_full_operator_agreement()
        properties.check_linalg_against_naive()
