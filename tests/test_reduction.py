import copy
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracparts.core import (
    Epsilons,
    Poly,
    PolySystem,
    Real,
    ScalarParseError,
    SystemState,
    eval_system,
    first_hit,
    parse_rational,
)
from fracparts.driver import solve
from fracparts.intlinalg import det_bareiss
from fracparts.latgeom import GeneratorSet, quasi_orthogonal_generators
from fracparts.reduction import (
    Certificate,
    DegenerateHorizonError,
    HorizonOverflowError,
    LiftVerificationError,
    ReductionPreconditionError,
    density_invariant,
    lift_solution,
    reduce_dimension,
    verify_certificate,
)
from fracparts.serialize import SystemFileError, load_certificate
from fraction_oracle import frac_dist, frac_inverse, mat_vec, poly_eval
from test_acceptance import PLANT_CONFIG, PLANT_SEED, planted_state, planted_step


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


def dup_state(x=10 ** 5, eps=Fraction(1, 20)):
    s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
    return SystemState(s, Epsilons((eps, eps)), Real(Fraction(x)))


def dup_gens(state):
    g = quasi_orthogonal_generators(state.system, *state.region,
                                    N_target=41, c_orth=0.05)
    assert isinstance(g, GeneratorSet)
    return g


class TestReduceDimension:
    def test_duplicate_pair_end_to_end(self):
        state = dup_state()
        gens = dup_gens(state)
        step = reduce_dimension(state, gens)
        assert step.k_prime == 1
        assert step.D1 == 1 and step.D2 == 1
        # child system is the surviving duplicate
        child = step.child_state()
        hit = first_hit(child.system, child.eps, child.y)
        assert hit is not None
        n, dists = lift_solution(step, hit, state)
        assert n == hit * step.D2
        for dv, e in zip(dists, state.eps.eps):
            assert dv < e

    def test_k1_cannot_reduce(self):
        s = sys1(["1/2"])
        state = SystemState(s, Epsilons((Fraction(1, 100),)), Real(Fraction(1000)))
        g = quasi_orthogonal_generators(s, [100], Fraction(1, 2001),
                                        N_target=3, c_orth=0.05)
        assert isinstance(g, GeneratorSet) and g.r == 1
        with pytest.raises(ReductionPreconditionError):
            reduce_dimension(state, g)

    def test_generators_outside_the_region_refused(self):
        # f2 - f1 = X/30 needs h = (30, -30): a search under B = 60 finds it,
        # but the level's own region has B = 20
        s = sys1(["0", "sqrt(2)"], ["1/30", "sqrt(2)"])
        state = SystemState(s, Epsilons((Fraction(1, 20),) * 2), Real(Fraction(10 ** 5)))
        B, eta = state.region
        assert B == (20, 20)
        gens = quasi_orthogonal_generators(s, [60, 60], eta, N_target=41, c_orth=0.05)
        assert isinstance(gens, GeneratorSet)
        assert sorted(abs(v) for v in gens.h_vecs[0]) == [30, 30]
        with pytest.raises(ReductionPreconditionError):
            reduce_dimension(state, gens)

    def test_rational_system_symbolic_identity(self):
        # exact rational duplicates: Z g(t) must equal the shifted system at
        # 20 sample points, exactly
        s = sys1(["1/5", "3/7"], ["1/5", "3/7"])
        state = SystemState(s, Epsilons((Fraction(1, 20), Fraction(1, 20))),
                            Real(Fraction(10 ** 4)))
        eta = Fraction(1, 2 * 10 ** 4)
        gens = quasi_orthogonal_generators(s, [20, 20], eta, N_target=41,
                                           c_orth=0.05, max_r=1)
        assert isinstance(gens, GeneratorSet)
        step = reduce_dimension(state, gens)
        scale = step.D2
        d = s.d
        for t in range(1, 21):
            gvals = [poly_eval(p, t) for p in step.g.polys]
            lhs = mat_vec(step.Z, gvals)
            for p in range(step.r, step.k):
                orig = s.polys[step.perm[p]]
                want = poly_eval(orig, scale * t) - sum(
                    step.b_prime[p - step.r][j - 1] * t ** j for j in range(1, d + 1))
                assert lhs[p - step.r] == want

    def test_b_prime_consistency_and_detz(self):
        state = dup_state()
        step = reduce_dimension(state, dup_gens(state))
        r, k, d = step.r, step.k, state.system.d
        H1 = [[step.gens.h_vecs[ell][step.perm[p]] for p in range(r)]
              for ell in range(r)]
        H2 = [[step.gens.h_vecs[ell][step.perm[p]] for p in range(r, k)]
              for ell in range(r)]
        for j in range(1, d + 1):
            lhs = [sum(H1[ell][i] * step.b_prime_upper[i][j - 1] for i in range(r))
                   - sum(H2[ell][i] * step.b_prime[i][j - 1] for i in range(k - r))
                   for ell in range(r)]
            rhs = [step.D2 ** j * step.gens.a_vecs[ell][j - 1] for ell in range(r)]
            assert lhs == rhs
        assert abs(det_bareiss(step.Z)) * step.D2 == step.D1
        assert step.k_prime < step.k

    def test_nontrivial_scale_q0_one(self):
        # f2 - f1 = X/3: the lattice absorbs the denominator into h = (3,-3),
        # giving D2 = 3 and a lift scale of 3
        s = sys1(["0", "sqrt(2)"], ["1/3", "sqrt(2)"])
        state = SystemState(s, Epsilons((Fraction(1, 20), Fraction(1, 20))),
                            Real(Fraction(10 ** 5)))
        eta = Fraction(1, 2 * 10 ** 5)
        gens = quasi_orthogonal_generators(s, [60, 60], eta, N_target=41, c_orth=0.05)
        assert isinstance(gens, GeneratorSet)
        assert sorted(abs(v) for v in gens.h_vecs[0]) == [3, 3]
        step = reduce_dimension(state, gens)
        assert step.D2 == 3
        child = step.child_state()
        hit = first_hit(child.system, child.eps, child.y)
        if hit is not None:
            n, dists = lift_solution(step, hit, state)
            assert n == 3 * hit
            assert all(dv < e for dv, e in zip(dists, state.eps.eps))

    def test_degenerate_horizon(self):
        # y' = delta x min|h~| / D2 = (1/4) * 80 * (1/20) = 1, not above 1
        state = dup_state(x=80)
        gens = dup_gens(state)
        with pytest.raises(DegenerateHorizonError):
            reduce_dimension(state, gens)
        # just above the boundary the same generators reduce
        wider = dup_state(x=100)
        assert reduce_dimension(wider, dup_gens(wider)).y == Fraction(5, 4)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32))
def test_child_system_matches_fraction_reference(seed):
    """Each child value is sum_p (Z^-1)_mp (f_(perm p),j D2^j - b'_pj) and
    each radius sum_p |(Z^-1)_mp| err_(perm p),j D2^j, over the trailing
    block p, rebuilt in Fractions from the step's Z, perm and b'."""
    case = planted_step(seed)
    assume(case is not None)
    state, step = case
    Zinv = frac_inverse(step.Z)
    tail = [state.system.polys[i] for i in step.perm[step.r:]]
    for row, child in zip(Zinv, step.g.polys):
        for j, c in enumerate(child.coeffs, start=1):
            scale = step.D2 ** j
            coeffs = [f.coeffs[j - 1] for f in tail]
            value = sum(z * (f.value * scale - b[j - 1])
                        for z, f, b in zip(row, coeffs, step.b_prime))
            err = sum(abs(z) * f.err * scale for z, f in zip(row, coeffs))
            assert (c.value, c.err) == (value, err)


class TestLift:
    def _working(self):
        state = dup_state()
        step = reduce_dimension(state, dup_gens(state))
        child = step.child_state()
        hit = first_hit(child.system, child.eps, child.y)
        assert hit is not None
        return state, step, hit

    def test_horizon_checks(self):
        state, step, hit = self._working()
        with pytest.raises(HorizonOverflowError):
            lift_solution(step, int(step.y) + 10, state)
        with pytest.raises(ValueError):
            lift_solution(step, 0, state)

    def test_corrupted_step_fails_loudly(self):
        state, step, hit = self._working()
        # corrupt the child system the way a bad b' table would: shift the
        # linear coefficient
        bad_polys = []
        for p in step.g.polys:
            cs = list(p.coeffs)
            cs[0] = Real(cs[0].value + Fraction(1, 2), err=cs[0].err)
            bad_polys.append(Poly(tuple(cs)))
        bad = dataclasses.replace(step, g=PolySystem(tuple(bad_polys)))
        with pytest.raises(LiftVerificationError):
            lift_solution(bad, hit, state)

    def test_corrupted_eps_detected_against_parent(self):
        state, step, hit = self._working()
        # loosen the child tolerances so the bad n' sneaks past the child
        # check; the parent re-evaluation must still catch it
        loose = dataclasses.replace(step,
                                    eps_prime=Epsilons((Fraction(1, 2),) * step.k_prime))
        bad_hit = None
        child = step.child_state()
        for cand in range(1, int(step.y)):
            dists = eval_system(child.system, cand)
            ok_loose = all(dv < Fraction(1, 2) for dv in dists)
            genuine = all(dv < e for dv, e in zip(dists, step.eps_prime.eps))
            if ok_loose and not genuine:
                lifted = eval_system(state.system, cand * step.D2)
                if any(dv >= e for dv, e in zip(lifted, state.eps.eps)):
                    bad_hit = cand
                    break
        assert bad_hit is not None
        with pytest.raises(LiftVerificationError) as info:
            lift_solution(loose, bad_hit, state)
        assert info.value.index >= 0


class TestDensityInvariant:
    def test_executed_reduction_passes(self):
        state = dup_state()
        step = reduce_dimension(state, dup_gens(state))
        rep = density_invariant(state, step)
        assert rep.passed
        assert math.isfinite(rep.log10_ratio)
        assert rep.ratio > 0

    def test_formula_spot_check(self):
        # k=2 -> k'=1 with y' = x: log ratio must equal E log(prod B) - E' log(prod B')
        state = dup_state()
        step = reduce_dimension(state, dup_gens(state))
        synthetic = dataclasses.replace(step, y=state.y)
        rep = density_invariant(state, synthetic)
        C2 = 16
        E_new = 3 * C2 - C2 / step.k_prime ** 3
        E_old = 3 * C2 - C2 / step.k ** 3 - C2 / step.k ** 4
        expect = (E_old * sum(math.log10(b) for b in state.region[0])
                  - E_new * sum(math.log10(float(b)) for b in step.B_prime))
        assert abs(rep.log10_ratio - expect) < 1e-6

    def test_halving_y_halves_ratio(self):
        state = dup_state()
        step = reduce_dimension(state, dup_gens(state))
        rep = density_invariant(state, step)
        tampered = dataclasses.replace(step, y=step.y / 2)
        rep2 = density_invariant(state, tampered)
        assert abs((rep.log10_ratio - rep2.log10_ratio) - math.log10(2)) < 1e-9


def dup_certificate():
    state = dup_state()
    step = reduce_dimension(state, dup_gens(state))
    child = step.child_state()
    hit = first_hit(child.system, child.eps, child.y)
    n, dists = lift_solution(step, hit, state)
    step.child_hit = hit
    return Certificate(root=state.to_dict(), chain=[step.to_dict()],
                       terminal={"kind": "found-n", "n": n,
                                 "dists": [str(dv) for dv in dists]})


def two_step_certificate():
    """f = (X^2/6,) * 3 reduced twice, D2 = 2 then 1: the child's hit 3
    lifts to 3 and then to n = 6."""
    state = SystemState(sys1(*[["0", "1/6"]] * 3), Epsilons((Fraction(1, 9),) * 3),
                        Real(Fraction(10 ** 5)))
    levels, parent = [], state
    for _ in range(2):
        gens = quasi_orthogonal_generators(parent.system, *parent.region,
                                           N_target=3, c_orth=0.05, max_r=1)
        step = reduce_dimension(parent, gens)
        levels.append((parent, step))
        parent = step.child_state()
    hit = first_hit(parent.system, parent.eps, parent.y)
    for parent, step in reversed(levels):
        step.child_hit = hit
        hit, dists = lift_solution(step, hit, parent)
    return Certificate(root=state.to_dict(), chain=[s.to_dict() for _p, s in levels],
                       terminal={"kind": "found-n", "n": hit,
                                 "dists": [str(dv) for dv in dists]})


class TestCertificate:
    def test_roundtrip_and_verify(self):
        cert = dup_certificate()
        again = Certificate.from_dict(cert.to_dict())
        assert again.to_dict() == cert.to_dict()
        checks = verify_certificate(again)
        assert all(ok for _name, ok, _d in checks), [c for c in checks if not c[1]]

    def test_tampered_certificate_detected(self):
        d = dup_certificate().to_dict()
        d["terminal"]["n"] += 1
        bad = Certificate.from_dict(d)
        checks = verify_certificate(bad)
        assert any(not ok for _name, ok, _detail in checks)


@pytest.fixture(scope="module")
def chained_certificates():
    """The duplicate-pair chain, the two-step chain and the first three
    chained PLANT_SEED solves."""
    certs = [dup_certificate().to_dict(), two_step_certificate().to_dict()]
    rng = random.Random(PLANT_SEED)
    while len(certs) < 5:
        out = solve(planted_state(rng), PLANT_CONFIG)
        if out.certificate.chain:
            certs.append(out.certificate.to_dict())
    return certs


# every key of a step record (ReductionStep.to_dict()), and both keys of its
# generators
STEP_RECORD = dup_certificate().chain[0]
TAMPERED_FIELDS = ([(key,) for key in STEP_RECORD if key != "gens"]
                   + [("gens", key) for key in STEP_RECORD["gens"]])


def tamper(step: dict, path) -> None:
    """Add 1 to the first leaf under path, an integer in every step record."""
    for key in path[:-1]:
        step = step[key]
    key = path[-1]
    while isinstance(step[key], list):
        step, key = step[key], 0
    step[key] += 1


class TestReplayRebuild:
    @pytest.mark.parametrize("path", TAMPERED_FIELDS, ids=".".join)
    def test_tampered_step_field_fails(self, chained_certificates, path):
        for data in chained_certificates:
            bad = copy.deepcopy(data)
            tamper(bad["chain"][0], path)
            checks = verify_certificate(Certificate.from_dict(bad))
            assert not all(ok for _name, ok, _detail in checks), path

    @pytest.mark.parametrize("hit", [4, None], ids=["plus-one", "null"])
    def test_tampered_intermediate_child_hit_fails(self, hit):
        data = two_step_certificate().to_dict()
        assert [(s["D2"], s["child_hit"]) for s in data["chain"]] == [(2, 3), (1, 3)]
        assert data["terminal"]["n"] == 6
        assert all(ok for _name, ok, _detail in verify_certificate(Certificate.from_dict(data)))
        data["chain"][0]["child_hit"] = hit
        checks = {name: ok for name, ok, _detail in
                  verify_certificate(Certificate.from_dict(data))}
        # the hit no longer lifts to n, nor is it what the step below lifts to
        assert checks["step0.lift"] is False and checks["step1.lift"] is False
        assert checks["step0.rebuild"] and checks["step1.rebuild"]

    def test_next_parent_is_the_rebuilt_child(self):
        # a two-step chain: k = 3 duplicates -> k' = 2 -> k' = 1
        s = sys1(*[["0", "sqrt(2)"]] * 3)
        state = SystemState(s, Epsilons((Fraction(1, 20),) * 3), Real(Fraction(10 ** 6)))
        gens = quasi_orthogonal_generators(s, [20] * 3, 1 / (2 * state.y),
                                           N_target=41, c_orth=0.05, max_r=1)
        first = reduce_dimension(state, gens)
        child = first.child_state()
        gens = quasi_orthogonal_generators(child.system, [321, 321], 1 / (2 * child.y),
                                           N_target=41, c_orth=0.05)
        second = reduce_dimension(child, gens)
        cert = Certificate(root=state.to_dict(), chain=[first.to_dict(), second.to_dict()],
                           terminal={"kind": "exhausted", "reason": "test"})
        assert all(ok for _name, ok, _detail in verify_certificate(cert))
        # a tampered first step fails its own check only: the next step is
        # rebuilt from the child that the first step's rebuild gives
        data = copy.deepcopy(cert.to_dict())
        tamper(data["chain"][0], ("D2",))
        checks = {name: ok for name, ok, _detail in
                  verify_certificate(Certificate.from_dict(data))}
        assert checks["step0.rebuild"] is False
        assert checks["step1.rebuild"] is True


@pytest.fixture(scope="module")
def second_planted_certificate():
    """The certificate of PLANT_SEED's second system: one step, k = 2 to 1."""
    rng = random.Random(PLANT_SEED)
    planted_state(rng)
    return solve(planted_state(rng), PLANT_CONFIG).certificate.to_dict()


def _append_a_entry(gens):
    gens["a_vecs"][0].append(1)


def _append_a_row(gens):
    gens["a_vecs"].append(list(gens["a_vecs"][0]))


def _drop_a_entry(gens):
    gens["a_vecs"][0].pop()


def _drop_a_row(gens):
    gens["a_vecs"].pop()


def _append_h_entry(gens):
    gens["h_vecs"][0].append(0)


def _drop_h_entry(gens):
    gens["h_vecs"][0].pop()


class TestGeneratorShape:
    @pytest.mark.parametrize("reshape", [_append_a_entry, _append_a_row, _drop_a_entry,
                                         _drop_a_row, _append_h_entry, _drop_h_entry],
                             ids=lambda f: f.__name__.strip("_"))
    def test_misshapen_generators_fail_the_rebuild(self, second_planted_certificate, reshape):
        """Replay refuses generators that are not r h vectors of length k and
        r a vectors of length d, from reduce_dimension's precondition."""
        data = copy.deepcopy(second_planted_certificate)
        gens = data["chain"][0]["gens"]
        assert gens == {"h_vecs": [[7, 7]], "a_vecs": [[84, 13]]}
        assert all(ok for _name, ok, _detail in verify_certificate(Certificate.from_dict(data)))
        reshape(gens)
        checks = verify_certificate(Certificate.from_dict(data))
        _name, ok, detail = next(check for check in checks if check[0] == "step0.rebuild")
        assert not ok
        assert detail.startswith("reduce_dimension raised ReductionPreconditionError")


def half_certificate() -> dict:
    """The solved certificate of f = X/2 with eps = 1/100 and x = 100."""
    state = SystemState(sys1(["1/2"]), Epsilons((Fraction(1, 100),)), Real(Fraction(100)))
    return solve(state).certificate.to_dict()


class TestConstants:
    @pytest.mark.parametrize("value", [False, 1, "true", None])
    def test_wrong_theorem_flag_is_refused(self, value):
        # eps = 1/100 is within the theorem's hypothesis
        data = half_certificate()
        assert data["constants"]["within_theorem_hypothesis"] is True
        data["constants"]["within_theorem_hypothesis"] = value
        checks = verify_certificate(Certificate.from_dict(data))
        assert [(name, ok) for name, ok, _detail in checks] == [("constants.parse", False)]

    def test_eps_past_the_hypothesis_flag_false(self):
        state = SystemState(sys1(["1/2"]), Epsilons((Fraction(1, 10),)), Real(Fraction(100)))
        data = solve(state).certificate.to_dict()
        assert data["constants"]["within_theorem_hypothesis"] is False
        assert all(ok for _name, ok, _detail in verify_certificate(Certificate.from_dict(data)))
        data["constants"]["within_theorem_hypothesis"] = True
        assert verify_certificate(Certificate.from_dict(data))[0][:2] == ("constants.parse", False)

    def test_not_an_object_is_refused(self):
        data = half_certificate()
        data["constants"] = [True]
        checks = verify_certificate(Certificate.from_dict(data))
        assert checks == [("constants.parse", False, "need an object")]

    def test_absent_flag_and_config_claim_nothing(self):
        # replay re-runs no search, so it does not read the config
        data = half_certificate()
        del data["constants"]["within_theorem_hypothesis"]
        data["constants"]["config"]["c_hit"] = 123.0
        assert all(ok for _name, ok, _detail in verify_certificate(Certificate.from_dict(data)))
        del data["constants"]
        assert all(ok for _name, ok, _detail in verify_certificate(Certificate.from_dict(data)))


def leaves(node, path=()):
    """(path, value) of each leaf under a JSON node."""
    if not isinstance(node, (dict, list)):
        yield path, node
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from leaves(child, path + (key,))


def retyped(value) -> list:
    """A leaf's stand-ins of the wrong JSON type: an int becomes a float (and
    a bool, for 0 and 1), a bool an int, a string a number and true."""
    if type(value) is bool:
        return [int(value)]
    if type(value) is int:
        return [float(value)] + ([bool(value)] if value in (0, 1) else [])
    if type(value) is str:
        try:
            return [float(Fraction(value)), True]
        except ValueError:
            return [1, True]
    return []


def retyped_copies(data: dict):
    """(leaf path, wrong value) and a copy of data with that one leaf of the
    root, of a step or of the terminal retyped, for each leaf in turn."""
    for section in ("root", "chain", "terminal"):
        for where, value in leaves(data[section], (section,)):
            for bad_value in retyped(value):
                bad = copy.deepcopy(data)
                node = bad
                for key in where[:-1]:
                    node = node[key]
                node[where[-1]] = bad_value
                yield (where, bad_value), bad


class TestTypeTamper:
    @pytest.mark.parametrize("which", range(6),
                             ids=["dup", "two-step", "planted0", "planted1", "planted2", "half"])
    def test_every_retyped_leaf_is_refused(self, chained_certificates, which, tmp_path):
        data = (chained_certificates + [half_certificate()])[which]
        path = tmp_path / "cert.json"
        wrong = []
        for case, bad in retyped_copies(data):
            try:
                checks = verify_certificate(Certificate.from_dict(bad))
            except Exception as exc:  # noqa: BLE001 - the failure under test
                wrong.append((case, f"verify_certificate raised {exc!r}"))
                continue
            # exactly one parse check, and it fails
            if [ok for name, ok, _d in checks if name.endswith(".parse")] != [False]:
                wrong.append((case, f"replay gave {checks}"))
            path.write_text(json.dumps(bad))
            try:
                load_certificate(path)
                wrong.append((case, "load_certificate accepted it"))
            except SystemFileError:
                pass
        assert wrong == []

    @pytest.mark.parametrize("n", [0, -6])
    def test_nonpositive_n_is_refused(self, n):
        # eval_system raised on these, from inside replay
        data = two_step_certificate().to_dict()
        data["terminal"]["n"] = n
        assert verify_certificate(Certificate.from_dict(data)) == [
            ("terminal.parse", False, "'n' must be an integer, at least 1")]


@pytest.fixture(scope="module")
def value_tamper_certificates(chained_certificates):
    """TestTypeTamper's certificates, then PLANT_SEED systems 155 and 172,
    whose first steps other generator sets rebuild exactly."""
    rng = random.Random(PLANT_SEED)
    same_step = []
    for index in range(173):
        state = planted_state(rng)
        if index in (155, 172):
            same_step.append(solve(state, PLANT_CONFIG).certificate.to_dict())
    return chained_certificates + [half_certificate()] + same_step


def other_value(value):
    """Another JSON value of the leaf's type: the other bool, another
    integer, another rational string for a rational one, other text else."""
    if type(value) is bool:
        return st.just(not value)
    if type(value) is int:
        return st.one_of(st.integers(value - 3, value + 3), st.integers()).filter(
            lambda v: v != value)
    try:
        old = parse_rational(value)
    except ScalarParseError:
        return st.text().filter(lambda v: v != value)
    changes = [st.fractions().map(lambda f: old + f)]
    if old:
        changes.append(st.fractions(Fraction(1, 4), 4).map(lambda f: old * f))
    return st.one_of(changes).filter(lambda v: v != old).map(str)


def derived_steps(data: dict) -> list:
    """Each chain step rebuilt from its parent (the root, then the previous
    rebuilt child), as the fields it derives from the parent and generators."""
    parent, steps = SystemState.from_dict(data["root"]), []
    for record in data["chain"]:
        step = reduce_dimension(parent, GeneratorSet.from_dict(record["gens"]))
        steps.append({f.name: getattr(step, f.name) for f in dataclasses.fields(step)
                      if f.name not in ("gens", "child_hit")})
        parent = step.child_state()
    return steps


def claim_holds(data: dict) -> bool:
    """Whether a found-n terminal is true of its root by the Fraction oracle:
    1 <= n < x, and each recorded distance is that of f_i(n) from Z and stays
    below eps_i however the coefficients move within their radii."""
    root, n = SystemState.from_dict(data["root"]), data["terminal"]["n"]
    dists = [parse_rational(text) for text in data["terminal"]["dists"]]
    for poly, eps, dist in zip(root.system.polys, root.eps.eps, dists):
        slack = sum(c.err * n ** j for j, c in enumerate(poly.coeffs, 1))
        if frac_dist(poly_eval(poly, n)) != dist or dist + slack >= eps:
            return False
    return 1 <= n < root.y


class TestValueTamper:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_changed_leaf_is_refused_or_still_true(self, value_tamper_certificates,
                                                         data):
        """A certificate with one leaf of its root, chain or terminal changed
        to another value of the same type fails a check, unless it is still
        a true certificate: a changed generator that rebuilds the same step
        (PLANT_SEED systems 155 and 172), or a changed root or terminal of
        which the recorded n is still a hit."""
        original = data.draw(st.sampled_from(value_tamper_certificates))
        where, value = data.draw(st.sampled_from(
            [leaf for section in ("root", "chain", "terminal")
             for leaf in leaves(original[section], (section,))]))
        bad = copy.deepcopy(original)
        node = bad
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = data.draw(other_value(value))
        if not all(ok for _name, ok, _detail in
                   verify_certificate(Certificate.from_dict(bad))):
            return
        if where[0] == "chain":
            assert where[2] == "gens", where
            assert derived_steps(bad) == derived_steps(original), where
        else:
            assert claim_holds(bad), where
