"""Each input rule has one owner.

``vectors._conformed`` converts every array argument (to complex128 if it
is complex, else float64) and rejects NaN and inf; ``errors._real`` reads
every real scalar argument and rejects NaN; ``errors._integer`` reads
every integer argument and checks its inclusive range; ``errors._flag``
reads every flag; ``vectors._sealed`` gives an object a read-only array
of its own; ``errors._seed_path`` reads the seed that a derived stream
extends.  The guards at the end fail if another module spells the seed
rule, compares an integer argument with its bounds, or converts or
checks one of its own arguments itself.
"""

import ast
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

import cylwidth
from cylwidth.groups import (
    GroupPresentation,
    Orbit,
    enumerate_orbit,
    signed_permutation_apply,
    signed_permutation_generators,
)
from cylwidth.lowerbound import (
    SigmaProfile,
    adversarial_min_width,
    selberg_check,
    sigma_profile,
    witness_vector,
)
from cylwidth.measures import (
    build_delocalized_subspace,
    desk_scale_j_min,
    dyadic_alt_measure,
    dyadic_index_set,
    sample_uniform,
)
from cylwidth.nets import sphere_net
from cylwidth.rip import rip_target, select_columns, singular_values
from cylwidth.tnorm import (
    gaussian_tnorm_statistics,
    lipschitz_bound,
    t_norm,
    t_norm_batch,
)
from cylwidth.vectors import SubspaceBasis, orthonormalize
from cylwidth.width import (
    altmax_evaluator,
    estimate_f_integral,
    estimate_f_integrals,
    width_altmax,
    width_brute_signed_perm,
    width_orbit,
)

PACKAGE = pathlib.Path(cylwidth.__file__).parent


class _FixedLine:
    """A measure that always samples one line of R^3."""

    def sample(self, rng):
        return SubspaceBasis(np.eye(3)[:, :1])


DERIVED_STREAMS = {
    "dyadic_alt_measure": lambda seed: dyadic_alt_measure(1, 8, j_min_override=2, seed=seed),
    "gaussian_tnorm_statistics": lambda seed: gaussian_tnorm_statistics(8, 2, seed=seed),
    "estimate_f_integral": lambda seed: estimate_f_integral(
        _FixedLine(), lambda basis, rng: 1.0, 2, seed
    ),
    "estimate_f_integrals": lambda seed: estimate_f_integrals(
        [(_FixedLine(), lambda basis, rng: 1.0, 0), (_FixedLine(), lambda basis, rng: 1.0, seed)],
        2,
    ),
    "adversarial_min_width": lambda seed: adversarial_min_width(
        6, 2, np.arange(1.0, 7.0), restarts=1, steps=1, seed=seed
    ),
}


@pytest.mark.parametrize("name", sorted(DERIVED_STREAMS))
@pytest.mark.parametrize("seed", [None, 1.5, True, -1, [1, None], (2, -3)])
def test_derived_streams_reject_bad_seeds(name, seed):
    with pytest.raises(ValueError, match="seed"):
        DERIVED_STREAMS[name](seed)


def test_line_search_checks_its_unused_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        adversarial_min_width(6, 1, np.arange(1.0, 7.0), seed=None)


def test_seed_lists_and_tuples_derive_the_same_streams():
    assert gaussian_tnorm_statistics(8, 3, seed=[4, 5]) == gaussian_tnorm_statistics(
        8, 3, seed=(4, 5)
    )
    assert gaussian_tnorm_statistics(8, 3, seed=np.int64(4)) == gaussian_tnorm_statistics(
        8, 3, seed=4
    )


def test_numeric_strings_convert_at_every_vector_site():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    text = v.astype(str)
    basis = orthonormalize(rng.standard_normal((5, 2)))
    assert np.array_equal(orthonormalize(text[:, None]).columns,
                          orthonormalize(v[:, None]).columns)
    assert width_altmax(basis, text).value == width_altmax(basis, v).value
    # d = 9 and k = 4 take the ascent
    w = rng.standard_normal(9)
    frame = orthonormalize(rng.standard_normal((9, 4)))
    assert (width_altmax(frame, w.astype(str), seed=1, refine="none").value
            == width_altmax(frame, w, seed=1, refine="none").value)
    assert width_brute_signed_perm(basis, text).value == width_brute_signed_perm(basis, v).value
    assert (adversarial_min_width(5, 2, text, restarts=1, steps=5, seed=2).min_value
            == adversarial_min_width(5, 2, v, restarts=1, steps=5, seed=2).min_value)
    group = GroupPresentation.signed_permutations(5)
    assert np.array_equal(enumerate_orbit(group, text).points, enumerate_orbit(group, v).points)
    assert np.array_equal(Orbit(text[None]).points, Orbit(v[None]).points)
    perm, signs = np.array([2, 0, 1, 4, 3]), np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(signed_permutation_apply(perm, signs, text),
                          signed_permutation_apply(perm, signs, v))
    assert np.array_equal(signed_permutation_apply(perm, signs.astype(str), v),
                          signed_permutation_apply(perm, signs, v))
    assert t_norm(text) == t_norm(v)
    assert np.array_equal(t_norm_batch(text[None]), t_norm_batch(v[None]))
    m = np.vstack([v[:4], v[1:]])
    assert np.array_equal(singular_values(m.astype(str)), singular_values(m))
    assert rip_target(m.astype(str), 1) == rip_target(m, 1)


def test_single_precision_arrays_run_in_double():
    rng = np.random.default_rng(5)
    z = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).astype(np.complex64)
    assert t_norm(z) == t_norm(z.astype(np.complex128))
    assert t_norm_batch(z[None]) == t_norm_batch(z[None].astype(np.complex128))
    m = rng.standard_normal((2, 4)).astype(np.float32)
    assert singular_values(m).dtype == np.float64
    assert np.array_equal(singular_values(m), singular_values(m.astype(np.float64)))


def test_unconvertible_arrays_are_named():
    with pytest.raises(ValueError, match="columns must be numeric"):
        orthonormalize([["a", "b"], ["c", "d"]])
    with pytest.raises(ValueError, match="vector entries must be numeric"):
        width_altmax(orthonormalize(np.eye(3)[:, :1]), ["1", "x", "0"])


def _none(*shape):
    return np.full(shape, None, dtype=object)


CONFORMED_SITES = {
    "SubspaceBasis": lambda: SubspaceBasis(_none(3, 1)),
    "orthonormalize": lambda: orthonormalize(_none(3, 1)),
    "width_altmax": lambda: width_altmax(SubspaceBasis(np.eye(3)[:, :1]), _none(3)),
    "width_brute_signed_perm": lambda: width_brute_signed_perm(
        SubspaceBasis(np.eye(3)[:, :1]), _none(3)
    ),
    "adversarial_min_width": lambda: adversarial_min_width(3, 2, _none(3)),
    "GroupPresentation": lambda: GroupPresentation(2, (_none(2, 2),)),
    "Orbit": lambda: Orbit(_none(1, 2)),
    "enumerate_orbit": lambda: enumerate_orbit(
        GroupPresentation.signed_permutations(2), _none(2)
    ),
    "signed_permutation_apply": lambda: signed_permutation_apply([0], [1.0], _none(1)),
    "select_columns": lambda: select_columns(_none(2, 4), 1),
    "SigmaProfile": lambda: SigmaProfile(_none(2), d=2, k=1),
    "selberg_check": lambda: selberg_check(_none(2, 2)),
}


@pytest.mark.parametrize("name", sorted(CONFORMED_SITES))
def test_none_entries_are_not_finite(name):
    # numpy converts None to NaN
    with pytest.raises(ValueError, match="must be finite"):
        CONFORMED_SITES[name]()


# array arguments that numpy would otherwise take as they come, each with
# the name its error starts with
NAMED_ARRAYS = {
    "t_norm": ("v", lambda x: t_norm([1.0, x])),
    "t_norm_batch": ("vectors", lambda x: t_norm_batch([[1.0, x]])),
    "singular_values": ("m", lambda x: singular_values([[1.0, x]])),
    "rip_target": ("m", lambda x: rip_target([[1.0, 0.0, 0.0, x], [0.0, 1.0, 1.0, 0.0]], 1)),
    "signed_permutation_apply": (
        "signs", lambda x: signed_permutation_apply([1, 0], [1.0, x], [1.0, 2.0])
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_ARRAYS))
@pytest.mark.parametrize("bad", [None, np.nan])
def test_non_finite_array_entries_are_named(name, bad):
    arg, call = NAMED_ARRAYS[name]
    with pytest.raises(ValueError, match=f"^{arg} .*must be finite"):
        call(bad)


_LINE = SubspaceBasis(np.eye(2)[:, :1])
_ORBIT = enumerate_orbit(GroupPresentation.signed_permutations(2), [1.0, 0.5])
# the real scalar arguments, each read by errors._real
REAL_SCALARS = {
    "tol": lambda x: selberg_check(np.eye(2), tol=x),
    "c_rip": lambda x: select_columns(np.hstack([np.eye(2), np.eye(2)]), 1, c_rip=x),
    "delta": lambda x: sphere_net(2, x),
    "ceiling": lambda x: width_orbit(_LINE, _ORBIT, x),
}


@pytest.mark.parametrize("name", sorted(REAL_SCALARS))
@pytest.mark.parametrize("bad", ["0.1", None, math.nan, True])
def test_real_scalars_reject_non_numbers(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must"):
        REAL_SCALARS[name](bad)


def test_real_scalars_read_any_real_type():
    for x in (0, np.int64(0), np.float32(0.25)):
        assert REAL_SCALARS["tol"](x) == REAL_SCALARS["tol"](float(x))
        assert REAL_SCALARS["c_rip"](x) == REAL_SCALARS["c_rip"](float(x))
    assert np.array_equal(sphere_net(2, np.float32(0.25)), sphere_net(2, 0.25))
    # no ceiling is +inf, and an int beyond float range reads as one
    whole = width_orbit(_LINE, _ORBIT).value
    assert width_orbit(_LINE, _ORBIT, math.inf).value == whole
    assert width_orbit(_LINE, _ORBIT, 10**400).value == whole
    for bad in (math.inf, 10**400, -1e-9):
        with pytest.raises(ValueError, match="^tol must be finite"):
            REAL_SCALARS["tol"](bad)


_TRIVIAL = GroupPresentation(1, (np.eye(1),))
_V3 = np.arange(1.0, 4.0)
_M24 = np.hstack([np.eye(2), np.eye(2)])
# every public integer parameter, read by errors._integer, as
# (parameter, call, lowest, highest or None)
INTEGER_RANGES = {
    "signed_permutation_generators.d": ("d", signed_permutation_generators, 1, None),
    "GroupPresentation.d": ("d", lambda x: GroupPresentation(x, (np.eye(1),)), 1, None),
    "enumerate_orbit.max_size": (
        "max_size", lambda x: enumerate_orbit(_TRIVIAL, [1.0], max_size=x), 1, None
    ),
    "witness_vector.d": ("d", lambda x: witness_vector(x, 1), 1, None),
    "witness_vector.k": ("k", lambda x: witness_vector(4, x), 1, 4),
    "SigmaProfile.d": ("d", lambda x: SigmaProfile(np.array([1.0]), d=x, k=1), 1, None),
    "SigmaProfile.k": ("k", lambda x: SigmaProfile(np.array([1.0]), d=1, k=x), 1, 1),
    "adversarial_min_width.d": (
        "d", lambda x: adversarial_min_width(x, 1, np.ones(1)), 1, None
    ),
    "adversarial_min_width.k": (
        "k", lambda x: adversarial_min_width(3, x, _V3, restarts=1, steps=1), 1, 3
    ),
    "adversarial_min_width.restarts": (
        "restarts", lambda x: adversarial_min_width(3, 2, _V3, restarts=x, steps=1), 1, None
    ),
    "adversarial_min_width.steps": (
        "steps", lambda x: adversarial_min_width(3, 2, _V3, restarts=1, steps=x), 0, None
    ),
    "adversarial_min_width.inner_restarts": (
        "inner_restarts",
        lambda x: adversarial_min_width(3, 2, _V3, restarts=1, steps=1, inner_restarts=x),
        1, None,
    ),
    "sample_uniform.d": ("d", lambda x: sample_uniform(1, x, seed=0), 1, None),
    "sample_uniform.k": ("k", lambda x: sample_uniform(x, 4, seed=0), 1, 4),
    # a sum-free span needs k < d
    "build_delocalized_subspace.d": (
        "d", lambda x: build_delocalized_subspace(1, x, seed=0), 2, None
    ),
    "build_delocalized_subspace.k": (
        "k", lambda x: build_delocalized_subspace(x, 4, seed=0), 1, 3
    ),
    "desk_scale_j_min.k": ("k", desk_scale_j_min, 1, None),
    "dyadic_index_set.d": ("d", lambda x: dyadic_index_set(1, x, 1), 2, None),
    "dyadic_index_set.k": ("k", lambda x: dyadic_index_set(x, 8, 2), 1, None),
    "sphere_net.k": ("k", lambda x: sphere_net(x, 0.5), 2, 3),
    "rip_target.k": ("k", lambda x: rip_target(_M24, x), 1, None),
    "select_columns.k": ("k", lambda x: select_columns(_M24, x), 1, None),
    "lipschitz_bound.d": ("d", lipschitz_bound, 1, None),
    "gaussian_tnorm_statistics.d": ("d", lambda x: gaussian_tnorm_statistics(x, 2), 1, None),
    # a sum-zero draw in one dimension is zero
    "gaussian_tnorm_statistics.d-sum_zero": (
        "d", lambda x: gaussian_tnorm_statistics(x, 2, sum_zero=True), 2, None
    ),
    "gaussian_tnorm_statistics.trials": (
        "trials", lambda x: gaussian_tnorm_statistics(8, x), 1, None
    ),
    "altmax_evaluator.restarts": (
        "restarts", lambda x: altmax_evaluator(np.ones(2), restarts=x), 1, None
    ),
    "width_altmax.restarts": ("restarts", lambda x: width_altmax(_LINE, [1.0, 0.5], restarts=x),
                              1, None),
    "estimate_f_integral.trials": (
        "trials", lambda x: estimate_f_integral(_FixedLine(), lambda basis, rng: 1.0, x, 0),
        1, None,
    ),
    "estimate_f_integrals.trials": (
        "trials", lambda x: estimate_f_integrals([(_FixedLine(), lambda basis, rng: 1.0, 0)], x),
        1, None,
    ),
}


@pytest.mark.parametrize("site", sorted(INTEGER_RANGES))
def test_integer_ranges_hold_at_their_bounds(site):
    name, call, low, high = INTEGER_RANGES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (low,) if high is None else (low, high):
            call(value)
        call(np.int64(low))
        past = [(low - 1, f"need {name} >= {low}, got {low - 1}")]
        if high is not None:
            past = [(x, f"need {low} <= {name} <= {high}, got {name}={x}")
                    for x in (low - 1, high + 1)]
        for x, message in past:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(x)
            # a numpy integer reads as the number it is
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(np.int64(x))


@pytest.mark.parametrize("site", sorted(INTEGER_RANGES))
@pytest.mark.parametrize("bad", [math.nan, True, 2.0, None])
def test_integer_parameters_reject_non_integers(site, bad):
    name, call, _, _ = INTEGER_RANGES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad)


@pytest.mark.parametrize("d, k, message", [
    (1, -1, "need 1 <= k <= 1, got k=-1"),
    (1, 0, "need 1 <= k <= 1, got k=0"),
    (1, math.nan, "k must be an integer, got nan"),
    (1, True, "k must be an integer, got True"),
    (True, 1, "d must be an integer, got True"),
    (1.0, 1, "d must be an integer, got 1.0"),
])
def test_profiles_reject_invalid_ranks(d, k, message):
    # a negative k gave a NaN cap (with a RuntimeWarning), k = 0 an
    # infinite one, and every one of these passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SigmaProfile(np.array([1.0]), d=d, k=k)


# every flag, read by errors._flag; each call's result reports it
FLAGS = {
    "SubspaceBasis": lambda x: SubspaceBasis(np.array([[1.0], [-1.0]]) / np.sqrt(2.0),
                                             sum_zero=x),
    "orthonormalize": lambda x: orthonormalize([[1.0], [-1.0]], sum_zero=x),
    "gaussian_tnorm_statistics": lambda x: gaussian_tnorm_statistics(8, 2, sum_zero=x),
}


@pytest.mark.parametrize("name", sorted(FLAGS))
@pytest.mark.parametrize("bad", ["no", 0, 1.0, None])
def test_flags_take_only_bools(name, bad):
    with pytest.raises(ValueError, match="^sum_zero must be True or False"):
        FLAGS[name](bad)


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_flags_read_python_and_numpy_bools(name):
    for flag in (True, False, np.True_):
        assert FLAGS[name](flag).sum_zero is bool(flag)


def test_objects_keep_arrays_of_their_own():
    q = np.eye(3)[:, :2].copy()
    b = SubspaceBasis(q)
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    orbit = Orbit(pts[:2])  # a contiguous view of the caller's array
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    group = GroupPresentation(2, (g,))
    s = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    profile = SigmaProfile(s, d=2, k=2)
    for arg, kept in ((q, b.columns), (pts, orbit.points), (g, group.generators[0]),
                      (s, profile.sigmas)):
        assert arg.flags.writeable and not kept.flags.writeable
        before = kept.copy()
        arg[...] = 7.0
        assert np.array_equal(kept, before)


def test_profiles_reject_complex_entries():
    with pytest.raises(ValueError, match="real"):
        SigmaProfile(np.array([1.0 + 0.0j]), d=1, k=1)
    assert not sigma_profile(orthonormalize(np.eye(3)[:, :2])).sigmas.flags.writeable


SEED_PATH = re.compile(r"isinstance\(\s*seed\s*,\s*\(\s*list\s*,\s*tuple\s*\)\s*\)")
# checks of results, not of arguments: the t-norm's overflow check and the
# greedy packer, which keeps the kernel module a leaf
RESULT_CHECKS = {("tnorm.py", "_require_finite"), ("_kernels.py", "greedy_pack")}


class _IsfiniteSites(ast.NodeVisitor):
    """The innermost function around each use of ``np.isfinite``."""

    def __init__(self):
        self.scope, self.sites = [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == "isfinite" and getattr(node.value, "id", None) in ("np", "numpy"):
            self.sites.append(self.scope[-1])
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name == "isfinite" for alias in node.names):
            self.sites.append(self.scope[-1])


def _isfinite_sites(path):
    visitor = _IsfiniteSites()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return {(path.name, site) for site in visitor.sites}


# the modules that own the rules, and the kernel module, a leaf with checks
# of its own
RULE_OWNERS = {"vectors.py", "errors.py", "_kernels.py"}
HAND_ROLLED = {
    *((module, fn) for module in ("np", "numpy")
      for fn in ("asarray", "ascontiguousarray", "isfinite")),
    ("math", "isfinite"),
    ("math", "isnan"),
}
# an integer index array, which _conformed would turn into floats
INDEX_ARGUMENTS = {("groups.py", "signed_permutation_apply", "perm")}


class _ArgumentChecks(ast.NodeVisitor):
    """Each parameter that a public function or method passes straight to
    one of ``HAND_ROLLED``, as ``(function, parameter)``."""

    def __init__(self):
        self.scope, self.sites = [(None, set())], set()

    def visit_FunctionDef(self, node):
        a = node.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        self.scope.append((node.name, params))
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        name, params = self.scope[-1]
        f = node.func
        if (name and not name.startswith("_") and isinstance(f, ast.Attribute)
                and (getattr(f.value, "id", None), f.attr) in HAND_ROLLED):
            self.sites.update((name, arg.id) for arg in node.args
                              if isinstance(arg, ast.Name) and arg.id in params)
        self.generic_visit(node)


def _argument_checks(path):
    visitor = _ArgumentChecks()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return {(path.name, fn, param) for fn, param in visitor.sites}


def _integer_comparisons(tree):
    """Line of each comparison that holds an ``_integer(...)`` call: a range
    spelled by hand around the integer rule."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_integer"
                for sub in ast.walk(node))
    )


def test_only_errors_bounds_an_integer():
    found = {
        path.name: _integer_comparisons(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard still sees a hand-spelled range, chained or not
    assert _integer_comparisons(ast.parse(
        'if not 1 <= _integer("k", k) <= _integer("d", d):\n    pass\n'
        'if _integer("d", d) < 2 or _integer("k", k) not in (2, 3):\n    pass\n'
    )) == [1, 3, 3]


def test_only_errors_reads_a_seed_path():
    found = {
        path.name: SEED_PATH.findall(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    # the pattern still finds the rule where it lives
    assert found.pop("errors.py")
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_only_vectors_rejects_non_finite_arguments():
    sites = set().union(*(_isfinite_sites(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert ("vectors.py", "_conformed") in sites
    assert {(name, fn) for name, fn in sites if name != "vectors.py"} == RESULT_CHECKS
    # nor does a public function convert an argument, or test it for NaN or
    # inf, by hand: arrays go through vectors._conformed, real scalars
    # through errors._real; the one index array shows the rule still sees
    found = set().union(*(_argument_checks(path) for path in sorted(PACKAGE.glob("*.py"))
                          if path.name not in RULE_OWNERS))
    assert found == INDEX_ARGUMENTS
