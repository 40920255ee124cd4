"""Each input rule has one owner.

``vectors._conformed`` converts every array argument (to complex128 if it
is complex, else float64) and rejects NaN and inf; ``errors._real`` reads
every real scalar argument and rejects NaN; ``vectors._sealed`` gives an
object a read-only array of its own; ``errors._seed_path`` reads the seed
that a derived stream extends.  The guards at the end fail if another
module spells the seed rule, or converts or checks one of its own
arguments itself.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

import cylwidth
from cylwidth.groups import (
    GroupPresentation,
    Orbit,
    enumerate_orbit,
    signed_permutation_apply,
)
from cylwidth.lowerbound import (
    SigmaProfile,
    adversarial_min_width,
    selberg_check,
    sigma_profile,
)
from cylwidth.measures import dyadic_alt_measure
from cylwidth.nets import sphere_net
from cylwidth.rip import rip_target, select_columns, singular_values
from cylwidth.tnorm import gaussian_tnorm_statistics, t_norm, t_norm_batch
from cylwidth.vectors import SubspaceBasis, orthonormalize
from cylwidth.width import (
    estimate_f_integral,
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
