"""Semantics of the package's value records, and the cost of importing the CLI.

The records are plain ``__slots__`` classes: value equality and hashing, a
``Name(field=value, ...)`` repr, no assignment to a frozen field, and the
argument normalization and errors of their constructors.  ``import
quotvol.cli`` starts every ``quotvol`` process, so it must not pull in
``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from quotvol.abelian import AcyclicData, CurveQuotProblem
from quotvol.cli import JobSpec
from quotvol.exterior import AltForm
from quotvol.grothendieck import EmbeddingParams, embedding_params, grothendieck_degree
from quotvol.localization import (
    Composition,
    QuotProblem,
    WeightIndependenceReport,
    WeightVector,
)
from quotvol.scalars import InputError, TPoly

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

H = ((0, 1), (-1, 0))


def _report():
    w = WeightVector((1, 2))
    return WeightIndependenceReport(True, ((w, TPoly.variable()),))


# (positional construction, the same record by keyword, its repr)
FROZEN = [
    (
        lambda: QuotProblem(2, 2, [0, 1], 3),
        lambda: QuotProblem(g=2, r=2, l=(0, 1), d=3),
        "QuotProblem(g=2, r=2, l=(0, 1), d=3)",
    ),
    (
        lambda: QuotProblem(0, 3, (2, -1, 0), 0),
        lambda: QuotProblem(d=0, l=[2, -1, 0], r=3, g=0),
        "QuotProblem(g=0, r=3, l=(2, -1, 0), d=0)",
    ),
    (
        lambda: Composition([1, 2]),
        lambda: Composition(parts=(1, 2)),
        "Composition(parts=(1, 2))",
    ),
    (
        lambda: WeightVector([1, 2]),
        lambda: WeightVector(w=(Fraction(1), Fraction(2))),
        "WeightVector(w=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    (
        _report,
        lambda: WeightIndependenceReport(
            passed=True, volumes=((WeightVector(w=(1, 2)), TPoly.variable()),)),
        "WeightIndependenceReport(passed=True, volumes=((WeightVector(w=(Fraction(1, 1), "
        "Fraction(2, 1))), TPoly('t')),))",
    ),
    (
        lambda: CurveQuotProblem(1, 2, 3),
        lambda: CurveQuotProblem(g=1, deg_E=2, d=3),
        "CurveQuotProblem(g=1, deg_E=2, d=3)",
    ),
    (
        lambda: EmbeddingParams(1, 2, 3),
        lambda: EmbeddingParams(n=1, s=2, ambient=3),
        "EmbeddingParams(n=1, s=2, ambient=3)",
    ),
    (
        lambda: AcyclicData(1, 1, 2, (1, 0), H),
        lambda: AcyclicData(n=1, q=1, deg_E=Fraction(2), pairings=[1, 0], h=H, kappa_forms={}),
        "AcyclicData(n=1, q=1, deg_E=Fraction(2, 1), pairings=(Fraction(1, 1), Fraction(0, 1)), "
        "h=((Fraction(0, 1), Fraction(1, 1)), (Fraction(-1, 1), Fraction(0, 1))), kappa_forms={})",
    ),
]

HASHABLE = [case for case in FROZEN if not case[2].startswith("AcyclicData")]


@pytest.mark.parametrize("positional, keyword, text", FROZEN)
def test_frozen_record_construction_equality_and_repr(positional, keyword, text):
    a, b = positional(), keyword()
    assert a == b and not (a != b)
    assert repr(a) == repr(b) == text
    assert a != object()
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("positional, keyword, text", HASHABLE)
def test_hashable_records_hash_by_value(positional, keyword, text):
    a, b = positional(), keyword()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("positional, keyword, text", FROZEN)
def test_frozen_fields_refuse_assignment(positional, keyword, text):
    record = positional()
    name = text[text.index("(") + 1:text.index("=")]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_record_inequality_by_field():
    assert QuotProblem(2, 2, (0, 1), 3) != QuotProblem(2, 2, (0, 1), 4)
    assert QuotProblem(2, 2, (0, 1), 3) != QuotProblem(2, 2, (1, 0), 3)
    assert Composition((1, 2)) != Composition((2, 1))
    assert WeightVector((1, 2)) != WeightVector((2, 1))
    assert EmbeddingParams(1, 2, 3) != EmbeddingParams(1, 2, 4)


def test_defaults_and_normalization():
    p = QuotProblem(2, 2, [0, 1], 3)
    assert p.l == (0, 1) and isinstance(p.l, tuple)
    assert (p.l_total, p.gbar) == (1, 1)
    assert Composition([1, 2]).parts == (1, 2) and Composition((1, 2)).total == 3
    assert WeightVector([1, 2]).w == (Fraction(1), Fraction(2))
    a = AcyclicData(1, 1, 2, (1, 0), H)
    b = AcyclicData(1, 1, 2, (1, 0), H)
    assert a.kappa_forms == {} and a.kappa_forms is not b.kappa_forms
    assert a.deg_E == Fraction(2) and isinstance(a.deg_E, Fraction)
    assert a.pairings == (Fraction(1), Fraction(0))
    assert a.h == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    assert a.rank == 1


def test_acyclic_data_is_unhashable():
    with pytest.raises(TypeError):
        hash(AcyclicData(1, 1, 2, (1, 0), H))


@pytest.mark.parametrize("build, message", [
    (lambda: QuotProblem(-1, 1, (0,), 1), "genus must be non-negative"),
    (lambda: QuotProblem(1, 0, (), 1), "rank must be positive"),
    (lambda: QuotProblem(1, 1, (0,), -1), "d must be non-negative"),
    (lambda: QuotProblem(1, 2, (0,), 1), "l must list one degree per summand"),
    (lambda: Composition((1, -1)), "parts must be non-negative"),
    (lambda: WeightVector((1, Fraction(2, 2))), "weights must be pairwise distinct"),
    (lambda: CurveQuotProblem(-1, 0, 1), "genus must be non-negative"),
    (lambda: CurveQuotProblem(1, 0, -1), "d must be non-negative"),
    (lambda: AcyclicData(0, 1, 2, (1,), H), "base dimension must be positive"),
    (lambda: AcyclicData(1, -1, 2, (1, 0), ()), "q must be non-negative"),
    (lambda: AcyclicData(1, 1, 2, (1,), H), "need pairings for s = 0..n"),
    (lambda: AcyclicData(1, 1, 2, (1, 1), H), "must be a positive integer, got 0"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), H, {(2, 0): AltForm(1, {(1, 2): 1})}),
     r"kappa index \(2, 0\) out of range"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), H, {(1, 0): AltForm(2, {(1, 2): 1})}),
     "rank mismatch in kappa form"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), H, {(1, 0): AltForm(1, {(1,): 1})}),
     "graded degree error"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 1),)), "h must be 2q x 2q"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 1), (1, 0))), "antisymmetric"),
])
def test_constructor_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, field_name", [
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 1), (1, 0))), "h[0][1]"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 1), (-1,))), "h[1]"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((1, 1), (-1, 0))), "h[0][0]"),
    (lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 1),)), "h"),
    (lambda: AcyclicData(1, 1, 2, (1,), H), "pairings"),
    (lambda: AcyclicData(1, 1, 2, (Fraction(1, 2), 0), H), "pairings"),
])
def test_acyclic_data_errors_name_the_field(build, field_name):
    with pytest.raises(InputError) as info:
        build()
    assert info.value.field_name == field_name


def test_input_error_is_one_value_error_class():
    import quotvol
    import quotvol.cli

    assert quotvol.cli.InputError is InputError
    assert issubclass(InputError, ValueError)
    assert "InputError" not in quotvol.__all__


@pytest.mark.parametrize("build", [
    lambda: QuotProblem(1, 2, (0.5, 1.7), 1),
    lambda: QuotProblem(1, 2, "01", 1),
    lambda: QuotProblem(1.0, 2, (0, 1), 1),
    lambda: QuotProblem(1, 2.0, (0, 1), 1),
    lambda: QuotProblem(1, 2, (0, 1), "1"),
    lambda: Composition((1.5, 0)),
    lambda: Composition("10"),
    lambda: WeightVector((0.5, 1)),
    lambda: WeightVector(("1/2", 1)),
    lambda: CurveQuotProblem(1.5, 0, 1),
    lambda: CurveQuotProblem(1, 0.5, 1),
    lambda: CurveQuotProblem(1, 0, "1"),
    lambda: AcyclicData(1.0, 1, 2, (1, 0), H),
    lambda: AcyclicData(1, "1", 2, (1, 0), H),
    lambda: AcyclicData(1, 1, 2.5, (1, 0), H),
    lambda: AcyclicData(1, 1, 2, (1.0, 0), H),
    lambda: AcyclicData(1, 1, 2, (1, 0), ((0, 0.5), (-1, 0))),
    lambda: grothendieck_degree(QuotProblem(1, 2, (0, 0), 1), 1.5),
    lambda: embedding_params(QuotProblem(1, 2, (0, 0), 1), 1.5),
    lambda: EmbeddingParams(1.5, "x", None),
    lambda: EmbeddingParams(1, 2.0, 3),
    lambda: EmbeddingParams(1, 2, "3"),
])
def test_constructors_refuse_inexact_numbers(build):
    """A float or a string is refused, not truncated or parsed."""
    with pytest.raises(TypeError):
        build()


def test_jobspec_is_a_frozen_record():
    def spec(problem):
        return JobSpec("quot-volume", "json", problem, None, None, "ttilde-symbolic",
                       None, None, None, {"command": "quot-volume"})

    a, b = spec(QuotProblem(2, 2, (0, 1), 1)), spec(QuotProblem(2, 2, [0, 1], 1))
    assert len(JobSpec.__slots__) == 10
    assert a == b and a != spec(QuotProblem(2, 2, (1, 0), 1))
    assert repr(a) == (
        "JobSpec(command='quot-volume', out_format='json', "
        "problem=QuotProblem(g=2, r=2, l=(0, 1), d=1), weights=None, n=None, "
        "t_mode='ttilde-symbolic', t_value=None, vol_X=None, pi_probe=None, "
        "echo={'command': 'quot-volume'})"
    )
    with pytest.raises(AttributeError, match="cannot assign"):
        a.problem = None
    with pytest.raises(AttributeError, match="cannot delete"):
        del a.n
    with pytest.raises(TypeError):
        hash(a)  # the echoed input is a dict
    with pytest.raises(ValueError):  # every field is given
        JobSpec("quot-volume", "json")
    assert pickle.loads(pickle.dumps(a)) == a


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = ("import sys, quotvol.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
