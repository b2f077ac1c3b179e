"""The package's public surface: every exported name exists, the package
needs nothing outside the standard library, a cold import stays light, and
its records behave as values."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotpoly
from knotpoly.pretzel import PretzelKnot, X0SliceData, x0_slice
from knotpoly.qtorus import SigmaFactor, alpha_unknot, sigma_symmetry_factor
from knotpoly.report import VerificationReport
from knotpoly.sl2trace import FreeWord
from knotpoly.twobridge import TwoBridgeKnot


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from knotpoly import *", namespace)
    for name in knotpoly.__all__:
        assert name in namespace, name
        assert hasattr(knotpoly, name), name
    assert len(set(knotpoly.__all__)) == len(knotpoly.__all__)


def test_package_imports_only_itself_and_the_standard_library():
    # a new runtime dependency fails here whatever the machine has
    # installed; only package-relative imports and stdlib modules pass
    src = Path(knotpoly.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # every knotpoly query starts a fresh interpreter, so what importing
    # the CLI pulls in is paid on each one; typing is out too, since the
    # annotations take their names from collections.abc.  -S keeps site
    # start-up hooks (.pth files) from importing modules the package never
    # asked for
    src = Path(knotpoly.__file__).resolve().parent.parent
    code = ("import sys, knotpoly.cli; print(sorted("
            "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# -- records ---------------------------------------------------------------

FROZEN_RECORDS = {
    FreeWord: lambda: FreeWord(((0, 1), (1, -1))),
    TwoBridgeKnot: lambda: TwoBridgeKnot(5, 3),
    PretzelKnot: lambda: PretzelKnot(-2),
    X0SliceData: lambda: x0_slice(3),
    SigmaFactor: lambda: sigma_symmetry_factor(alpha_unknot()),
}


@pytest.mark.parametrize("cls", FROZEN_RECORDS, ids=lambda c: c.__name__)
def test_frozen_records_compare_by_class_and_fields(cls):
    a, b = FROZEN_RECORDS[cls](), FROZEN_RECORDS[cls]()
    assert type(a) is cls and a is not b
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert a == b and not a != b
    assert a != fields and fields != a
    assert cls(*fields) == a
    assert cls(**dict(zip(cls.__slots__, fields))) == a
    assert repr(a).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    name = cls.__slots__[-1]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == getattr(b, name)


def test_records_without_polynomial_fields_hash_as_their_fields():
    for cls in (FreeWord, TwoBridgeKnot, PretzelKnot):
        a = FROZEN_RECORDS[cls]()
        assert hash(a) == hash(FROZEN_RECORDS[cls]())
        assert hash(a) == hash(tuple(getattr(a, n) for n in cls.__slots__))


def test_verification_report_is_a_mutable_unhashable_value():
    a = VerificationReport("claim", "n=1", "pass")
    b = VerificationReport(claim_id="claim", subject="n=1", status="pass")
    assert a == b and a.details == {}
    a.details["k"] = 1
    assert b.details == {}, "two reports share one default details dict"
    assert a != b
    assert VerificationReport("c", "s", "fail", {"k": 1}) != \
        ("c", "s", "fail", {"k": 1})
    with pytest.raises(TypeError):
        hash(a)
    a.status = "fail"
    assert not a.passed
    assert repr(b) == ("VerificationReport(claim_id='claim', subject='n=1', "
                       "status='pass', details={})")
