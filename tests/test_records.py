"""The shape of every record class in `tq`: its fields, in order, and its
field defaults, pinned by a literal table so that no change of how the
records are written can reorder, drop or re-default a field."""

import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tq"

# (module, class) -> (_fields, _field_defaults)
RECORDS = {
    ("biquadratic", "FieldData"): (("d1", "d2", "d3"), {}),
    ("biquadratic", "PrimeLocalData"): (
        ("p", "in_s", "inertia", "decomposition", "frob", "a_p", "b_p"), {}),
    ("grouprings", "GaloisChar"): (("label", "kernel"), {}),
    ("grouprings", "GroupRingMatrix"): (("entries",), {}),
    ("invariant", "ResolventCheck"): (
        ("status", "completion", "value", "reason"),
        {"completion": None, "value": None, "reason": None}),
    ("invariant", "PrimeReport"): (("local", "delta1", "euler", "local_term"), {}),
    ("invariant", "InvariantReport"): (
        ("field", "per_prime", "ts_rep", "resolvent_check", "torsion", "verdict"),
        {}),
    ("invariant", "AnalyticCheck"): (
        ("chi", "conductor", "lhs_numeric", "rhs_exact_squared",
         "abs_error_squared", "tol"), {}),
    ("invariant", "SweepSummary"): (("dmax", "counts", "nonzero_fields"), {}),
    ("localterms", "TameComplexSpec"): (("p", "a", "b"), {}),
    ("localterms", "LatticeExponent"): (("m", "sign"), {}),
    ("localterms", "ResidueResolutionReport"): (
        ("p", "multiplication_by_p", "displayed_identity", "char_values",
         "char_value_list"), {}),
    ("perfectcomplex", "PerfectComplex"): (("degrees", "ranks", "differentials"), {}),
    ("perfectcomplex", "RationalComplex"): (("degrees", "ranks", "diffs"), {}),
    ("perfectcomplex", "CohomologyData"): (("kernels", "images", "preimages"), {}),
    ("perfectcomplex", "CohomologyIsoComponent"): (
        ("odd_reps", "even_reps", "matrix"), {}),
}


def record_classes():
    """Every named-tuple class defined in a `tq` module, by (module, name)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"tq.{path.stem}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and hasattr(obj, "_fields") and obj.__module__ == module.__name__):
                found[path.stem, name] = obj
    return found


def test_record_fields_and_defaults_are_pinned():
    """All 16 records keep their fields, order and defaults, each is a
    `collections.namedtuple` subclass with `__slots__ = ()`, so an instance
    has no `__dict__`, and no record is missing from the table."""
    found = record_classes()
    assert sorted(found) == sorted(RECORDS)
    for key, (fields, defaults) in RECORDS.items():
        cls = found[key]
        assert (cls._fields, cls._field_defaults) == (fields, defaults), key
        assert vars(cls).get("__slots__") == (), key
        assert "__annotations__" not in vars(cls), key
