"""The package's record types behave as the frozen dataclasses they
replaced: equal field values compare equal and hash as the tuple of
those fields, the repr names each field, and no field can be assigned.
PcPresentation and Subgroup keep caches out of all of that, and a
presentation can be held weakly and copied or pickled."""

import copy
import pickle
import weakref

import pytest

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.bilinear import associated_series, bilinearize
from nilpc.deformation import adapt_basis, enumerate_deformations, ext_class
from nilpc.morphisms import identity_hom, invariant_report
from nilpc.refined import refined_series
from nilpc.scalars import multiplication_pairing, pairing_of
from nilpc.series import key_subgroups

from groups_def import heis, mutated_heis, zg

# each record as the package builds it, with the fields that == and hash
# read; a namedtuple record reads all of its fields
RECORDS = {
    "PcPresentation": (heis, ("name", "periods", "powers", "commutators")),
    "Subgroup": (lambda: sg.center(heis()), ("pres", "rows")),
    "ConsistencyReport": (lambda: pc.consistency_check(mutated_heis()), None),
    "ConsistencyFailure": (
        lambda: pc.consistency_check(mutated_heis()).failures[0], None),
    "AssociatedSeries": (lambda: associated_series(heis()), None),
    "Bilinearization": (lambda: bilinearize(heis()), None),
    "KeySubgroups": (lambda: key_subgroups(zg()), None),
    "RefinedSeries": (lambda: refined_series(heis()), None),
    "ChainAction": (lambda: refined_series(heis()).actions[0], None),
    "Pairing": (lambda: pairing_of(bilinearize(heis())), None),
    "Pairing, default blocks": (lambda: multiplication_pairing(6), None),
    "AdaptedPresentation": (lambda: adapt_basis(zg()), None),
    "ExtClass": (lambda: ext_class(adapt_basis(zg()), (3,), ((-1,),)), None),
    "DeformationSurvey": (lambda: enumerate_deformations(adapt_basis(zg())),
                          None),
    "GroupHom": (lambda: identity_hom(heis()), None),
    "InvariantReport": (lambda: invariant_report(zg()), None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_compares_hashes_and_freezes_by_its_fields(name):
    make, names = RECORDS[name]
    x = make()
    cls = type(x)
    names = names or cls._fields
    values = tuple(getattr(x, n) for n in names)
    y = cls(*values)
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(x) == f"{cls.__name__}({shown})"
    for n, v in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(x, n, v)
    assert tuple(getattr(x, n) for n in names) == values


def test_presentation_caches_stay_out_of_equality():
    p, q = heis(), heis()
    pc.consistency_check(p)
    sg.center(p)
    assert p._layers and p._built and q._layers is None and not q._built
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert sg.center(p) == sg.center(q)
    ref = weakref.ref(p)
    assert ref() is p
    assert len({p, q, sg.center(p), sg.center(q)}) == 2
    # copies are built by the constructor, so they start with no caches
    for x in (p, sg.center(p)):
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert y == x and y is not x
    assert pickle.loads(pickle.dumps(p))._layers is None
