"""Value equality of the records whose fields hold numpy arrays: a copy
compares equal, and a copy with one element changed compares unequal."""

import copy

import pytest

from rareclass.corpus import Label
from rareclass.features import CsrMatrix, fit_scaler
from rareclass.naive_bayes import GAUSSIAN, MULTINOMIAL, train_nb
from rareclass.svm import train_svm

X = CsrMatrix.from_arrays([0, 2, 3, 4, 6], [0, 2, 1, 0, 1, 2], [1.0, 2.0, 3.0, 0.5, 1.0, 4.0], 3)
LABELS = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]

# each record, and the array of which a copy has its first element changed
RECORDS = {
    "csr matrix": (lambda: X, lambda x: x.data),
    "scaler": (lambda: fit_scaler(X), lambda scaler: scaler.maxs),
    "multinomial nb": (lambda: train_nb(X, LABELS, MULTINOMIAL), lambda m: m.log_likelihood[0]),
    "gaussian nb": (lambda: train_nb(X, LABELS, GAUSSIAN), lambda m: m.means[0]),
    "svm pair": (lambda: train_svm(X, LABELS).pairs[0], lambda pair: pair.alpha),
    "svm": (lambda: train_svm(X, LABELS), lambda m: m.pairs[0].alpha),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_copy_compares_equal_and_a_changed_element_unequal(name):
    build, array_of = RECORDS[name]
    record = build()
    same, changed = copy.deepcopy(record), copy.deepcopy(record)
    array_of(changed)[0] += 1.0
    assert same == record and not same != record
    assert changed != record and not changed == record
    assert record != "not a record"
