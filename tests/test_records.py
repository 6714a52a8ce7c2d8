"""The contract of the package's record types: constructor signatures, repr
text, equality, hashing and immutability.

Each case names a record's fields in constructor order, with a value for
each, so one table pins the positional order, the keyword names and the
repr of all of them.
"""

import importlib
import pickle
import pkgutil
from array import array

import numpy as np
import pytest

import oddball
from oddball.dissimilarity import DissimilarityMatrix, FiringRateTable, pairwise_dstar
from oddball.experiments import DriftResult, DriftRow, ExperimentReport, ExperimentSpec, ReportRow
from oddball.glr import GlrState, SufficientStats
from oddball.numerics import DomainError, _FrozenRecord, _Record
from oddball.policy import PolicyConfig, PolicyDecision, Snapshot, TrialOutcome
from oddball.solver import LambdaSolution, OddConfig

TRUTH = OddConfig(3, 2, 1.5, 2.0)
SPEC = dict(k=3, odd_index=1, r1=2.0, r2=1.0, l_grid=(10.0, 100.0), trials=5, seed=1,
            max_slots=1000, trace_sampling=0.5)
ROW = dict(l_value=10.0, threshold=3.0, trials=5, errors=1, error_rate=0.2, error_ci_hi=0.6,
           mean_tau=12.5, se_tau=1.5, tau_over_ln_l=5.4, lower_bound=4.0, inv_dstar=2.5, capped=0)
DRIFT_ROW = dict(seed=4, n=100, leader=2, z_leader_over_n=0.3, z_true_over_n=0.3,
                 frequencies=(0.2, 0.6, 0.2), empirical_rates=(2.0, 1.5, 2.0),
                 holdout_rates=(1.7, 1.9, 1.7), visits=(20, 60, 20), events=(40, 90, 40),
                 total=170)
TABLE = dict(images=("a", "b"), floor=0.5, _rows=(array("d", [1.0, 2.0]), array("d", [3.0, 0.5])),
             _floored=((False, False), (False, True)))
MATRIX = dict(images=("a", "b"), k=3, _values=((0.0, 0.25), (0.5, 0.0)),
              _degenerate=((True, False), (False, True)), _floored=((0, 1), (1, 1)))

# (type, {field: value} in constructor order, hashable)
CASES = [
    (OddConfig, dict(k=3, odd_index=2, r1=(1.5,), r2=(2.0,)), True),
    (LambdaSolution, dict(config=TRUTH, lam=(0.4, 0.3, 0.3), lam_odd=0.4, lam_hat=0.5,
                          r_tilde=(1.75,), nu=0.43, d_star=0.01), True),
    (PolicyConfig, dict(k=4, threshold_l=100.0, variant="non_stopping", max_slots=50), True),
    (PolicyDecision, dict(stop=False, declared=None, action=2, distribution=(0.5, 0.25, 0.25)),
     True),
    (Snapshot, dict(n=5, leader=1, z_min=(0.5, -1.0, -2.0), visits=(3, 1, 1), events=(4, 1, 0),
                    total=5), True),
    (TrialOutcome, dict(k=3, tau=9, delta=1, correct=True, capped=False, visits=(5, 2, 2),
                        events=(9, 2, 1), total=12, z_min=(4.0, -3.0, -3.5), trace=None,
                        snapshots=None), True),
    (ExperimentSpec, SPEC, True),
    (ReportRow, ROW, True),
    (ExperimentReport, dict(spec=ExperimentSpec(**SPEC), rows=(ReportRow(**ROW),)), True),
    (DriftRow, DRIFT_ROW, True),
    (DriftResult, dict(truth=TRUTH, n_slots=100, d_star=0.3, lambda_star=(0.2, 0.6, 0.2),
                       mixed_rate=1.8, rows=(DriftRow(**DRIFT_ROW),)), True),
    (FiringRateTable, TABLE, False),  # its rows are arrays, which do not hash
    (DissimilarityMatrix, MATRIX, True),
]
IDS = [case[0].__name__ for case in CASES]
# Records left out of CASES, with the fields their constructors take: a
# GlrState equals only itself, and SufficientStats is mutable.
EXCEPTIONS = {
    GlrState: dict(n=3, z=np.zeros((3, 3)), z_min=np.zeros(3), theta=np.ones((3, 2)), leader=1),
    SufficientStats: dict(k=3, n=1, visits=[0, 1, 0], events=[0, 2, 0], total=2),
}
SIGNATURES = [(cls, fields) for cls, fields, _ in CASES] + list(EXCEPTIONS.items())


@pytest.mark.parametrize("cls, fields, hashable", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, hashable):
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert by_name == by_position and not by_name != by_position
    for name, value in fields.items():
        assert getattr(by_position, name) == value
    if hashable:
        assert hash(by_name) == hash(by_position)
    else:
        with pytest.raises(TypeError):
            hash(by_name)


@pytest.mark.parametrize("cls, fields", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_bad_calls_raise_type_error_as_a_signature_does(cls, fields):
    values = list(fields.values())
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(*values, values[-1])  # one argument too many
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(values[0], **fields)  # the first field by position and by keyword
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})  # a required field left out
    with pytest.raises(TypeError):
        cls()


def test_every_record_type_is_pinned():
    """A record type added to the package is in CASES or EXCEPTIONS, so
    it cannot skip the contract above."""
    for info in pkgutil.iter_modules(oddball.__path__):
        importlib.import_module(f"oddball.{info.name}")
    found, stack = set(), [_Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.add(sub)
            stack.append(sub)
    found.discard(_FrozenRecord)
    assert found == {cls for cls, _ in SIGNATURES}


@pytest.mark.parametrize("cls, fields, hashable", CASES, ids=IDS)
def test_repr_lists_the_public_fields_in_order(cls, fields, hashable):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items() if name[0] != "_")
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, hashable", CASES, ids=IDS)
def test_equality_is_by_class_and_every_field(cls, fields, hashable):
    record = cls(**fields)
    assert record == cls(**fields)
    assert record != object() and record != tuple(fields.values())
    name, value = next(iter(fields.items()))
    other = dict(fields, **{name: value + 1 if isinstance(value, int) else ("x",)})
    assert record != cls(**other)


@pytest.mark.parametrize("cls, fields, hashable", CASES, ids=IDS)
def test_records_survive_pickling(cls, fields, hashable):
    record = cls(**fields)
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, fields, hashable", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, hashable):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_literal_reprs():
    assert repr(PolicyConfig(k=4, threshold_l=100)) == (
        "PolicyConfig(k=4, threshold_l=100.0, variant='standard', max_slots=10000000)"
    )
    assert repr(OddConfig(3, 2, 1.5, [2])) == "OddConfig(k=3, odd_index=2, r1=(1.5,), r2=(2.0,))"
    assert repr(PolicyDecision(True, 2)) == (
        "PolicyDecision(stop=True, declared=2, action=None, distribution=None)"
    )


def test_defaults():
    assert PolicyConfig(4, 100.0) == PolicyConfig(4, 100.0, "standard", 10_000_000)
    assert PolicyDecision(True) == PolicyDecision(True, None, None, None)
    spec = ExperimentSpec(3, 1, 2.0, 1.0, [10.0], 5, 1)
    assert (spec.max_slots, spec.trace_sampling) == (10_000_000, 0.0)
    outcome = TrialOutcome(3, 9, 1, True, False, (5, 2, 2), (9, 2, 1), 12, (4.0, -3.0, -3.5))
    assert outcome.trace is None and outcome.snapshots is None


def test_policy_config_sets_its_derived_attributes():
    config = PolicyConfig(k=4, threshold_l=100.0)
    assert config.warmup == 4 and config.log_threshold == pytest.approx(np.log(300.0))
    with pytest.raises(AttributeError):
        config.warmup = 5
    assert config == PolicyConfig(k=4, threshold_l=100)


def test_table_and_matrix_reprs_leave_out_their_rows():
    table = FiringRateTable.from_arrays(["a", "b"], [[1.0, 2.0], [3.0, 0.0]])
    matrix = pairwise_dstar(table, 3)
    assert repr(table) == "FiringRateTable(images=('a', 'b'), floor=0.001)"
    assert repr(matrix) == "DissimilarityMatrix(images=('a', 'b'), k=3)"
    # Reading an array field caches it on the frozen record and leaves the repr alone.
    assert table.rates.shape == (2, 2) and matrix.values.shape == (2, 2)
    assert repr(table) == "FiringRateTable(images=('a', 'b'), floor=0.001)"
    assert table == FiringRateTable.from_arrays(["a", "b"], [[1.0, 2.0], [3.0, 0.0]])


def test_sufficient_stats_are_mutable_and_unhashable():
    stats = SufficientStats(k=3)
    assert repr(stats) == "SufficientStats(k=3, n=0, visits=[0, 0, 0], events=[0, 0, 0], total=0)"
    assert stats == SufficientStats(3, 0, [0, 0, 0], [0, 0, 0], 0)
    assert stats.visits is not SufficientStats(k=3).visits
    stats.update(2, 5)
    assert stats == SufficientStats.from_counts([0, 1, 0], [0, 5, 0])
    assert stats != SufficientStats(k=3) and stats != object()
    stats.n = 7
    assert stats.n == 7
    del stats.n
    with pytest.raises(TypeError):
        hash(stats)
    with pytest.raises(DomainError):
        SufficientStats(3, events=[0, 0, 0])  # tallies come in pairs


def test_glr_state_equals_only_itself():
    fields = dict(n=3, z=np.zeros((3, 3)), z_min=np.zeros(3), theta=np.ones((3, 2)), leader=1)
    state = GlrState(**fields)
    assert state == state and hash(state) == hash(state)
    assert state != GlrState(**fields)
    assert repr(state).startswith("GlrState(n=3, z=array(")
    with pytest.raises(AttributeError):
        state.leader = 2
    with pytest.raises(AttributeError):
        del state.n
