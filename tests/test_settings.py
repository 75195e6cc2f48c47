"""The settings' types and ranges: one rule, data.check_settings, read by
the six section configs and by ExperimentConfig."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from aeimpute import data, optimizers as opt
from aeimpute.experiment import _SECTION_TYPES, ConfigError, ExperimentConfig, config_text
from aeimpute.forest import ForestConfig
from aeimpute.network import TrainConfig
from aeimpute.optimizers import GaConfig, NsConfig, PsoConfig, SaConfig

TINY = math.nextafter(0.0, 1.0)
BELOW_1, ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
HUGE = 1.7976931348623157e308  # the largest finite float

# Every bounded setting: the values at its bounds, which it accepts, and the
# values just past them, which it refuses.  An open bound refuses its own end.
# A choice of texts accepts each, and refuses a text that is none of them; a
# bool refuses the integer and numpy's bool.  The other settings are left at
# their defaults (GaConfig's population is 50), or at REQUIRED's.
BOUNDS = [
    (ExperimentConfig, "missing_column", [0], [-1]),
    (ExperimentConfig, "task", ["prediction", "classification"], ["ranking", "Prediction"]),
    (ExperimentConfig, "header", [False, True], [1, np.bool_(True)]),
    (ExperimentConfig, "hidden_size", ["auto", 2], ["Auto", "3", 4.5]),
    (ExperimentConfig, "normalization_scope", ["full", "train"], ["x", "Full"]),
    (GaConfig, "population", [2], [1]),
    (GaConfig, "bits_per_variable", [1, 53], [0, 54]),
    (GaConfig, "crossover_prob", [0.0, 1.0], [-TINY, ABOVE_1]),
    (GaConfig, "mutation_prob", [0.0, 1.0], [-TINY, ABOVE_1]),
    (GaConfig, "tournament_size", [1], [0]),
    (GaConfig, "elitism", [0, 49], [-1, 50]),
    (GaConfig, "generations", [1], [0]),
    (SaConfig, "initial_temperature", [TINY, HUGE], [0.0]),
    (SaConfig, "cooling_factor", [TINY, BELOW_1], [0.0, 1.0]),
    (SaConfig, "temperature_steps", [1], [0]),
    (SaConfig, "moves_per_step", [1], [0]),
    (SaConfig, "neighbor_sigma", [TINY, HUGE], [0.0]),
    (PsoConfig, "swarm", [2], [1]),
    (PsoConfig, "phi1", [TINY, HUGE], [0.0]),
    (PsoConfig, "phi2", [TINY, HUGE], [0.0]),
    (PsoConfig, "v_max", [TINY, HUGE], [0.0]),
    (PsoConfig, "iterations", [1], [0]),
    (NsConfig, "detectors", [2], [1]),
    (NsConfig, "generations", [1], [0]),
    (ForestConfig, "n_trees", [1], [0]),
    (ForestConfig, "mtry", [1], [0]),
    (ForestConfig, "min_leaf", [1], [0]),
    (TrainConfig, "max_iterations", [1], [0]),
    (TrainConfig, "gradient_tolerance", [TINY, HUGE], [0.0]),
    (TrainConfig, "objective_tolerance", [TINY, HUGE], [0.0]),
]
SECTIONS = (GaConfig, SaConfig, PsoConfig, NsConfig, ForestConfig, TrainConfig)
REQUIRED = {ExperimentConfig: {"dataset": "d.csv", "missing_column": 0, "task": "prediction"}}
# Not in the table: the seeds, which take any integer, output_dir, the
# sections, and the settings with text rules of their own.
UNLISTED = {(TrainConfig, "rng_seed"), *((ExperimentConfig, name) for name in
                                         ("seed", "output_dir", *_SECTION_TYPES, "dataset", "columns", "methods"))}


def build(cls, **settings):
    """``cls`` with ``settings``, the other settings at their defaults."""
    return cls(**{**REQUIRED.get(cls, {}), **settings})


def table(column):
    return [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
            for cls, name, *values in BOUNDS for value in values[column]]


def test_the_table_holds_every_setting_but_the_seed():
    listed = {(cls, name) for cls, name, *_ in BOUNDS}
    every = {(cls, f.name) for cls in (*SECTIONS, ExperimentConfig) for f in dataclasses.fields(cls)}
    assert listed == every - UNLISTED


@pytest.mark.parametrize("cls, name, value", table(0))
def test_a_setting_is_accepted_at_its_bound(cls, name, value):
    assert getattr(build(cls, **{name: value}), name) == value


@pytest.mark.parametrize("cls, name, value", table(1))
def test_a_setting_is_refused_just_past_its_bound(cls, name, value):
    with pytest.raises(ConfigError if cls is ExperimentConfig else ValueError, match=f"^{name} must be "):
        build(cls, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", [(cls, name) for cls, name, at, _ in BOUNDS if isinstance(at[0], float)])
def test_a_float_setting_refuses_nan_and_infinities(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be (in|positive)"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, settings, message", [
    (GaConfig, {"population": 1}, "population must be >= 2, got 1"),
    (GaConfig, {"bits_per_variable": 54}, "bits_per_variable must be in [1, 53], got 54"),
    (GaConfig, {"mutation_prob": 1.5}, "mutation_prob must be in [0, 1], got 1.5"),
    (GaConfig, {"population": 40, "elitism": 40}, "elitism must be in [0, 39], got 40"),
    (SaConfig, {"cooling_factor": 1.0}, "cooling_factor must be in (0, 1), got 1.0"),
    (SaConfig, {"moves_per_step": 0}, "moves_per_step must be >= 1, got 0"),
    (PsoConfig, {"phi2": math.nan}, "phi2 must be positive and finite, got nan"),
    (ForestConfig, {"mtry": 0}, "mtry must be >= 1, got 0"),
    (TrainConfig, {"objective_tolerance": math.inf}, "objective_tolerance must be positive and finite, got inf"),
    (ExperimentConfig, {"missing_column": -1}, "missing_column must be >= 0, got -1"),
], ids=["population", "bits", "mutation-prob", "elitism", "cooling", "moves", "phi2", "mtry", "tolerance",
        "missing-column"])
def test_a_refusal_names_the_field_and_its_bound(cls, settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(cls, **settings)


@pytest.mark.parametrize("cls, name, value, kind", [
    (GaConfig, "population", "50", "an integer"),
    (PsoConfig, "phi1", "2.5", "a number"),
    (ForestConfig, "n_trees", "8", "an integer"),
    (TrainConfig, "max_iterations", "60", "an integer"),
    (GaConfig, "population", 50.0, "an integer"),
    (ForestConfig, "n_trees", 2.5, "an integer"),
    (SaConfig, "moves_per_step", True, "an integer"),
    (TrainConfig, "rng_seed", "0", "an integer"),
    (GaConfig, "population", None, "an integer"),
    (PsoConfig, "phi1", True, "a number"),
    (GaConfig, "mutation_prob", np.bool_(False), "a number"),
    (ExperimentConfig, "missing_column", "3", "an integer"),
    (ExperimentConfig, "missing_column", 2.0, "an integer"),
    (ExperimentConfig, "seed", True, "an integer"),
    (ExperimentConfig, "seed", "3", "an integer"),
    (ExperimentConfig, "header", np.bool_(True), "a bool"),
    (ExperimentConfig, "hidden_size", "foo", "an integer or 'auto'"),
    (ExperimentConfig, "task", "ranking", "'prediction' or 'classification'"),
    (ExperimentConfig, "normalization_scope", None, "'full' or 'train'"),
    (ExperimentConfig, "pso", None, "a PsoConfig"),
], ids=["ga-population-text", "pso-phi1-text", "rf-n-trees-text", "train-max-iterations-text",
        "ga-population-float", "rf-n-trees-float", "sa-moves-per-step-bool", "train-rng-seed-text",
        "ga-population-none", "pso-phi1-bool", "ga-mutation-prob-numpy-bool", "missing-column-text",
        "missing-column-float", "seed-bool", "seed-text", "header-numpy-bool", "hidden-size-text", "task-text",
        "normalization-scope-none", "pso-none"])
def test_a_value_of_another_type_is_refused_naming_the_field(cls, name, value, kind):
    # Not a TypeError from a range check, nor a value that a run crashes on later;
    # ExperimentConfig raises its ConfigError.
    error = ConfigError if cls is ExperimentConfig else ValueError
    with pytest.raises(error, match=f"^{name} must be {kind}, got {re.escape(repr(value))}$"):
        build(cls, **{name: value})


@pytest.mark.parametrize("value", [Fraction(1, 3), 10**400, 2**53 + 1], ids=["third", "overflow", "odd-2**53"])
def test_a_float_setting_refuses_a_number_that_no_float_holds(value):
    # Its config line would read back as another number, or as none.
    message = f"^phi1 must be a number that a float holds exactly, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        PsoConfig(phi1=value)


def test_a_setting_that_no_config_line_can_state_is_refused_when_built():
    # Python writes an integer of no more than 4,300 digits as text.
    with pytest.raises(ConfigError, match="integer string conversion"):
        build(ExperimentConfig, seed=10**5000)
    with pytest.raises(ConfigError, match="integer string conversion"):
        build(ExperimentConfig, ga=GaConfig(generations=10**5000))


def test_numpy_numbers_integers_for_floats_and_allowed_nones_are_accepted():
    assert PsoConfig(phi1=2).phi1 == 2
    assert opt.budget("ga", GaConfig(population=np.int64(40))) == 40 + 100 * 39
    assert SaConfig(cooling_factor=np.float64(0.5), moves_per_step=np.int32(3)).moves_per_step == 3
    assert GaConfig(mutation_prob=None).mutation_prob is None
    assert ForestConfig(mtry=None).mtry is None
    cfg = build(ExperimentConfig, missing_column=np.int64(3), hidden_size=np.int32(4), seed=np.int64(-5),
                pso=PsoConfig(phi1=Fraction(5, 2), phi2=2))
    assert config_text(cfg)[:8] == ["dataset = d.csv", "missing_column = 3", "task = prediction", "header = false",
                                    "hidden_size = 4", "methods = ga,sa,pso,ns,rf", "seed = -5",
                                    "normalization_scope = full"]
    assert {"pso.phi1 = 2.5", "pso.phi2 = 2.0"} <= set(config_text(cfg))


@dataclasses.dataclass
class Span:
    high: float
    low: int


def test_a_bound_end_read_from_a_later_field_waits_for_its_type():
    data.check_settings(Span(2.5, 1), high=[lambda s: s.low, math.inf])
    with pytest.raises(ValueError, match="^high must be >= 3, got 2.5$"):
        data.check_settings(Span(2.5, 3), high=[lambda s: s.low, math.inf])
    with pytest.raises(ValueError, match="^low must be an integer, got 'x'$"):
        data.check_settings(Span(2.5, "x"), high=[lambda s: s.low, math.inf])
