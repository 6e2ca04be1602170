"""Unit tests for the argument-validation helpers."""

import math

import numpy as np
import pytest

from repro.util.validation import (
    require,
    require_in_range,
    require_index,
    require_non_negative,
    require_positive,
    require_rank,
    require_type,
    require_unique,
)


class TestRequire:
    def test_passes_when_condition_true(self):
        require(True, "should not raise")

    def test_raises_value_error_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestRequireType:
    def test_returns_value_on_success(self):
        assert require_type(5, int, "x") == 5

    def test_accepts_tuple_of_types(self):
        assert require_type(1.5, (int, float), "x") == 1.5

    def test_raises_type_error_with_expected_names(self):
        with pytest.raises(TypeError, match="x must be int"):
            require_type("no", int, "x")

    def test_tuple_error_message_lists_alternatives(self):
        with pytest.raises(TypeError, match="int or float"):
            require_type("no", (int, float), "x")


class TestNumericValidators:
    def test_non_negative_accepts_zero(self):
        assert require_non_negative(0, "n") == 0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-1, "n")

    def test_non_negative_rejects_bool(self):
        with pytest.raises(TypeError):
            require_non_negative(True, "n")

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive(0, "n")

    def test_positive_accepts_float(self):
        assert require_positive(0.5, "n") == 0.5

    def test_positive_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive(True, "n")

    def test_in_range_inclusive_bounds(self):
        assert require_in_range(0.0, 0.0, 1.0, "f") == 0.0
        assert require_in_range(1.0, 0.0, 1.0, "f") == 1.0

    def test_in_range_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "f")


class TestRequireRank:
    def test_valid_ranks(self):
        for rank in range(4):
            assert require_rank(rank, 4) == rank

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_rank(-1, 4)

    def test_rejects_world_size(self):
        with pytest.raises(ValueError):
            require_rank(4, 4)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_rank(True, 4)

    def test_rejects_non_positive_world(self):
        with pytest.raises(ValueError):
            require_rank(0, 0)


class TestRequireUnique:
    def test_accepts_unique(self):
        assert list(require_unique([1, 2, 3], "xs")) == [1, 2, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            require_unique([1, 2, 1], "xs")


# The validators' full contract, exception type and message alike.  The
# numeric validators and require_rank have fast accept paths for plain
# ``int``/``float`` inputs; every input below must take the slow path and
# fail exactly as it always has (NaN aside, which used to pass).
NAN = float("nan")
REJECTED = [
    # (validator, args, exception type, exact message)
    (require_rank, (True, 4, "r"), TypeError, "r must be an int, got bool"),
    (require_rank, (False, 4, "r"), TypeError, "r must be an int, got bool"),
    (require_rank, (np.int64(1), 4, "r"), TypeError, f"r must be int, got int64: {np.int64(1)!r}"),
    (require_rank, (1.0, 4, "r"), TypeError, "r must be int, got float: 1.0"),
    (require_rank, (-1, 4, "r"), ValueError, "r must be in [0, 4), got -1"),
    (require_rank, (4, 4, "r"), ValueError, "r must be in [0, 4), got 4"),
    (require_rank, (1, 4.0, "r"), TypeError, "world_size must be int, got float: 4.0"),
    (require_rank, (1, np.int64(4), "r"), TypeError,
     f"world_size must be int, got int64: {np.int64(4)!r}"),
    (require_rank, (0, 0, "r"), ValueError, "world_size must be positive, got 0"),
    (require_rank, (0, -3, "r"), ValueError, "world_size must be positive, got -3"),
    (require_non_negative, (True, "n"), TypeError, "n must be a number, got bool"),
    (require_non_negative, (np.int64(3), "n"), TypeError,
     f"n must be int or float, got int64: {np.int64(3)!r}"),
    (require_non_negative, ("1", "n"), TypeError, "n must be int or float, got str: '1'"),
    (require_non_negative, (-1, "n"), ValueError, "n must be non-negative, got -1"),
    (require_non_negative, (-0.5, "n"), ValueError, "n must be non-negative, got -0.5"),
    (require_non_negative, (np.float64(-1.0), "n"), ValueError,
     f"n must be non-negative, got {np.float64(-1.0)!r}"),
    (require_non_negative, (NAN, "n"), ValueError, "n must be non-negative, got nan"),
    (require_non_negative, (-math.inf, "n"), ValueError, "n must be non-negative, got -inf"),
    (require_positive, (False, "p"), TypeError, "p must be a number, got bool"),
    (require_positive, (np.int64(3), "p"), TypeError,
     f"p must be int or float, got int64: {np.int64(3)!r}"),
    (require_positive, (None, "p"), TypeError, "p must be int or float, got NoneType: None"),
    (require_positive, (0, "p"), ValueError, "p must be positive, got 0"),
    (require_positive, (-2.5, "p"), ValueError, "p must be positive, got -2.5"),
    (require_positive, (np.float64(0.0), "p"), ValueError,
     f"p must be positive, got {np.float64(0.0)!r}"),
    (require_positive, (NAN, "p"), ValueError, "p must be positive, got nan"),
    (require_index, (True, "i"), TypeError, "i must be an int, got bool"),
    (require_index, (np.int64(1), "i"), TypeError, f"i must be int, got int64: {np.int64(1)!r}"),
    (require_index, (1.0, "i"), TypeError, "i must be int, got float: 1.0"),
    (require_index, (-1, "i"), ValueError, "i must be non-negative, got -1"),
]

ACCEPTED = [
    (require_rank, (0, 1, "r")),
    (require_rank, (3, 4, "r")),
    (require_non_negative, (0, "n")),
    (require_non_negative, (0.0, "n")),
    (require_non_negative, (math.inf, "n")),
    (require_non_negative, (np.float64(2.5), "n")),
    (require_positive, (1, "p")),
    (require_positive, (1e-300, "p")),
    (require_positive, (math.inf, "p")),
    (require_positive, (np.float64(0.5), "p")),
    (require_index, (0, "i")),
    (require_index, (7, "i")),
]


def _case_id(case):
    return f"{case[0].__name__}{case[1][:-1]!r}"


class TestValidatorContract:
    @pytest.mark.parametrize("validator, args, error, message", REJECTED, ids=map(_case_id, REJECTED))
    def test_rejections_keep_type_and_message(self, validator, args, error, message):
        with pytest.raises(Exception) as raised:
            validator(*args)
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize("validator, args", ACCEPTED, ids=map(_case_id, ACCEPTED))
    def test_accepted_values_are_returned_unchanged(self, validator, args):
        assert validator(*args) is args[0]
