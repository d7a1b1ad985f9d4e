"""SCENARIO_SCHEMA: every built-in script validates, plus one negative
test per keyword (the I/O every contract shares is in
``tests/obs/test_contracts.py``).

The schema is the first consumer of the walker's ``minItems`` keyword
(added in PR 10); each mutation below violates exactly one schema
keyword, so a walker regression on any of them fails loudly here.
"""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.obs.schema import walk_schema
from repro.scenarios import (
    SCENARIO_DOCUMENT,
    builtin_scripts,
    get_script,
    script_document,
)


@pytest.fixture
def document():
    return script_document(get_script("camera_displacement"))


class TestPositive:
    @pytest.mark.parametrize("name", sorted(builtin_scripts()))
    def test_every_builtin_script_validates(self, name):
        SCENARIO_DOCUMENT.validate(script_document(get_script(name)))


class TestNegativePerKeyword:
    """One mutation per JSON-Schema keyword SCENARIO_SCHEMA uses."""

    def reject(self, document):
        with pytest.raises(ScenarioError):
            SCENARIO_DOCUMENT.validate(document)

    def test_type(self, document):
        document["frames"] = "240"
        self.reject(document)

    def test_enum(self, document):
        document["tracks"][0]["kind"] = "sideways"
        self.reject(document)

    def test_minimum(self, document):
        document["tracks"][0]["onset"] = -1
        self.reject(document)

    def test_exclusive_minimum(self, document):
        document["feature_scale"] = 0.0
        self.reject(document)

    def test_required(self, document):
        del document["events"]
        self.reject(document)

    def test_additional_properties(self, document):
        document["surprise"] = True
        self.reject(document)

    def test_items(self, document):
        document["events"][0]["factors"] = ["geometry", 7]
        self.reject(document)

    def test_min_items(self, document):
        # an event must name at least one moved factor
        document["events"][0]["factors"] = []
        self.reject(document)


class TestMinItemsKeyword:
    """Walker-level pin for the new keyword (independent of the
    scenario contract)."""

    def errors_for(self, value, schema):
        errors = []
        walk_schema(value, schema, "$", errors)
        return errors

    def test_short_array_reported(self):
        errors = self.errors_for([1], {"type": "array", "minItems": 2})
        assert errors and "minItems" in errors[0]

    def test_exact_length_accepted(self):
        assert not self.errors_for([1, 2], {"type": "array", "minItems": 2})

    def test_non_array_not_length_checked(self):
        # a type violation is reported once, not doubled by minItems
        errors = self.errors_for("xy", {"type": "array", "minItems": 5})
        assert len(errors) == 1
        assert "expected" in errors[0]

    def test_empty_event_log_is_schema_valid(self):
        # the schema allows an empty event log (stationary scripts have
        # one); the drifting-but-eventless case is caught upstream by
        # script_document, not by the schema
        document = script_document(get_script("abrupt"))
        document["events"] = []
        SCENARIO_DOCUMENT.validate(document)
