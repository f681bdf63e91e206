"""Trace spec grammar: parsing, canonical formatting, typed options."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.spec import (
    SpecOptions,
    TraceSpec,
    format_trace_spec,
    make_trace_spec,
    parse_duration,
    parse_trace_spec,
)


class TestParse:
    def test_bare_name(self):
        spec = parse_trace_spec("borg-synth")
        assert spec.name == "borg-synth"
        assert spec.options == ()

    def test_options_parsed_and_sorted(self):
        spec = parse_trace_spec("borg-synth:seed=7,jobs=500")
        assert spec.name == "borg-synth"
        assert spec.options == (("jobs", "500"), ("seed", "7"))

    def test_values_stay_raw_strings(self):
        spec = parse_trace_spec("borg-csv:path=/data/trace.csv,window=1h")
        assert dict(spec.options) == {
            "path": "/data/trace.csv",
            "window": "1h",
        }

    def test_whitespace_tolerated(self):
        spec = parse_trace_spec("  borg-synth: seed = 7 , jobs = 5  ")
        assert dict(spec.options) == {"seed": "7", "jobs": "5"}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "Borg-Synth",
            "borg_synth",
            "-borg",
            "borg-",
            "borg--synth",
            "borg synth",
        ],
    )
    def test_bad_names_rejected(self, text):
        with pytest.raises(TraceError):
            parse_trace_spec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "borg-synth:",
            "borg-synth:seed",
            "borg-synth:seed=",
            "borg-synth:=7",
            "borg-synth:Seed=7",
            "borg-synth:seed=7,,jobs=5",
        ],
    )
    def test_bad_options_rejected(self, text):
        with pytest.raises(TraceError):
            parse_trace_spec(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(TraceError, match="duplicate option 'seed'"):
            parse_trace_spec("borg-synth:seed=7,seed=8")


class TestFormat:
    def test_canonical_form_is_sorted(self):
        spec = parse_trace_spec("borg-synth:seed=7,jobs=500")
        assert format_trace_spec(spec) == "borg-synth:jobs=500,seed=7"
        assert str(spec) == format_trace_spec(spec)

    def test_make_trace_spec_stringifies(self):
        assert (
            make_trace_spec("borg-synth", [("seed", 7), ("jobs", 500)])
            == "borg-synth:jobs=500,seed=7"
        )
        assert make_trace_spec("borg-synth") == "borg-synth"


_names = st.from_regex(r"[a-z0-9]+(-[a-z0-9]+){0,2}", fullmatch=True)
_keys = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_values = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters="./_-:",
    ),
    min_size=1,
    max_size=12,
)


class TestRoundTrip:
    @given(
        name=_names,
        options=st.dictionaries(_keys, _values, max_size=5),
    )
    def test_parse_format_round_trip(self, name, options):
        spec = TraceSpec(
            name=name, options=tuple(sorted(options.items()))
        )
        reparsed = parse_trace_spec(format_trace_spec(spec))
        assert reparsed == spec
        # Formatting the reparse is a fixed point (canonical form).
        assert format_trace_spec(reparsed) == format_trace_spec(spec)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("90", 90.0),
            ("90s", 90.0),
            ("1.5m", 90.0),
            ("1h", 3600.0),
            ("2d", 172_800.0),
            (".5h", 1800.0),
            (42, 42.0),
            (1.5, 1.5),
        ],
    )
    def test_literals(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "h", "-5", "5w", "1.2.3"])
    def test_bad_literals(self, text):
        with pytest.raises(TraceError, match="bad duration"):
            parse_duration(text)


class TestSpecOptions:
    def reader(self, text, *consumed):
        return parse_trace_spec(text).reader(*consumed)

    def test_integer_with_minimum(self):
        options = self.reader("x:jobs=50")
        assert options.integer("jobs", None, minimum=1) == 50
        with pytest.raises(TraceError, match="must be >= 1"):
            self.reader("x:jobs=0").integer("jobs", None, minimum=1)
        with pytest.raises(TraceError, match="must be an integer"):
            self.reader("x:jobs=five").integer("jobs")

    def test_defaults_when_absent(self):
        options = self.reader("x")
        assert options.integer("jobs", 663) == 663
        assert options.number("sigma", 1.6) == 1.6
        assert options.flag("renumber", True) is True
        assert options.string("mode") is None

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    def test_number_rejects_non_finite(self, raw):
        with pytest.raises(TraceError, match="'sigma' must be finite"):
            self.reader(f"x:sigma={raw}").number("sigma")

    def test_fraction_bounds(self):
        assert self.reader("x:f=0.5").fraction("f") == 0.5
        with pytest.raises(TraceError, match="fraction"):
            self.reader("x:f=1.5").fraction("f")

    def test_duration_option(self):
        assert self.reader("x:window=1h").duration("window") == 3600.0
        with pytest.raises(TraceError, match="window"):
            self.reader("x:window=1w").duration("window")

    def test_flag_values(self):
        for raw, expected in (
            ("true", True), ("YES", True), ("1", True), ("on", True),
            ("false", False), ("no", False), ("0", False), ("off", False),
        ):
            assert self.reader(f"x:r={raw}").flag("r") is expected
        with pytest.raises(TraceError, match="boolean"):
            self.reader("x:r=maybe").flag("r")

    def test_path_required(self):
        assert self.reader("x:path=a.csv").path() == "a.csv"
        with pytest.raises(TraceError, match="'path' is required"):
            self.reader("x").path()

    def test_finish_rejects_unclaimed_naming_accepted(self):
        options = self.reader("x:jobs=5,warp=9", "seed")
        options.integer("jobs")
        with pytest.raises(TraceError) as excinfo:
            options.finish()
        message = str(excinfo.value)
        assert "warp" in message
        assert "jobs" in message and "seed" in message

    def test_finish_passes_when_all_claimed(self):
        options = self.reader("x:jobs=5")
        options.integer("jobs")
        options.finish()

    def test_errors_carry_spec_and_key(self):
        with pytest.raises(TraceError) as excinfo:
            self.reader("x:jobs=zap").integer("jobs")
        assert "'x:jobs=zap'" in str(excinfo.value)
        assert "'jobs'" in str(excinfo.value)

    def test_consumed_keys_preclaimed(self):
        options = SpecOptions(
            parse_trace_spec("x:seed=3"), consumed=("seed",)
        )
        options.finish()  # seed is claimed even though never read
