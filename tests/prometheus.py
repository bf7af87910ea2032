"""A validating parser for the Prometheus text exposition format.

The service renders ``GET /metrics`` by hand
(:class:`repro.telemetry.metrics.TelemetryRegistry`); this parser lets
the tests and the CI smoke assert that the endpoint emits *parseable*
exposition (names, types, label syntax, histogram consistency) instead
of merely grepping for substrings.  It validates output; the program
itself never parses exposition, so it lives with the tests.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


class ExpositionError(ValueError):
    """The text is not valid Prometheus exposition format."""


class MetricFamily:
    """One parsed metric family: declared type, help, and its samples."""

    def __init__(self, name: str, kind: str, help: Optional[str] = None):
        self.name = name
        self.kind = kind
        self.help = help
        #: ``[(sample_name, labels, value)]`` in document order.
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def value(self, labels: Optional[Mapping[str, str]] = None,
              series: Optional[str] = None) -> float:
        """The single sample matching ``labels`` (default: unlabelled).

        For histogram series pass ``series`` explicitly, e.g.
        ``family.value({"le": "+Inf"}, series=f"{name}_bucket")`` or
        ``family.value(series=f"{name}_count")``.
        """
        wanted = dict(labels or {})
        target = series or self.name
        for sample_name, sample_labels, value in self.samples:
            if sample_name == target and sample_labels == wanted:
                return value
        raise KeyError(f"no sample {target}{wanted!r}")


def _parse_labels(text: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not text:
        return labels
    for part in text.split(","):
        match = _LABEL_RE.match(part.strip())
        if match is None:
            raise ExpositionError(
                f"line {line_no}: malformed label {part!r}")
        labels[match.group(1)] = (
            match.group(2).replace('\\"', '"').replace("\\n", "\n")
            .replace("\\\\", "\\"))
    return labels


def _parse_value(text: str, line_no: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"line {line_no}: bad sample value {text!r}")


def _family_of(sample_name: str) -> str:
    """The family a histogram-series sample belongs to."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse (and validate) a Prometheus text exposition document.

    Checks the properties the repo's endpoint promises: metric-name and
    label syntax, ``# TYPE`` declared before samples, samples only for
    declared families (histograms may use ``_bucket``/``_sum``/
    ``_count`` series), parseable float values, a ``+Inf`` bucket and
    bucket-monotonicity for histograms.  Raises :class:`ExpositionError`
    on any violation; returns ``{family_name: MetricFamily}``.
    """
    families: Dict[str, MetricFamily] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: bad metric name in HELP: {name!r}")
            if name in families:
                raise ExpositionError(
                    f"line {line_no}: HELP after TYPE/samples for {name!r}")
            families[name] = MetricFamily(name, "untyped", help=help_text)
            families[name].kind = ""  # pending TYPE
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: bad metric name in TYPE: {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ExpositionError(
                    f"line {line_no}: unknown metric type {kind!r}")
            family = families.get(name)
            if family is None:
                family = families[name] = MetricFamily(name, kind)
            elif family.kind:
                raise ExpositionError(
                    f"line {line_no}: duplicate TYPE for {name!r}")
            else:
                family.kind = kind
            if family.samples:
                raise ExpositionError(
                    f"line {line_no}: TYPE for {name!r} after its samples")
            continue
        if line.startswith("#"):
            continue  # comment
        # A sample line: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                         r"(?:\{(.*)\})?\s+(\S+)(?:\s+(-?\d+))?$", line)
        if match is None:
            raise ExpositionError(f"line {line_no}: malformed sample "
                                  f"{line!r}")
        sample_name, label_text, value_text = match.group(1, 2, 3)
        labels = _parse_labels(label_text or "", line_no)
        value = _parse_value(value_text, line_no)
        family = families.get(_family_of(sample_name))
        if family is None or not family.kind:
            raise ExpositionError(
                f"line {line_no}: sample {sample_name!r} has no preceding "
                "# TYPE declaration")
        if (sample_name != family.name and family.kind not in
                ("histogram", "summary")):
            raise ExpositionError(
                f"line {line_no}: series {sample_name!r} not allowed for "
                f"{family.kind} {family.name!r}")
        family.samples.append((sample_name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, MetricFamily]) -> None:
    for family in families.values():
        if family.kind != "histogram":
            continue
        buckets = [(labels.get("le"), value)
                   for name, labels, value in family.samples
                   if name == f"{family.name}_bucket"]
        if not buckets:
            raise ExpositionError(
                f"histogram {family.name!r} has no _bucket samples")
        if buckets[-1][0] != "+Inf":
            raise ExpositionError(
                f"histogram {family.name!r} must end with an le=\"+Inf\" "
                "bucket")
        counts = [value for _, value in buckets]
        if any(later < earlier
               for earlier, later in zip(counts, counts[1:])):
            raise ExpositionError(
                f"histogram {family.name!r} buckets are not cumulative")
        series = {name for name, _, _ in family.samples}
        for required in (f"{family.name}_sum", f"{family.name}_count"):
            if required not in series:
                raise ExpositionError(
                    f"histogram {family.name!r} is missing {required}")


def sample_value(families: Mapping[str, MetricFamily], name: str,
                 labels: Optional[Mapping[str, str]] = None) -> float:
    """Convenience: the value of one (family, labels) sample."""
    if name not in families:
        raise KeyError(f"no metric family {name!r}")
    return families[name].value(labels)
