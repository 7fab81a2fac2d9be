"""Mining ``repro-run-report/v1`` dispositions into labeled training rows.

Reports recorded since the schema carried per-fault ``features`` are
self-contained: each row's feature vector is read straight from the
disposition.  Older reports are back-filled by resolving the circuit
and recomputing SCOAP features from the fault name; rows whose circuit
cannot be resolved are skipped (and counted) rather than failing the
whole mine — training data is allowed to be partial.

Merged campaign reports prefix fault names with their source circuit
(``s298:G1 s-a-0``); the miner strips the prefix to recover the
per-circuit fault identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..faults.model import parse_fault
from ..telemetry.report import FaultRecord, RunReport
from .features import FEATURE_NAMES, fault_features, feature_vector


@dataclass
class DatasetRow:
    """One labeled training example: a fault's features and its fate.

    Attributes:
        circuit: source circuit name.
        fault: printable fault name (prefix stripped).
        features: the static feature dict (see :data:`FEATURE_NAMES`).
        status: the fault's disposition status.
        resolve_pass: the label: the pass number that resolved (or last
            targeted) the fault; 1.0 for never-targeted rows.
    """

    circuit: str
    fault: str
    features: Dict[str, float]
    status: str
    resolve_pass: float


@dataclass
class Dataset:
    """Labeled rows plus mining bookkeeping."""

    rows: List[DatasetRow] = field(default_factory=list)
    skipped: int = 0
    reports: int = 0

    def matrix(self) -> List[List[float]]:
        """Feature rows flattened into the model's input layout."""
        return [feature_vector(row.features) for row in self.rows]

    def circuits(self) -> List[str]:
        return sorted({row.circuit for row in self.rows})

    def summary(self) -> str:
        by_status: Dict[str, int] = {}
        for row in self.rows:
            by_status[row.status] = by_status.get(row.status, 0) + 1
        statuses = ", ".join(
            f"{name}={count}" for name, count in sorted(by_status.items())
        )
        return (
            f"{len(self.rows)} rows from {self.reports} report(s) "
            f"({self.skipped} skipped) over "
            f"{', '.join(self.circuits()) or 'no circuits'}; {statuses}"
        )


def _split_fault_name(record_fault: str, report_circuit: str) -> Tuple[str, str]:
    """(circuit, bare fault name) for a possibly prefixed disposition."""
    if ":" in record_fault:
        circuit, _, bare = record_fault.partition(":")
        return circuit, bare
    return report_circuit, record_fault


class _FeatureBackfill:
    """Per-circuit SCOAP feature recomputation for feature-less rows."""

    def __init__(self) -> None:
        self._by_circuit: Dict[str, Optional[object]] = {}

    def features(
        self, circuit_name: str, fault_name: str
    ) -> Optional[Dict[str, float]]:
        if circuit_name not in self._by_circuit:
            self._by_circuit[circuit_name] = self._resolve(circuit_name)
        cc = self._by_circuit[circuit_name]
        if cc is None:
            return None
        try:
            fault = parse_fault(fault_name)
            return fault_features(cc, fault)  # type: ignore[arg-type]
        except (ValueError, KeyError):
            return None

    @staticmethod
    def _resolve(circuit_name: str) -> Optional[object]:
        from ..circuits.resolve import resolve_circuit
        from ..simulation.compiled import compile_circuit

        try:
            return compile_circuit(resolve_circuit(circuit_name))
        except Exception:
            return None


def _label_row(
    circuit: str, fault: str, record: FaultRecord, features: Dict[str, float]
) -> DatasetRow:
    return DatasetRow(
        circuit=circuit,
        fault=fault,
        features=features,
        status=record.status,
        resolve_pass=float(max(record.pass_number, 1)),
    )


def dataset_from_reports(
    reports: Iterable[Union[str, RunReport]],
) -> Dataset:
    """Mine one dataset out of many reports (paths or parsed objects)."""
    dataset = Dataset()
    recompute = _FeatureBackfill()
    for source in reports:
        report = (
            RunReport.load(source) if isinstance(source, str) else source
        )
        dataset.reports += 1
        for record in report.faults:
            circuit, bare = _split_fault_name(record.fault, report.circuit)
            features = record.features
            if features is None:
                features = recompute.features(circuit, bare)
            if features is None:
                dataset.skipped += 1
                continue
            dataset.rows.append(_label_row(circuit, bare, record, features))
    return dataset


__all__ = [
    "Dataset",
    "DatasetRow",
    "dataset_from_reports",
    "parse_fault",
    "FEATURE_NAMES",
]
