"""Output checks: a command whose report fails one counts as failed."""

from __future__ import annotations

import json

import numpy as np

from workloads import closed_form_feasible

REPORT_VERSION = 1

# README exit-code contract: 0 affirmative, 1 negative or counterexample,
# 2 inconclusive, 3 usage or data error.
EXIT_CODE = {
    "FEASIBLE": 0, "INFEASIBLE": 1, "RASTER-WRITTEN": 0, "SET-COMPUTED": 0,
    "CQ-HOLDS": 0, "CQ-FAILS": 1, "VALID": 0, "INVALID": 1,
    "CERTIFICATE-FOUND": 0, "WITNESS-FOUND": 0, "WITNESSED-FAILURE": 1,
    "VERIFIED": 0, "INCONCLUSIVE": 2, "NO-COUNTEREXAMPLE": 0,
    "COUNTEREXAMPLE": 1, "NO-VIOLATION": 0, "VIOLATION": 1,
}
NONE_FOUND_EXIT = {"kkt search": 1, "fuzzy": 2}

# Raster agreement with the closed form (acceptance criterion 4).
RASTER_AGREEMENT = 0.999


def expected_exit(command: str, verdict: str) -> int | None:
    if verdict == "NONE-FOUND":
        return NONE_FOUND_EXIT.get(command)
    return EXIT_CODE.get(verdict)


def check_report(op: dict, code: int, text: str) -> tuple[dict | None,
                                                          list[str]]:
    """Parse one report and return it with every check it fails."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, ["report is not a JSON object"]
    errors = []
    if doc.get("report_version") != REPORT_VERSION:
        errors.append(f"report_version {doc.get('report_version')!r}")
    if "error" in doc or code == 3:
        errors.append(f"exit {code} on a valid input: {doc.get('error')}")
        return doc, errors
    verdict = doc.get("verdict")
    want_code = expected_exit(op["command"], verdict)
    if want_code is None:
        errors.append(f"unknown verdict {verdict!r}")
    elif code != want_code:
        errors.append(f"exit {code} does not match verdict {verdict}")
    expect = op["expect"]
    if "verdict" in expect and verdict != expect["verdict"]:
        errors.append(f"verdict {verdict}, expected {expect['verdict']}")
    details = doc.get("details") or {}
    if expect.get("recheck") and verdict == "CERTIFICATE-FOUND":
        if not details.get("recheck", {}).get("valid"):
            errors.append("certificate found but its recheck is not valid")
    if "samples" in expect and details.get("samples") != expect["samples"]:
        errors.append(f"{details.get('samples')} samples decided, "
                      f"expected {expect['samples']}")
    return doc, errors


def check_raster(figure: str, region, res: int, csv_path: str) -> list[str]:
    """The raster file must match the closed form to within 0.1%, and only
    at cells next to the boundary."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    if data.shape != (res * res, 3):
        return [f"raster has shape {data.shape}, expected {(res * res, 3)}"]
    a1, b1, a2, b2 = region
    x1 = np.linspace(a1, b1, res)
    x2 = np.linspace(a2, b2, res)
    G1, G2 = np.meshgrid(x1, x2, indexing="ij")
    if not (np.array_equal(data[:, 0], G1.ravel())
            and np.array_equal(data[:, 1], G2.ravel())):
        return ["raster coordinates differ from the requested grid"]
    got = data[:, 2].reshape(res, res).astype(bool)
    closed = closed_form_feasible(figure, G1, G2)
    disagree = got != closed
    agreement = 1.0 - float(np.mean(disagree))
    errors = []
    if agreement < RASTER_AGREEMENT:
        errors.append(f"raster agrees with the closed form on "
                      f"{agreement:.6f} of cells")
    if np.any(disagree & ~_near_boundary(closed)):
        errors.append("raster disagrees with the closed form away from "
                      "the boundary")
    return errors


def _near_boundary(mask: np.ndarray) -> np.ndarray:
    """Cells within one step of a change in the mask."""
    edge = np.zeros_like(mask)
    edge[1:, :] |= mask[1:, :] != mask[:-1, :]
    edge[:-1, :] |= mask[1:, :] != mask[:-1, :]
    edge[:, 1:] |= mask[:, 1:] != mask[:, :-1]
    edge[:, :-1] |= mask[:, 1:] != mask[:, :-1]
    near = edge.copy()
    near[1:, :] |= edge[:-1, :]
    near[:-1, :] |= edge[1:, :]
    near[:, 1:] |= edge[:, :-1]
    near[:, :-1] |= edge[:, 1:]
    return near

