"""Figure 11 — latency breakdown of inter-device communications.

(a) SSD→NIC without processing; (b) SSD→Processing(MD5)→NIC.  The
baselines compute MD5 on the GPU; DCS-ctrl uses its MD5 NDP bank.
Direct SSD↔NIC P2P is impossible (neither device exposes internal
memory), so in (a) software-controlled P2P falls back to host staging —
the paper's own observation.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import (SOFTWARE_CATEGORIES, measure_send,
                                      software_us)
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT
from repro.schemes import DcsCtrlScheme, SwOptScheme, SwP2pScheme

SCHEMES = (("sw-opt", SwOptScheme), ("sw-p2p", SwP2pScheme),
           ("dcs-ctrl", DcsCtrlScheme))

DEVICE_DISPLAY = (CAT.READ, CAT.HASH, CAT.NDP, CAT.WIRE)


def _panel(result: ExperimentResult, processing: Optional[str],
           tag: str) -> dict:
    measured = {}
    for name, scheme_cls in SCHEMES:
        sent = measure_send(scheme_cls, processing)
        segs = sent.trace.breakdown_us()
        measured[name] = sent
        result.add_row(tag, name, f"{sent.latency_us:.2f}",
                       f"{software_us(sent):.2f}",
                       *[f"{segs.get(cat, 0.0):.2f}"
                         for cat in DEVICE_DISPLAY + SOFTWARE_CATEGORIES])
    return measured


def run_fig11() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 11: latency breakdown of inter-device communication "
             "(4 KiB)",
        headers=["panel", "scheme", "total us", "software us"]
                + [f"{cat}" for cat in
                   ("read", "hash", "ndp", "wire") + SOFTWARE_CATEGORIES])
    panel_a = _panel(result, None, "a:SSD->NIC")
    panel_b = _panel(result, "md5", "b:SSD->MD5->NIC")

    sw_a = software_us(panel_a["sw-p2p"])
    dcs_a = software_us(panel_a["dcs-ctrl"])
    sw_b = software_us(panel_b["sw-p2p"])
    dcs_b = software_us(panel_b["dcs-ctrl"])
    result.metrics["fig11a_software_reduction"] = (sw_a - dcs_a) / sw_a
    result.metrics["fig11b_software_reduction"] = (sw_b - dcs_b) / sw_b
    result.metrics["fig11a_total_reduction"] = (
        (panel_a["sw-p2p"].latency_us - panel_a["dcs-ctrl"].latency_us)
        / panel_a["sw-p2p"].latency_us)
    result.metrics["fig11b_total_reduction"] = (
        (panel_b["sw-p2p"].latency_us - panel_b["dcs-ctrl"].latency_us)
        / panel_b["sw-p2p"].latency_us)
    result.notes.append("paper: 42 % software-latency reduction without "
                        "NDP, 72 % with NDP (vs software-controlled P2P)")
    for key, paper, lower, upper in (
            ("fig11a_software_reduction", "42 %", 0.35, 0.70),
            ("fig11b_software_reduction", "72 %", 0.55, 0.85),
            ("fig11a_total_reduction", "lower total latency", 0.10, None),
            ("fig11b_total_reduction", "much lower with NDP", 0.30, None)):
        result.claim(key, paper, result.metrics[key], lower, upper)
    return result
