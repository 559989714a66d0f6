"""One lifecycle for the observability planes.

The trace plane (:class:`repro.trace.TraceSession`) and the metrics
plane (:class:`repro.metrics.MetricsSession`) are both *sessions*: an
object installed for the length of a run that hands a fresh per-sim
recorder (a ``Tracer``, a ``MetricSet``) to every
:class:`~repro.sim.kernel.Simulator` built while it is installed.  This
module holds that lifecycle once -- the registry of installed sessions,
install/uninstall, labelling and per-sim naming, finalize -- and each
plane subclasses :class:`Session` with only its recorder.

``Simulator.__init__`` calls :func:`attach`; with nothing installed it
leaves ``sim.tracer`` and ``sim.metrics`` ``None``, the zero-overhead
default every instrumentation site guards on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Type, TypeVar

from repro.errors import ReproError

# Simulator attribute -> the session installed for it.  At most one
# session per attribute, iterated in this fixed order (trace, then
# metrics) so attaching and labelling are deterministic.
_INSTALLED: Dict[str, Optional["Session"]] = {"tracer": None, "metrics": None}

S = TypeVar("S", bound="Session")


class Session:
    """Collects the recorders of every simulator built while installed.

    Subclasses set :attr:`sim_attr` (the ``Simulator`` attribute they
    fill) and :attr:`error` (raised by a second install of the same
    kind), and implement :meth:`_new`.  Use as a context manager
    (preferred) or via :meth:`install`/:meth:`uninstall`.
    """

    sim_attr = ""
    error: Type[ReproError] = ReproError

    def __init__(self, label: str = "run"):
        self.recorders: List[Any] = []
        self._label = label
        self._sections: List[str] = []  # open trace_section labels
        self._counter = 0

    def _new(self, sim, label: str) -> Any:
        """The recorder for ``sim``; it must have a ``finalize()``."""
        raise NotImplementedError

    # -- install ----------------------------------------------------------

    def install(self: S) -> S:
        current = _INSTALLED[self.sim_attr]
        if current is not None and current is not self:
            raise self.error(
                f"another {type(self).__name__} is already installed")
        _INSTALLED[self.sim_attr] = self
        return self

    def uninstall(self) -> None:
        if _INSTALLED[self.sim_attr] is self:
            _INSTALLED[self.sim_attr] = None

    def __enter__(self: S) -> S:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.finalize()

    # -- recorders --------------------------------------------------------

    def _attach(self, sim) -> Any:
        label = "/".join(self._sections) or self._label
        recorder = self._new(sim, f"{label}/sim{self._counter}")
        self._counter += 1
        self.recorders.append(recorder)
        return recorder

    def finalize(self) -> None:
        for recorder in self.recorders:
            recorder.finalize()


def installed(kind: Type[S]) -> Optional[S]:
    """The installed session of ``kind`` (e.g. ``TraceSession``), or
    ``None`` when that plane is off."""
    return _INSTALLED[kind.sim_attr]  # type: ignore[return-value]


def installed_sessions() -> List[Session]:
    """Every installed session, trace before metrics."""
    return [session for session in _INSTALLED.values() if session is not None]


def attach(sim) -> None:
    """Give ``sim`` a recorder from each installed session; the attribute
    of a plane with no session installed is set to ``None``."""
    for attr, session in _INSTALLED.items():
        setattr(sim, attr, None if session is None else session._attach(sim))


@contextmanager
def trace_section(label: str):
    """Label every simulator built inside the block -- the hook the
    experiment runners use.

    Labels every installed session (the trace *and* the metrics plane)
    and is a no-op when none is installed.  Sections nest: one opened
    inside another appends to its label (``fig3/sw-opt/crc32``); with
    no section open, simulators carry the session's own label.
    """
    sessions = installed_sessions()
    for session in sessions:
        session._sections.append(label)
    try:
        yield
    finally:
        for session in sessions:
            session._sections.pop()
