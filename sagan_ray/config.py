"""Engine configuration + lookup-table container.

The analog of the reference's YAML config (/root/reference/src/config-yaml.c
Load_YAML_Config + etc/sagan.yaml): which output sinks are enabled, the
ignore droplist (src/ignore.c:40-56), and the enrichment lookup tables
(GeoIP / blacklist / Zeek-intel analogs, SURVEY.md §2.3 #13-15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .functions.ip import CidrTable

# Sink names (output-plugin analogs, SURVEY.md §2.1):
SINK_ALERT = "alert"        # src/output-plugins/alert.c
SINK_FAST = "fast"          # src/output-plugins/fast.c
SINK_EVE = "eve"            # src/output-plugins/eve.c (EVE JSON)
SINK_SYSLOG = "syslog"      # src/output-plugins/syslog-handler.c
SINK_EMAIL = "email"        # src/output-plugins/esmtp.c (rule 'email' option)
SINK_EXTERNAL = "external"  # src/output-plugins/external.c (rule 'external')

DEFAULT_SINKS = (SINK_ALERT, SINK_FAST, SINK_EVE, SINK_SYSLOG)

# Intel table kinds (reference src/processors/zeek-intel.c loaders 74-505)
INTEL_IP = "ip"
INTEL_DOMAIN = "domain"
INTEL_HASH = "hash"
INTEL_URL = "url"
INTEL_SOFTWARE = "software"
INTEL_USERNAME = "username"
INTEL_FILENAME = "filename"


@dataclass
class Lookups:
    """Broadcast enrichment tables. Built once on the driver; inside Ray
    stages these ride along via ``ray.put`` and are read per actor."""

    geo: CidrTable | None = None            # cidr → ISO country code
    blacklist: CidrTable | None = None      # cidr membership
    intel: dict[str, set[str]] = field(default_factory=dict)   # kind → values
    # liblognorm rulebase analog (functions.normalize.NormalizeTable),
    # consumed by rules carrying the `normalize` option
    normalize: object | None = None
    # bluedot offline category snapshot: kind → value → CATEGORY
    # (kinds: ip, hash, url, filename, ja3 — bluedot.c:736-1648)
    bluedot: dict[str, dict[str, str]] = field(default_factory=dict)
    # offload predicate registry: name → callable(text, role, tool,
    # ts_epoch) -> bool|str (the HTTP-offload analog, src/offload.c);
    # callables must be picklable (broadcast via ray.put)
    offload: dict[str, object] = field(default_factory=dict)

    def intel_set(self, kind: str) -> set[str]:
        return self.intel.get(kind, set())


@dataclass
class EngineConfig:
    sinks: tuple[str, ...] = DEFAULT_SINKS
    ignore_list: tuple[str, ...] = ()       # droplist substrings (pre-filter)
    # EVE 'alerts-base64' analog (etc/sagan.yaml:440, applied in
    # src/json-handler.c:102,155): emit the alert payload base64-encoded
    eve_payload_base64: bool = False

    def with_ignore(self, *items: str) -> "EngineConfig":
        return EngineConfig(sinks=self.sinks, ignore_list=tuple(items),
                            eve_payload_base64=self.eve_payload_base64)

    def sink_fanout(self, rules) -> list[tuple[str, frozenset[int]]]:
        """The alert fan-out (src/output.c:63-149): each sink that gets
        alerts, with the ``idx`` of every rule whose alerts it gets. The
        configured sinks get every rule's; email and external get the
        rules that carry the option. A sink no rule reaches is left out."""
        every = frozenset(r.idx for r in rules)
        out = [(s, every) for s in self.sinks]
        for s, flag in ((SINK_EMAIL, "email"), (SINK_EXTERNAL, "external")):
            idx = frozenset(r.idx for r in rules if getattr(r, flag))
            if idx:
                out.append((s, idx))
        return out
