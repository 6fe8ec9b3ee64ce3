"""Tests for the fault-injection registry (repro.faults).

Spec parsing must reject typos and mistyped values loudly (a misspelt
site would silently disable a fault), decisions must be deterministic per
seed (a chaos failure has to reproduce), keyed decisions fire at most once
per key (so supervised retries can succeed), and lifetime caps hold.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.faults import FAULT_SITES, FaultInjector, FaultSpec, get_injector, install
from repro.faults.chaos import DEFAULT_FAULT_SPEC, ChaosConfig
from repro.faults.injection import SiteSpec
from repro.obs.metrics import MetricsRegistry
from repro.service.server import ReproService, ServiceConfig


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def test_spec_rejects_unknown_site() -> None:
    with pytest.raises(ConfigurationError, match="unknown fault sites"):
        FaultSpec.from_dict({"seed": 1, "kill_wroker": {"rate": 0.5}})


def test_spec_rejects_unknown_setting() -> None:
    with pytest.raises(ConfigurationError, match="unknown settings"):
        FaultSpec.from_dict({"kill_worker": {"rate": 0.5, "probability": 1}})


@pytest.mark.parametrize(
    "settings",
    [{"rate": -0.1}, {"rate": 1.5}, {"rate": 0.5, "max": -1}, {"rate": 0.5, "seconds": -1}],
)
def test_spec_rejects_out_of_range_settings(settings) -> None:
    with pytest.raises(ConfigurationError):
        FaultSpec.from_dict({"delay_peer": settings})


@pytest.mark.parametrize(
    "document, match",
    [
        ({"seed": "7"}, "seed: expected int, got str '7'"),
        ({"seed": 1.9}, "seed: expected int, got float 1.9"),
        ({"http_500": {"rate": "0.5"}}, "'http_500': rate: expected float, got str '0.5'"),
        ({"http_500": {"rate": True}}, "'http_500': rate: expected float, got bool True"),
        (
            {"kill_worker": {"rate": 0.5, "max": "3"}},
            "fault site 'kill_worker': max: expected int, got str '3'",
        ),
        (
            {"delay_peer": {"rate": 0.5, "seconds": "1"}},
            "fault site 'delay_peer': seconds: expected float, got str '1'",
        ),
        (
            {"drop_peer": {"rate": 1.5}},
            r"fault site 'drop_peer': fault rate must be in \[0, 1\], got 1.5",
        ),
    ],
    ids=["str-seed", "float-seed", "str-rate", "bool-rate", "str-max", "str-seconds", "big-rate"],
)
def test_spec_refuses_mistyped_values_naming_site_and_field(document, match) -> None:
    """Nothing is coerced: a string seed, cap or rate, a float seed and a
    boolean rate are refused, and the error names the site and field."""
    with pytest.raises(ConfigurationError, match=match):
        FaultSpec.from_dict(document)


def test_spec_decodes_the_shipped_documents() -> None:
    """The default chaos mix decodes to exactly the settings it writes."""
    spec = FaultSpec.from_dict(DEFAULT_FAULT_SPEC)
    assert spec.seed == DEFAULT_FAULT_SPEC["seed"]
    for site in FAULT_SITES:
        settings = DEFAULT_FAULT_SPEC[site]
        assert spec.sites[site] == SiteSpec(
            rate=float(settings["rate"]),
            max=settings.get("max"),
            seconds=float(settings.get("seconds", 0.0)),
        )
    # Integers are numbers where a float belongs; a null site is no site.
    spec = FaultSpec.from_dict({"http_500": {"rate": 1, "seconds": 0}, "drop_peer": None})
    assert spec == FaultSpec(seed=0, sites={"http_500": SiteSpec(rate=1.0)})
    assert isinstance(spec.sites["http_500"].rate, float)


def test_spec_rejects_non_mapping_inputs() -> None:
    with pytest.raises(ConfigurationError, match="fault-spec mapping"):
        FaultSpec.from_dict(["kill_worker"])
    with pytest.raises(ConfigurationError, match="settings mapping"):
        FaultSpec.from_dict({"kill_worker": 0.5})


def test_spec_from_file_errors(tmp_path) -> None:
    with pytest.raises(ConfigurationError, match="cannot read"):
        FaultSpec.from_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        FaultSpec.from_file(str(bad))


def test_spec_round_trips_through_to_dict() -> None:
    spec = FaultSpec.from_dict(DEFAULT_FAULT_SPEC)
    assert FaultSpec.from_dict(spec.to_dict()) == spec


def test_default_chaos_spec_names_every_site() -> None:
    spec = FaultSpec.from_dict(DEFAULT_FAULT_SPEC)
    assert set(spec.sites) == set(FAULT_SITES)


# ----------------------------------------------------------------------
# Injection decisions
# ----------------------------------------------------------------------


def _spec(**sites) -> FaultSpec:
    return FaultSpec.from_dict({"seed": 1234, **sites})


def test_decisions_are_deterministic_per_seed() -> None:
    spec = _spec(http_500={"rate": 0.5})
    first = [FaultInjector(spec).should("http_500") for _ in range(1)]
    # Two injectors built from the same spec take identical decision
    # sequences; a different seed diverges (200 fair-coin draws).
    a = FaultInjector(spec)
    b = FaultInjector(spec)
    assert [a.should("http_500") for _ in range(200)] == [
        b.should("http_500") for _ in range(200)
    ]
    other = FaultSpec.from_dict({"seed": 4321, "http_500": {"rate": 0.5}})
    c = FaultInjector(other)
    assert [a.should("http_500") for _ in range(200)] != [
        c.should("http_500") for _ in range(200)
    ]
    assert first in ([True], [False])  # smoke: the single-draw path works too


def test_keyed_decisions_fire_at_most_once_per_key() -> None:
    injector = FaultInjector(_spec(kill_worker={"rate": 1.0}))
    assert injector.should("kill_worker", key="job-a")
    assert not injector.should("kill_worker", key="job-a")
    assert injector.should("kill_worker", key="job-b")


def test_lifetime_max_caps_injections() -> None:
    injector = FaultInjector(_spec(http_500={"rate": 1.0, "max": 2}))
    fired = [injector.should("http_500") for _ in range(10)]
    assert fired.count(True) == 2
    assert injector.counts["http_500"] == 2


def test_unconfigured_site_never_fires() -> None:
    injector = FaultInjector(_spec(http_500={"rate": 1.0}))
    assert not injector.should("drop_peer")
    injector = FaultInjector(_spec(drop_peer={"rate": 0.0}))
    assert not injector.should("drop_peer")


def test_peer_delay_returns_configured_seconds() -> None:
    injector = FaultInjector(_spec(delay_peer={"rate": 1.0, "seconds": 0.25}))
    assert injector.peer_delay() == 0.25
    assert FaultInjector(_spec()).peer_delay() == 0.0


def test_bind_metrics_mirrors_injection_counts() -> None:
    registry = MetricsRegistry()
    injector = FaultInjector(_spec(http_500={"rate": 1.0, "max": 3}))
    injector.bind_metrics(registry)
    for _ in range(5):
        injector.should("http_500")
    counter = registry.counter(
        "repro_faults_injected_total",
        "Faults injected by the chaos harness, by site",
        labelnames=("site",),
    )
    assert counter.labels("http_500").value == 3


def test_a_served_spec_is_the_installed_injector() -> None:
    """The server config holds the decoded spec (the CLI decodes ``--faults``
    before serving), and the server installs it process-wide."""
    spec = FaultSpec.from_dict({"seed": 9, "http_500": {"rate": 1.0}})
    try:
        service = ReproService(ServiceConfig(port=0, cache_dir=None, faults=spec))
        assert get_injector().spec is spec
        assert get_injector().should("http_500")
        assert service.metrics.series("repro_faults_injected_total")
    finally:
        install(None)
    assert get_injector() is None


# ----------------------------------------------------------------------
# Chaos harness configuration
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"shards": 0},
        {"submissions": 0},
        {"clients": 0},
        {"max_error_rate": 1.5},
        {"max_error_rate": -0.1},
    ],
)
def test_chaos_config_rejects_bad_settings(overrides) -> None:
    with pytest.raises(ConfigurationError):
        ChaosConfig(**overrides)


def test_chaos_cli_verb_is_wired() -> None:
    from repro.exp.cli import build_parser, run_chaos_command

    args = build_parser().parse_args(
        ["chaos", "--no-restart", "--submissions", "5", "--seed", "3"]
    )
    assert args.handler is run_chaos_command
    assert args.no_restart is True
    assert args.submissions == 5
