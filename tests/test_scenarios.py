"""Tests for the declarative scenario layer (repro.scenarios)."""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignSpec, CampaignUnit, run_campaign
from repro.cli import main
from repro.core import SimulationConfig, TimeModel
from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIOS,
    MaterializedScenario,
    ScenarioSpec,
    default_scenario_config,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.store import ResultStore

_FAST = default_scenario_config()


class TestJsonRoundTrip:
    """spec → dict → JSON → spec must be the identity, for every axis."""

    SPECS = {
        "defaults": ScenarioSpec(),
        "uniform": ScenarioSpec(topology="grid", n=20, k=5, seed=3, trials=7),
        "tag": ScenarioSpec(
            topology="clique_chain",
            n=16,
            protocol="tag",
            spanning_tree="is",
            topology_params={"cliques": 4},
            keep_phase1_after_tree=False,
            config=_FAST,
        ),
        "tree": ScenarioSpec(
            topology="barbell", n=12, protocol="spanning_tree", spanning_tree="brr"
        ),
        "placement": ScenarioSpec(
            topology="ring", n=10, k=3, placement="single_source",
            placement_params={"source": 4},
        ),
        "churn": ScenarioSpec(
            topology="ring",
            n=12,
            config=_FAST.replace(churn=((2, 3, 8), (5, 1, 4))),
        ),
        "churn-reset": ScenarioSpec(
            topology="ring",
            n=12,
            config=_FAST.replace(churn=((2, 3, 8),), churn_reset=True),
        ),
        "hetero": ScenarioSpec(
            topology="ring",
            n=12,
            activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.25},
            config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
        ),
        "named": ScenarioSpec(name="t/x", description="a test scenario"),
    }

    @pytest.mark.parametrize("key", sorted(SPECS))
    def test_round_trip(self, key):
        spec = self.SPECS[key]
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_is_plain_data(self):
        document = self.SPECS["churn"].to_json()
        assert isinstance(json.loads(document), dict)

    def test_defaults_serialise_empty(self):
        assert ScenarioSpec().to_dict() == {}

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"mystery": 1})

    def test_config_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig.from_dict({"mystery": 1})

    @pytest.mark.parametrize("key,value", [("seed", 99), ("extra", {"tree": "brr"})])
    def test_config_seed_and_extra_are_refused(self, key, value):
        # Neither knob reached a result, yet either moved the fingerprint
        # (and so the store shard); trials derive from the plan's seed.
        message = f"unknown SimulationConfig fields \\['{key}'\\]"
        with pytest.raises(ConfigurationError, match=message):
            SimulationConfig.from_dict({key: value})
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"config": {key: value}})
        with pytest.raises(TypeError):
            SimulationConfig(**{key: value})

    def test_config_round_trip(self):
        config = _FAST.replace(
            churn=((1, 2, 3),),
            time_model=TimeModel.ASYNCHRONOUS,
            activation_rates=(1.0, 2.0),
            loss_probability=0.1,
        )
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("[1, 2]")

    def test_documents_naming_a_backend_still_load(self, tmp_path):
        """Shard headers and campaign files written while specs carried a
        ``backend`` field rebuild to the workload they always addressed."""
        from repro.campaigns import CampaignSpec
        from repro.store import ResultStore

        config = {
            "field_size": 2,
            "max_rounds": 50000,
            "payload_length": 2,
            "time_model": "asynchronous",
        }
        header = {
            "backend": "gf2bit",
            "config": config,
            "engine": "event",
            "k": 8,
            "n": 2048,
            "name": "event/er-logn",
            "topology": "erdos_renyi_logn",
            "trials": 3,
        }
        fingerprint = "9230bf47eac3534655edd4a053020f46c1d83ae36c0693c113de307eb60f4095"
        shard = tmp_path / "shards" / fingerprint[:2] / f"{fingerprint}.jsonl"
        shard.parent.mkdir(parents=True)
        shard.write_text(
            json.dumps({"fingerprint": fingerprint, "kind": "spec", "spec": header})
            + "\n"
        )
        rebuilt = ResultStore(tmp_path).spec(fingerprint)
        assert rebuilt.fingerprint() == fingerprint
        assert rebuilt == get_scenario("event/er-logn").replace(description="")

        unit = {
            "name": "er-logn-n1000",
            "record": "summary",
            "spec": {
                "backend": "gf2bit",
                "config": config,
                "engine": "event",
                "k": 8,
                "n": 1000,
                "topology": "erdos_renyi_logn",
                "trials": 3,
            },
        }
        campaign = CampaignSpec.from_dict({"name": "old", "units": [unit]})
        assert campaign.units[0].spec.fingerprint() == (
            "a7fe64361603372520e72905014c2cddf7e0d1b36388c136c562830c6910abc5"
        )
        # Only that one retired key is forgiven.
        with pytest.raises(ConfigurationError, match=r"fields \['mystery'\]"):
            ScenarioSpec.from_dict({"backend": "gf2bit", "mystery": 1})


    def test_documents_pinning_the_batch_engine_still_load(self, tmp_path, capsys):
        """Shard headers and campaign files written while TAG ran on the
        lockstep engine could pin ``engine: "batch"``; they load with the
        engine left to the rule, and a new spec still refuses the name."""
        spec = get_scenario("uniform/complete").replace(trials=2)
        store = ResultStore(tmp_path)
        expected = spec.materialize().measure(store=store)
        fingerprint = spec.fingerprint()
        [shard] = (tmp_path / "shards").glob("*/*.jsonl")
        header, *records = shard.read_text().splitlines()
        payload = json.loads(header)
        payload["spec"]["engine"] = "batch"
        shard.write_text("\n".join([json.dumps(payload), *records]) + "\n")

        rebuilt = ResultStore(tmp_path).spec(fingerprint)
        assert rebuilt.engine == ""
        assert rebuilt.fingerprint() == fingerprint
        assert rebuilt.materialize().measure(store=ResultStore(tmp_path)) == expected
        assert main(["store", "show", fingerprint[:12], "--store", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        assert '"engine": "batch"' in shown
        assert "seed 0: 2 trial(s) — mean=" in shown
        assert main(["store", "ls", "--store", str(tmp_path)]) == 0
        assert "uniform" in capsys.readouterr().out

        unit = {"name": "u", "spec": {"engine": "batch", "protocol": "tag"}}
        campaign = CampaignSpec.from_dict({"name": "old", "units": [unit]})
        assert campaign.units[0].spec == ScenarioSpec(protocol="tag")
        with pytest.raises(
            ConfigurationError, match=r"known: \['', 'event', 'scalar'\]"
        ):
            ScenarioSpec(engine="batch")


class TestValidation:
    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(topology="mystery")

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(protocol="mystery")

    def test_unknown_spanning_tree(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(protocol="tag", spanning_tree="mystery")

    def test_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(placement="mystery")

    def test_unknown_activation_kind(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(activation={"kind": "mystery"})

    def test_activation_params_without_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                activation={"ratio": 4.0, "fast_fraction": 0.5},  # forgot "kind"
                config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
            )

    def test_activation_requires_asynchronous(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(activation={"kind": "degree"})  # default config is sync

    def test_explicit_rates_length_checked_at_materialize(self):
        spec = ScenarioSpec(
            topology="ring",
            n=8,
            activation={"kind": "explicit", "rates": (1.0, 2.0)},
            config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
        )
        with pytest.raises(ConfigurationError):
            spec.materialize()

    def test_bad_trials(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(trials=0)


class TestMaterialize:
    def test_uniform_defaults(self):
        scenario = ScenarioSpec(topology="grid", n=16, k=4, config=_FAST).materialize()
        assert isinstance(scenario, MaterializedScenario)
        assert scenario.n == 16
        assert scenario.k == 4
        # k < n resolves the "auto" placement to spread: 4 distinct holders.
        assert len(scenario.placement) == 4
        assert "theorem1" in scenario.bounds and "theorem3" in scenario.bounds

    def test_all_to_all_when_k_omitted(self):
        scenario = ScenarioSpec(topology="ring", n=10, config=_FAST).materialize()
        assert scenario.k == 10
        assert all(len(v) == 1 for v in scenario.placement.values())

    def test_single_source_placement(self):
        scenario = ScenarioSpec(
            topology="ring", n=8, k=3, placement="single_source",
            placement_params={"source": 5}, config=_FAST,
        ).materialize()
        assert scenario.placement == {5: [0, 1, 2]}

    def test_multi_message_placements_keep_k_above_n(self):
        # single_source / random / adversarial_far hold several messages per
        # node, so k > n must survive materialisation un-clamped.
        scenario = ScenarioSpec(
            topology="ring", n=8, k=20, placement="single_source", config=_FAST
        ).materialize()
        assert scenario.k == 20
        assert scenario.placement == {0: list(range(20))}
        stats = scenario.run(trials=1)
        assert stats.trials == 1

    def test_spread_placements_still_clamp_k(self):
        assert ScenarioSpec(topology="ring", n=8, k=20, config=_FAST).materialize().k == 8

    def test_explicit_one_per_node_placements_reject_mismatched_k(self):
        # Explicit all_to_all demands k == n in either direction; explicit
        # spread rejects k > n.  Only "auto" keeps the historical clamp.
        for k in (5, 20):
            with pytest.raises(ConfigurationError):
                ScenarioSpec(
                    topology="ring", n=8, k=k, placement="all_to_all", config=_FAST
                ).materialize()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology="ring", n=8, k=20, placement="spread", config=_FAST
            ).materialize()
        assert (
            ScenarioSpec(
                topology="ring", n=8, k=8, placement="all_to_all", config=_FAST
            ).materialize().k
            == 8
        )

    def test_unknown_placement_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology="ring", n=8, k=3, placement="random",
                placement_params={"target": 3}, config=_FAST,
            ).materialize()
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology="ring", n=8, k=3, placement="single_source",
                placement_params={"mystery": 1}, config=_FAST,
            ).materialize()

    def test_random_placement_is_seed_deterministic(self):
        spec = ScenarioSpec(topology="ring", n=8, k=3, placement="random", config=_FAST)
        assert spec.materialize().placement == spec.materialize().placement
        other = spec.replace(seed=99).materialize().placement
        # Different seed, (almost surely) different placement; equality would
        # mean the placement ignored the seed, which is the actual bug guarded.
        assert other == spec.replace(seed=99).materialize().placement

    def test_two_speed_rates_resolved(self):
        scenario = ScenarioSpec(
            topology="ring",
            n=8,
            activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5},
            config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
        ).materialize()
        assert scenario.config.activation_rates == (4.0,) * 4 + (1.0,) * 4

    def test_degree_rates_resolved(self):
        scenario = ScenarioSpec(
            topology="star",
            n=5,
            activation={"kind": "degree"},
            config=default_scenario_config(time_model=TimeModel.ASYNCHRONOUS),
        ).materialize()
        assert scenario.config.activation_rates == (4.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(topology="ring", n=8, config=_FAST),
            *(
                ScenarioSpec(
                    topology="barbell", n=8, protocol="tag", spanning_tree=tree,
                    config=_FAST,
                )
                for tree in ("brr", "uniform_broadcast", "bfs_oracle", "is")
            ),
            ScenarioSpec(topology="barbell", n=8, protocol="spanning_tree"),
        ],
        ids=lambda spec: f"{spec.protocol}-{spec.spanning_tree}",
    )
    def test_engine_rule_matches_process_declaration(self, spec):
        # select_engine dispatches on the factory type without building a
        # process; this pins it to what each trial's process declares, so
        # the two can never drift.  Both engines run the process the
        # factory builds.
        from repro.core.rng import derive_rng

        scenario = spec.materialize()
        engine, _ = scenario.select_engine()
        process = scenario.protocol_factory(scenario.graph, derive_rng(0, "probe"))
        assert process.supports_event_engine() == (engine == "event")

    def test_engine_rule_exposed_and_gated(self):
        reset = _FAST.replace(churn=((2, 3, 5),), churn_reset=True)
        uniform = ScenarioSpec(topology="ring", n=8, config=_FAST)
        tag = ScenarioSpec(topology="barbell", n=8, protocol="tag", config=_FAST)
        assert uniform.materialize().select_engine()[0] == "event"
        assert uniform.replace(config=reset).materialize().select_engine()[0] == "event"
        assert tag.materialize().select_engine() == ("event", "auto: TAG")
        assert tag.replace(config=reset).materialize().select_engine() == (
            "event", "auto: TAG"
        )

    @pytest.mark.parametrize(
        "engine", ["", "scalar", "event"],
        ids=["default", "scalar", "event"],
    )
    def test_run_single_is_trial_zero_on_every_engine(self, engine, tmp_path):
        """Whichever engine the spec pins, ``run_single`` is trial 0 of the
        plan, persisted to and then served from the store."""
        from repro.store import ResultStore

        spec = get_scenario("uniform/ring").replace(trials=2, engine=engine)
        expected = spec.replace(engine="scalar").materialize().measure()[0]
        scenario = spec.materialize()
        store = ResultStore(tmp_path)
        assert scenario.run_single(store=store) == expected
        assert (store.hits, store.puts) == (0, 1)
        assert scenario.run_single(store=store) == expected
        assert (store.hits, store.puts) == (1, 1)


class TestRegistry:
    def test_names_are_sorted_and_nonempty(self):
        names = scenario_names()
        assert names == sorted(names)
        assert len(names) >= 20

    def test_register_requires_name_and_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            register_scenario(ScenarioSpec())
        first = next(iter(scenario_names()))
        with pytest.raises(ConfigurationError):
            register_scenario(SCENARIOS[first])

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            get_scenario("mystery/none")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_registered_scenario_materializes_and_runs(self, name):
        spec = get_scenario(name)
        assert spec.name == name
        assert spec.description
        # "CI-sized" means seconds per trial.  For the dense engines that
        # caps n at a few dozen; the event-driven engine's per-event cost
        # lets its large-n showcase entries carry thousands of nodes and
        # still run in about a second.
        ci_cap = 2048 if spec.engine == "event" else 32
        assert spec.n <= ci_cap, "registered scenarios must stay CI-sized"
        stats = spec.materialize().run(trials=1)
        assert stats.trials == 1
        assert stats.mean > 0


class TestSingleSpecDrivesEveryConsumer:
    """One spec → CLI, campaign, parallel and store-backed runs: identical numbers."""

    SPEC = ScenarioSpec(
        topology="barbell",
        n=12,
        protocol="tag",
        spanning_tree="brr",
        config=_FAST,
        trials=3,
        seed=41,
    )

    def test_runners_agree(self, tmp_path):
        scenario = self.SPEC.materialize()
        direct = scenario.run()
        parallel = scenario.run(jobs=2)
        stored = scenario.run(store=ResultStore(tmp_path / "store"))
        campaign = CampaignSpec(
            name="one-unit", units=(CampaignUnit(name="only", spec=self.SPEC),)
        )
        [unit] = run_campaign(campaign, store=ResultStore(tmp_path)).outcomes
        assert direct == parallel == stored == unit.stats
        assert scenario.run_single() == scenario.measure()[0]

    def test_cli_matches_library(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(self.SPEC.to_json(), encoding="utf-8")
        assert main(["scenario", "run", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert self.SPEC.materialize().run().summary() in out

    def test_scalar_engine_gives_same_numbers(self):
        scalar = self.SPEC.replace(engine="scalar").materialize()
        assert self.SPEC.materialize().run() == scalar.run()



class TestMaterializedLabel:
    def test_label_uses_materialized_sizes(self):
        # grid rounds 20 down to 16 nodes: the label must name the graph
        # actually measured.
        scenario = ScenarioSpec(topology="grid", n=20, config=_FAST).materialize()
        assert scenario.label == "grid(n=16, k=16)"


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "churn/ring-crash-restart" in out

    def test_show_json_round_trips(self, capsys):
        assert main(["scenario", "show", "hetero/two-speed-ring", "--json"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.from_json(out) == get_scenario("hetero/two-speed-ring")

    def test_show_resolves_names_dynamically(self, capsys):
        # Unknown names get the friendly registry error (exit 2), and
        # user-registered scenarios are showable just like built-ins.
        assert main(["scenario", "show", "mystery/none"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        mine = register_scenario(
            ScenarioSpec(name="test/showable", description="user scenario")
        )
        try:
            assert main(["scenario", "show", "test/showable", "--json"]) == 0
            assert ScenarioSpec.from_json(capsys.readouterr().out) == mine
        finally:
            SCENARIOS.pop(mine.name)

    def test_show_default_is_a_summary_not_json(self, capsys):
        assert main(["scenario", "show", "churn/ring-reset"]) == 0
        out = capsys.readouterr().out
        assert "churn:" in out and "reset mode" in out and "workload:" in out
        with pytest.raises(Exception):
            ScenarioSpec.from_json(out)

    def test_run_by_name(self, capsys):
        assert main(["scenario", "run", "uniform/ring", "--trials", "2"]) == 0
        assert "over 2 trials" in capsys.readouterr().out

    def test_run_single_trial_prints_metadata(self, capsys):
        assert main(["scenario", "run", "uniform/ring", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "completed after" in out and "protocol:" in out

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert main(["scenario", "run", "uniform/ring", "--file", "x.json"]) == 2

    def test_run_file_errors_are_friendly(self, tmp_path, capsys):
        assert main(["scenario", "run", "--file", str(tmp_path / "nope.json")]) == 2
        assert "error: cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["scenario", "run", "--file", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_show_spec_from_run_flags(self, capsys):
        assert main(["run", "--topology", "ring", "--n", "8", "--show-spec"]) == 0
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.topology == "ring" and spec.n == 8

    def test_run_title_reports_materialized_sizes(self, capsys):
        # grid rounds 18 down to 16 nodes and clamps k: the title must name
        # the workload actually simulated, not the requested flags.
        assert main(["run", "--topology", "grid", "--n", "18", "--k", "50"]) == 0
        assert "uniform on grid(n=16, k=16)" in capsys.readouterr().out

    def test_seed_override_rederives_random_placement(self, tmp_path, capsys):
        spec = ScenarioSpec(
            topology="ring", n=12, k=6, placement="random", config=_FAST, trials=1
        )
        path = tmp_path / "random.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        placements = set()
        for seed in ("1", "2"):
            assert main(["scenario", "run", "--file", str(path), "--seed", seed]) == 0
            placements.add(
                str(spec.replace(seed=int(seed)).materialize().placement)
            )
        assert len(placements) == 2  # --seed reached the placement draw

    def test_check_reports_broken_scenario_instead_of_dying(self, capsys):
        broken = register_scenario(
            ScenarioSpec(name="test/broken", description="always fails").replace(
                # Unknown churn node: engine construction raises at run time.
                config=_FAST.replace(churn=((99, 1, 5),))
            ),
            overwrite=True,
        )
        try:
            assert main(["scenario", "check", "--trials", "1"]) == 1
            out = capsys.readouterr().out
            assert "test/broken" in out and "FAIL" in out
            assert "uniform/ring" in out  # the rest of the registry still ran
        finally:
            SCENARIOS.pop(broken.name)
