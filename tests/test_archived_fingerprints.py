"""Stored records stay addressable: pinned fingerprints and old headers.

A :class:`~repro.store.ResultStore` files every trial under the workload's
``ScenarioSpec.fingerprint()``, and a shard header stores ``spec.to_dict()``
so ``repro store ls``/``repro analyze fit`` can rebuild the spec later.  A
change that moved a fingerprint would orphan every archive written before
it, so this module pins the fingerprint of every registered scenario and of
every unit of the ``full-paper``, ``bounds`` and ``asymptotics`` campaigns.

Headers written while specs carried a ``backend`` field (every ``event/*``
and ``asymptotics`` shard, and any run given ``--backend``) must rebuild to
the same fingerprint: the key is ignored on load, because each engine has
one eliminator on every field and the backend never changed a result.
"""

from __future__ import annotations

import pytest

from repro.campaigns import get_campaign
from repro.scenarios import ScenarioSpec, get_scenario, scenario_names

#: Registered scenario name -> fingerprint.
SCENARIO_FINGERPRINTS = {
    "churn/async-complete-blackout": (
        "107245f272e4d1e8109a7f5feb6fc25d518100f276a19e9f6ad952a078c07d1d"
    ),
    "churn/ring-crash-restart": (
        "4a7074bb767ae2c58ef6a8e2193fd6f465a2c0b311e17c5d522baf897f847523"
    ),
    "churn/ring-reset": (
        "3f94ee5a1b80ce9b8c0b94dd5147f8ce119e8bdc42bd597ce91279e2d07cf06f"
    ),
    "churn/tag-brr-barbell": (
        "b7a99c53ede5f146d77bf324359e418d3ab9882808a8becd63b7e86a348b5eff"
    ),
    "event/er-logn": (
        "9230bf47eac3534655edd4a053020f46c1d83ae36c0693c113de307eb60f4095"
    ),
    "event/ring-of-cliques": (
        "76d1d4eedd00c0c439f45baeb506e7d0a8a09ba9a0d88c220083078e7d01c802"
    ),
    "hetero/churned-two-speed-complete": (
        "76682a7a7ade44ba2367a3d26e2ab99dec5475f7824496f6f1a6ae2672640623"
    ),
    "hetero/degree-star": (
        "ab667a08c5f509d5d45ef8b6431a7a3f8661439681c3755ecdaaea721b87dfe5"
    ),
    "hetero/two-speed-ring": (
        "aa9f87515ee6afd634d5b406ff51c23f67fbc5addbfd7812e272c5c39e492351"
    ),
    "robustness/lossy-grid": (
        "6aa4fe6a2a9b48a09f5a7ae3834df676b6075ef50ab7aa797d1e90e9fbf59f4e"
    ),
    "tag/brr-barbell": (
        "c781bac2c1eccf5118c1c4e1bd74d78169c56de8734a7c2cc985d6ab7c5cf0b8"
    ),
    "tag/brr-barbell-async": (
        "f4a7e7adbbe4f206b633edbd538777cb46acf5d762d588f1451bbe3271fc457d"
    ),
    "tag/brr-grid": (
        "f9918be406c2e25e47a28caa9897eb6f18d55a84afe991679868c0d4eeba4d99"
    ),
    "tag/is-barbell": (
        "af20578e8033b6cd1627b988eb97230509c4353fc807c64a2dc02ecf74efaeba"
    ),
    "tag/is-clique-chain": (
        "1b33909a5be0bbf86b260b59a9dea64df818380cdb3ebacc8ec8cd3f36a4b385"
    ),
    "tag/uniform-broadcast-barbell": (
        "40e6a46a29112d1e1bc8a89cb5ed2ffe55aac07bb36604c4abf59f2bc1403d0f"
    ),
    "tree/brr-broadcast-barbell": (
        "968072a3b429ec0118eb7beba9d5688a4ca8c62c7184eea7219db10b1595b8e6"
    ),
    "tree/is-clique-chain": (
        "24cf9ca709f8e894a44cdba30b4eaa446f65b7ca2fa70f2e115a550efaee196d"
    ),
    "uniform/barbell": (
        "56af7807dfe17ae1fd6b97c7c6c07cbddd4fb1ed9d76ed00f9282be67f0fb6e5"
    ),
    "uniform/barbell-worst-case": (
        "bb31853fd516ff4636dae08dae9e5bb0791d1bc2da888d5f1ecf89560ae75b21"
    ),
    "uniform/binary_tree": (
        "58961661305387921e0fdae0c9f20b19ba6b4b3e9ea460bfa49e7aeacf35dcdf"
    ),
    "uniform/complete": (
        "ae12a6ff9d61c45c0b17d8b13f230ed3bb5609c4858f20e8edaa35486ff4a084"
    ),
    "uniform/grid": (
        "b8ab55505e5b82b91a24320cffd42f002830ca5adce998ed3d1d0b2b30a5f27f"
    ),
    "uniform/line": (
        "a2de43ba5c0fe010d9a2da94dffc94c6afd81e6c9b1eaf5bf973f5878da49085"
    ),
    "uniform/ring": (
        "1d4ab5239c3ef83192eee8db28acc30070afc555a5735454d0a674b47ec2f35e"
    ),
    "uniform/ring-all-to-all": (
        "b96a6270ceda3cb5091708fe4784b982b7dbc5f52bd64f8ba6d9b1d27784b559"
    ),
}

#: ``full-paper`` campaign unit -> fingerprint.
FULL_PAPER_FINGERPRINTS = {
    "table1/brr-barbell": (
        "c781bac2c1eccf5118c1c4e1bd74d78169c56de8734a7c2cc985d6ab7c5cf0b8"
    ),
    "table1/brr-barbell-async": (
        "f4a7e7adbbe4f206b633edbd538777cb46acf5d762d588f1451bbe3271fc457d"
    ),
    "table1/brr-grid": (
        "f9918be406c2e25e47a28caa9897eb6f18d55a84afe991679868c0d4eeba4d99"
    ),
    "table1/is-barbell": (
        "af20578e8033b6cd1627b988eb97230509c4353fc807c64a2dc02ecf74efaeba"
    ),
    "table1/is-clique-chain": (
        "1b33909a5be0bbf86b260b59a9dea64df818380cdb3ebacc8ec8cd3f36a4b385"
    ),
    "table1/uniform-barbell": (
        "56af7807dfe17ae1fd6b97c7c6c07cbddd4fb1ed9d76ed00f9282be67f0fb6e5"
    ),
    "table1/uniform-binary_tree": (
        "58961661305387921e0fdae0c9f20b19ba6b4b3e9ea460bfa49e7aeacf35dcdf"
    ),
    "table1/uniform-broadcast-barbell": (
        "40e6a46a29112d1e1bc8a89cb5ed2ffe55aac07bb36604c4abf59f2bc1403d0f"
    ),
    "table1/uniform-complete": (
        "ae12a6ff9d61c45c0b17d8b13f230ed3bb5609c4858f20e8edaa35486ff4a084"
    ),
    "table1/uniform-grid": (
        "b8ab55505e5b82b91a24320cffd42f002830ca5adce998ed3d1d0b2b30a5f27f"
    ),
    "table1/uniform-line": (
        "a2de43ba5c0fe010d9a2da94dffc94c6afd81e6c9b1eaf5bf973f5878da49085"
    ),
    "table1/uniform-ring": (
        "1d4ab5239c3ef83192eee8db28acc30070afc555a5735454d0a674b47ec2f35e"
    ),
    "table1/uniform-ring-all-to-all": (
        "b96a6270ceda3cb5091708fe4784b982b7dbc5f52bd64f8ba6d9b1d27784b559"
    ),
    "table2/uniform-binary_tree": (
        "1fbdffa305a1f223413fb1db509c3198ebdd4693222ad137da9163aee97df6b8"
    ),
    "table2/uniform-grid": (
        "bf5421eba7e665de1c6c9f9b6589a558455e23cc8ea661c208d91ba4ffee6843"
    ),
    "table2/uniform-line": (
        "5ac19d1106374d1b430c27aa94ec358a25ab7a2047736e3bfcff9e4782718e2c"
    ),
    "theorem2/ring-all-to-all": (
        "b96a6270ceda3cb5091708fe4784b982b7dbc5f52bd64f8ba6d9b1d27784b559"
    ),
    "theorem2/uniform-grid-gf2": (
        "bc807294101d7a47afacd7de2a4e7ed0e16a765b75eb6ff6d7cc433fa0c8cf2a"
    ),
    "theorem2/uniform-ring-gf2": (
        "f6b1655e8613af22a383967547fdf0f351350de0b13d46e025f8fac31f8e00b7"
    ),
    "theorem5/brr-barbell-asynchronous": (
        "54c4162b39697c92ac638367116f6229082dd9acad27ba1b32cafdccc594e9bc"
    ),
    "theorem5/brr-barbell-synchronous": (
        "aaa87730410fdc6c9a71512294bc65ad8e47a35cd63d1728709c578621ef75b3"
    ),
    "theorem5/brr-binary_tree-asynchronous": (
        "31ec857c7773fd400e1b37f03b26869b882b771d4c97388b00e40ebc5fd11ec3"
    ),
    "theorem5/brr-binary_tree-synchronous": (
        "61e667bb5b20d9d48084012733a0ab5ade87c601f59a9f3042a8b62da6bb5f11"
    ),
    "theorem5/brr-complete-asynchronous": (
        "38e83ace898bffd6597edcfdbe086f355b92e882ae81605810323580d9fc5812"
    ),
    "theorem5/brr-complete-synchronous": (
        "06c82c2b0d4d640f05dc1e35e475f9558668a7d390123b91f294cf11a439fff3"
    ),
    "theorem5/brr-grid-asynchronous": (
        "89569205304659c3ce9a4536de8b2ad399e964e50153229dc815dac24ebaa065"
    ),
    "theorem5/brr-grid-synchronous": (
        "555ab9439130179d94587a15faf18f306e7038dd7cb49f9cb7791b1ae26582c9"
    ),
    "theorem5/brr-line-asynchronous": (
        "b2bb4797cad13650c84d6394338b746caeb9893d33bdc993a604d82608cf3705"
    ),
    "theorem5/brr-line-synchronous": (
        "bfec2570a3e2226c937112b1876547133017f114a78de123a958d33d33444df1"
    ),
    "theorem5/is-clique-chain": (
        "24cf9ca709f8e894a44cdba30b4eaa446f65b7ca2fa70f2e115a550efaee196d"
    ),
}

#: ``bounds`` campaign unit -> fingerprint.  A unit naming a registered
#: scenario carries that scenario's pin, so it shares the records ``table1``
#: and ``full-paper`` archive for it; the five inline variants are new.
BOUNDS_FINGERPRINTS = {
    **{
        unit: SCENARIO_FINGERPRINTS[scenario]
        for unit, scenario in (
            ("uniform-line", "uniform/line"),
            ("uniform-grid", "uniform/grid"),
            ("uniform-complete", "uniform/complete"),
            ("uniform-binary_tree", "uniform/binary_tree"),
            ("ring-k8", "uniform/ring"),
            ("ring-k16", "uniform/ring-all-to-all"),
            ("brr-barbell", "tag/brr-barbell"),
            ("uniform-broadcast-barbell", "tag/uniform-broadcast-barbell"),
            ("brr-grid", "tag/brr-grid"),
            ("is-barbell", "tag/is-barbell"),
            ("is-clique-chain", "tag/is-clique-chain"),
            ("uniform-barbell-n12", "uniform/barbell-worst-case"),
        )
    },
    "ring-k2": (
        "42bde56c98301e9ab790e179b2d738729f06f8c2cc669883c0391c1f5be6c236"
    ),
    "ring-k4": (
        "e9c9d1b0a836e88ecd17c9d67d0685346840cd42277ea1133d4bc8fa23314326"
    ),
    "brr-barbell-n8": (
        "89665566db3d1fd6976a33fcecf82d931e1dfbf0cb7284b1d264d79a5d060a04"
    ),
    "brr-barbell-n24": (
        "0096ddaba3821b2452fbd6af210f9bc0ee626775537441d13113394454149afa"
    ),
    "brr-barbell-n12": (
        "2527e460228db196a1573cf2fe22c387d96a2d27e25489257e27680852c45fdf"
    ),
}

#: ``asymptotics`` campaign unit -> fingerprint.
ASYMPTOTICS_FINGERPRINTS = {
    "er-logn-n1000": (
        "a7fe64361603372520e72905014c2cddf7e0d1b36388c136c562830c6910abc5"
    ),
    "er-logn-n10000": (
        "5f3859aa76f5a21fbf813dc6e400b87647da037c531dcc6df3f5a904c0909bdc"
    ),
    "ring-of-cliques-n100": (
        "7c99789e19dccaf78cb58798f7653273d50b7e668583d491f8968795d0fb45fb"
    ),
    "ring-of-cliques-n1000": (
        "e557e8858b93cfb1e0bc0f7ba0bec0234e249fe5b708f3f8372b9f121f9ff9b2"
    ),
}


def _retired_backend(spec: ScenarioSpec) -> str:
    """The backend an old header could name for this spec (gf2bit was GF(2)-only)."""
    return "gf2bit" if spec.config.field_size == 2 else "numpy"


def _assert_addressable(spec: ScenarioSpec, fingerprint: str) -> None:
    assert spec.fingerprint() == fingerprint
    assert ScenarioSpec.from_dict(spec.to_dict()).fingerprint() == fingerprint
    header = dict(spec.to_dict(), backend=_retired_backend(spec))
    assert ScenarioSpec.from_dict(header).fingerprint() == fingerprint


@pytest.mark.parametrize("name", sorted(SCENARIO_FINGERPRINTS))
def test_registered_scenario_keeps_its_fingerprint(name):
    _assert_addressable(get_scenario(name), SCENARIO_FINGERPRINTS[name])


@pytest.mark.parametrize(
    "campaign,unit",
    [("full-paper", unit) for unit in sorted(FULL_PAPER_FINGERPRINTS)]
    + [("bounds", unit) for unit in sorted(BOUNDS_FINGERPRINTS)]
    + [("asymptotics", unit) for unit in sorted(ASYMPTOTICS_FINGERPRINTS)],
)
def test_campaign_unit_keeps_its_fingerprint(campaign, unit):
    pinned = {
        "full-paper": FULL_PAPER_FINGERPRINTS,
        "bounds": BOUNDS_FINGERPRINTS,
        "asymptotics": ASYMPTOTICS_FINGERPRINTS,
    }[campaign]
    _assert_addressable(get_campaign(campaign).resolved_specs()[unit], pinned[unit])


def test_every_registered_workload_is_pinned():
    """A new scenario or campaign unit gets its fingerprint pinned here too."""
    assert sorted(scenario_names()) == sorted(SCENARIO_FINGERPRINTS)
    assert sorted(get_campaign("full-paper").resolved_specs()) == sorted(
        FULL_PAPER_FINGERPRINTS
    )
    assert sorted(get_campaign("bounds").resolved_specs()) == sorted(
        BOUNDS_FINGERPRINTS
    )
    assert sorted(get_campaign("asymptotics").resolved_specs()) == sorted(
        ASYMPTOTICS_FINGERPRINTS
    )
