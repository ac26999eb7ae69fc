"""Golden CLI outputs: SHA-256 digests of the bytes each command prints or writes.

A refactor that must not change behaviour keeps every digest.  The
digests cover a generated instance, ``run --json --events`` for every
selection, ``verify`` of each of those logs, and a two-cell bench CSV.
At the benchmark's battery scale (n=1000, E=T=1000) they also cover, per
mu, the generated instance, ``run mtf --json --events``, its event log and
``verify`` of that log.
When a change alters an output on purpose, the new digest goes here with
the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from rentsim.cli import main

SELECTIONS = ("nf", "mnf", "ff", "mff", "bf", "harmonic:10", "mtf")

GENERATE_ARGV = ["generate", "uniform", "--n", "60", "--e", "10", "--t", "40",
                 "--mu", "4", "--seed", "1"]
BENCH_ARGV = ["bench", "--strategies", "nf,mtf", "--n", "60", "--e", "10", "--t", "40",
              "--mu", "2", "--mu", "4", "--trials", "3", "--seed-base", "1"]

# recorded at a624e9f
GOLDEN = {
    "generate":
        "c60925f2826f6b2f0c2b20f6dc71f05039221c6b97ea794c0c5b5c04ea225613",
    "run nf":
        "e2aa69af9db175c1d409333727bb65a9511e562fb2bff6063f52ef3f9d37bc0e",
    "events nf":
        "7cfb5a9ecefbae1674308560c6e44217ef1bafc9fe66250d9b00e6223e20b945",
    "verify nf":
        "dd49e250a329b8d55ddd0198e222dc7baf3586a65eeec4ae669a982dc926f969",
    "run mnf":
        "28f4e11841518a8a8a31bf5bc5ca013ff3a12b152c678c91db58399023c3cee2",
    "events mnf":
        "8563159a8a9b5b29253c8d2b0b066c9512d9062f81fff1de2f5dd9ba0c2bf841",
    "verify mnf":
        "32ad4b237b8aa3b8580ab38a81cfb641458e7bc67d9be3c5a864d71dea4b6714",
    "run ff":
        "13d670b8439286c1adcc939b076f733428dadba314ce21e1580e7f11dfc65960",
    "events ff":
        "f0361a3590739d8ec4943d2b97d78009c6834359a16ce87cb2a6684f8a8daa35",
    "verify ff":
        "23e2a824fdde30e2b103a66e2f7d0a640a2e1933165168596fa4cd5859868ade",
    "run mff":
        "f8becf532dc91c3d86300ba060697a3f875c0878ccc1ead65fa5edaea0768220",
    "events mff":
        "f0361a3590739d8ec4943d2b97d78009c6834359a16ce87cb2a6684f8a8daa35",
    "verify mff":
        "23e2a824fdde30e2b103a66e2f7d0a640a2e1933165168596fa4cd5859868ade",
    "run bf":
        "5434897d318a22434400df504c25815b5444850bdc215171b18efbb8265d9627",
    "events bf":
        "169eca3ddda527c29713b1d64230a5e73177a9359d169cf9b471040ad45d79d4",
    "verify bf":
        "24e175d2f98203bd0fa4553cbbd38f303ac871a800e00faa56973e9e1c9a541b",
    "run harmonic:10":
        "b251e364c6285a03895a525c10c83a69aa6c8b24afb0e60998ed043c7bcb8bb0",
    "events harmonic:10":
        "199c34413bdfcd8934b942334d3cbc58ac82ccf292f32d642c5ed105dc240993",
    "verify harmonic:10":
        "c16351642708ad7048ff73be0d54c211f2ae28c7c4e96cb21d2f0f377196ad4f",
    "run mtf":
        "c4ab581528b458eff1cc5ff2ac61f9a282fd6768083c7523ab81ec63954bca6e",
    "events mtf":
        "e87a6588021c745b45ef2a4e47181e0dc5f0651455865499b67d848a50142837",
    "verify mtf":
        "96d3c12ecf548346c1565cf461ca956f0ca40332facc05d7e2cdaa039bf01229",
    "bench":
        "f5f28ca47f26ee716264cd6f258f6a93950aa638e6ace0f81a64ca286bb0f4d4",
}


# battery-scale instances, one per mu; recorded at eac9ffb
BATTERY_MUS = (2, 10, 100)
BATTERY_GOLDEN = {
    2: {"generate": "cdadfaa616b0dbb0c0d7b9567fc9c556792477325db97b2b43662378a1668667",
        "run": "ff74689f46a7d8040f877bb0e6f02a14f0f3cc54afae7a304fed772d5ff16db3",
        "events": "4677bc177501054d00618d8bc734cf3cda1ff9f1384075de388ec80f451e4cba",
        "verify": "9d6e9453ee40eb02da02060bbf0708c0d45dba124dbc3516842d813890b46c58"},
    10: {"generate": "a6ef9f275b49df131a6d58871033e437140b1a3ff49ea182ecd9d24c277442a9",
         "run": "c7e4148fe03f6348327ff1ad315bef05fe27999f841c520ff69b158c3d11c9e5",
         "events": "9395e52fa4532897834d3a601c92354552faea1c310438b707c63b53e827d2fe",
         "verify": "18313fb1f84418879ecbed6295529af338d41745f4ff04367b727ac411481456"},
    100: {"generate": "459d8b55f2462e43e2b675066663dc251b0ed5c5b0510d0ad7d6f48c72333be9",
          "run": "ba75c40ff197437e798d050d23a7a083f2b972029bc4bc2bc6fec404f86e5c0b",
          "events": "d36189f6634a87d079836c54dadbc06621f71148af8e99f936172c088fc22249",
          "verify": "ff080444d56b5407b2950204b3ad0bd5d186d36540bce7658f4665f48231074c"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def seq_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "seq.csv"
    assert _cli([*GENERATE_ARGV, "--out", path])[0] == 0
    return path


def test_generate_uniform_matches_its_digest(seq_path):
    assert _sha(seq_path.read_bytes()) == GOLDEN["generate"]


@pytest.mark.parametrize("selection", SELECTIONS)
def test_run_and_verify_match_their_digests(seq_path, tmp_path, selection):
    ev_path = tmp_path / "events.csv"
    code, out = _cli(["run", selection, seq_path, "--json", "--events", ev_path])
    assert code == 0
    got = {"run": _sha(out), "events": _sha(ev_path.read_bytes())}
    code, out = _cli(["verify", seq_path, ev_path])
    assert code == 0
    got["verify"] = _sha(out)
    assert got == {kind: GOLDEN[f"{kind} {selection}"]
                   for kind in ("run", "events", "verify")}


def test_bench_csv_matches_its_digest(tmp_path):
    out = tmp_path / "bench.csv"
    assert _cli([*BENCH_ARGV, "--out", out])[0] == 0
    assert _sha(out.read_bytes()) == GOLDEN["bench"]


@pytest.mark.parametrize("mu", BATTERY_MUS)
def test_battery_scale_mtf_run_and_verify_match_their_digests(tmp_path, mu):
    seq_path, ev_path = tmp_path / "seq.csv", tmp_path / "events.csv"
    assert _cli(["generate", "uniform", "--n", 1000, "--e", 1000, "--t", 1000,
                 "--mu", mu, "--seed", 1, "--out", seq_path])[0] == 0
    got = {"generate": _sha(seq_path.read_bytes())}
    code, out = _cli(["run", "mtf", seq_path, "--json", "--events", ev_path])
    assert code == 0
    got["run"] = _sha(out)
    got["events"] = _sha(ev_path.read_bytes())
    code, out = _cli(["verify", seq_path, ev_path])
    assert code == 0
    got["verify"] = _sha(out)
    assert got == BATTERY_GOLDEN[mu]
