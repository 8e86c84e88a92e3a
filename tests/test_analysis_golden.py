"""Golden byte pins for everything computed *from* an artifact.

The analysis path may change how it reads a cbr chunk; nothing it prints
may move.  One two-week archive (a fault-free week and a chaos week, 100
toplist + 700 CZDS domains each, merged by frame copy) is analysed
through every reading surface — ``repro analyze`` (all sections, each
``--section``, three ``--where`` filters), ``repro query domain``, the
week files ``WeekIndexer.fold_pending`` writes, and ``GET /v1/analyze``
— and exported as Appendix B JSONL by ``repro convert``; each output is
compared by sha256.
"""

import hashlib
import io
import threading
import urllib.request
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main
from repro.service import ServiceState, SpoolStore, WeekIndexer, build_server

from test_scan_golden import FAULTS

SECTIONS = ("all", "orgs", "webservers", "accuracy", "versions", "filters", "failures")
#: The grammar has no ``>=``; ``between`` with a bound past any edge
#: count is the same filter.
WHERES = {
    "week": "week == cw20-2023",
    "provider-failure": "provider in cloudflare,google and failure present",
    "edges": "edges between 3 and 100000",
}
QUERY_DOMAIN = "top0000036.com"

#: Digests recorded at 256dd08 — the commit before analysis moved from
#: record objects to cbr columns — by running exactly :func:`observe`.
#: Regenerate only from a commit whose output is known good, never from
#: the change under test.  Re-recorded once, on top of 57a25ca, with the
#: scan pins of ``tests/test_scan_golden.py``: the population moved to
#: per-block RNG streams, which moves the archive every digest reads.
#: ``QUERY_DOMAIN`` names a QUIC domain in both populations.
#: ``archive.jsonl`` (the Appendix B export, ``repro convert archive.cbr
#: archive.jsonl``) was recorded at f8b63c2, while JSONL was still read.
#: The two ``index/week-*`` files were re-recorded on top of ba2ba38: the
#: values of their ``domains`` map gained the behaviour bits
#: (``FLAG_SEEN_*``); every other key, and each value's two low bits,
#: is as before.  ``index/ledger.json`` was re-recorded when the ledger
#: lost its ``indent``: the same sorted fingerprints on one line.  The
#: two ``index/week-*`` files were re-recorded when the week files lost
#: their ``indent`` too: the same canonical state, parsed equal, on one
#: line.  The ledger pin became ``index/ledger.log`` when the ledger
#: became an appended log (one ``<fingerprint>\n`` line per fold, the
#: same one fingerprint); every file of the index is pinned, not only
#: the ``*.json`` ones.
GOLDEN = {
    "archive.cbr": "81cc561c60a38a7c34342143c866405464ed0ecd67486533abc3dabbc21719b3",
    "archive.jsonl": "33015a22baf289fb792bb87469687740c725cc74ece0f0e3cbac948391081347",
    "analyze-all": "edffb1d315b196a90824aa4b17aa50155e3fe17c89e916252ea2c72928b1c066",
    "analyze-orgs": "a3c14263e588a0678f716cb876ec691857e6af592900aa42b9d88a77bbb8911f",
    "analyze-webservers": "912a82208719c07504b8e8517cfbf4433dbefc71327fb5cb72231d77820cf509",
    "analyze-accuracy": "d4af96cdf86dd6516875ba65a92366b467280802cd0271616ed7d04d1d4940b6",
    "analyze-versions": "0b4248ffb9c9b653d438afd3e55d6e0a5b44a4adb423a1b90b334aeb56b26569",
    "analyze-filters": "4f7d1225c7c0e539672e84c38bc01a5e2682aecf71bd3bf489d88b79122a8d9c",
    "analyze-failures": "a53e64e9f4895fc07974fa43b319909d4bacf4f1ce77c7c0f1e58a9b55e02dff",
    "where-week": "52663b890c57fa4ef85322dcea6fd92bfe9afbd429fa1bfa856d15da2a112248",
    "where-provider-failure": "c3494177887ecb2f0f41edab9abea0249838a4f7031910654ecf9fc64c8601db",
    "where-edges": "d8e2e2c08be8935e84f72ad6ddf6d6334fbc7119adaeefe6624ee4db57062aec",
    "query-domain": "c06fc35d7ae6b72abd91fa0510f0d2c80c4a385d57870a79f5742924aaa81a89",
    "index/ledger.log": "5a7b7c33dad57d4ca514e944a631b8dc0a83bfbd1e944f6a5cd63cc58e7946d7",
    "index/week-cw20-2023.json": "d094d18c4b869bab789f88885ba3095a3ebbb2c19179595d9f3188bb5fa3d129",
    "index/week-cw21-2023.json": "8e7eef18d1afbca93975d911bfabd812bf5b840705d9478bf6ebf0ede0f3f388",
    "api-analyze-filters": "849d1d683b19e26855f56c70e02a4c46335ab993fbb31a9427cdd53f3f8cb8e1",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(command) -> str:
    """sha256 of what one CLI command prints to stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main([str(part) for part in command]) == 0
    return _sha256(out.getvalue().encode("utf-8"))


def _api_body(service_dir, path: str) -> bytes:
    state = ServiceState(
        SpoolStore(service_dir / "spool"), WeekIndexer(service_dir / "index")
    )
    server = build_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()


def observe(root) -> dict[str, str]:
    """Every pinned digest, keyed as in :data:`GOLDEN`."""
    shards = root / "shards"
    shards.mkdir()
    population = ["--czds", "700", "--toplist", "100"]
    _stdout(["scan", *population, "--week", "cw20-2023", "--out", shards / "shard-0.cbr"])
    _stdout(
        ["scan", *population, "--week", "cw21-2023", "--seed", "417",
         "--fault", FAULTS, "--connect-timeout-ms", "20000", "--retries", "1",
         "--out", shards / "shard-1.cbr"]
    )
    cbr = root / "archive.cbr"
    jsonl = root / "archive.jsonl"
    _stdout(["convert", shards, cbr])
    _stdout(["convert", cbr, jsonl])
    service_dir = root / "svc"
    _stdout(["service", "submit", "--dir", service_dir, cbr])

    seen = {
        "archive.cbr": _sha256(cbr.read_bytes()),
        "archive.jsonl": _sha256(jsonl.read_bytes()),
    }
    commands = {f"analyze-{section}": ["--section", section] for section in SECTIONS}
    commands.update({f"where-{name}": ["--where", where] for name, where in WHERES.items()})
    for name, options in commands.items():
        seen[name] = _stdout(["analyze", cbr, *options])
    seen["query-domain"] = _stdout(["query", "domain", QUERY_DOMAIN, cbr])
    for path in sorted((service_dir / "index").iterdir()):
        seen[f"index/{path.name}"] = _sha256(path.read_bytes())
    seen["api-analyze-filters"] = _sha256(
        _api_body(service_dir, "/v1/analyze?week=cw21-2023&section=filters")
    )
    return seen


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return observe(tmp_path_factory.mktemp("golden-analysis"))


def test_every_pin_was_observed(observed):
    assert sorted(observed) == sorted(GOLDEN)


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_analysis_bytes(name, observed):
    assert observed[name] == GOLDEN[name]
