"""Golden byte pins for everything computed *from* an artifact.

The analysis path may change how it reads a cbr chunk; nothing it prints
may move.  One two-week archive (a fault-free week and a chaos week, 100
toplist + 700 CZDS domains each, merged by frame copy) is analysed
through every reading surface — ``repro analyze`` (all sections, each
``--section``, three ``--where`` filters) over the ``.cbr`` and over its
``repro convert``ed ``.jsonl``, ``repro query domain``, the week files
``WeekIndexer.fold_pending`` writes, and ``GET /v1/analyze`` — and each
output is compared by sha256.
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
#: the change under test.
GOLDEN = {
    "archive.cbr": "a8f0c2bbf0fa123b0c33a9786f150431b15cb5f540221b36d62eb48bd0d0f997",
    "analyze-all": "fe77eae9815fdd0f02c5d43db854a265ae61f4b4616008634116511bf5f0cf89",
    "analyze-orgs": "b2e5f4660141b8520ef59f5fb9259b7c04b2d79251336fdb92bcde0f974359b3",
    "analyze-webservers": "3c3c4b98359cee66080f322b4aed2208cb7bb2fe445a25cec5f3c22fca9d4076",
    "analyze-accuracy": "794e81caf1454884ede0ff606b7979e114e5399c8fce79b43e62258c2fadf1c8",
    "analyze-versions": "fac5d47f6b36cd755d575d383170d416e8484ab4a3e6a772bc379e0d80a63b8e",
    "analyze-filters": "f9fe9276079b35b51b3635b21af1864091d49d85529452842b53c174a4a146c6",
    "analyze-failures": "39bbea208df8775912d8228a92bcf4f6bda30cb8f294b82bdab2bba2e8120cc4",
    "where-week": "a48f1eb7dfc52c567baed220919e52a0bcef0ce7c20d1948eeb71bdab94f5557",
    "where-provider-failure": "f0d6baddbf26c9d957acc5db2886fe2a1594421496eb85e688e7db61c076e45b",
    "where-edges": "a51153bf933c9ee385afe5daa55ce9f5f01a06b200eb6588495e6b61fbed2d22",
    "query-domain": "2be5423fbf206a2134c44789a806992b5417e8a3c1a61996213f9ada4765c8fe",
    "index/ledger.json": "885e7c7ada7069d59d06c8b5e91e4f102276dd5eb9c442b5ac967d1bc367778a",
    "index/week-cw20-2023.json": "cbc6cfbc4853ef37e69c226ecc3278095db0411687d55ed2e94f295a307571d2",
    "index/week-cw21-2023.json": "e753c2f7a60fefa287f07e0645080075acafec3b1cbea17f9d7fa77e072ef2b9",
    "api-analyze-filters": "39d9cba2a9b06255692967736d9c1b85d0e9afa935f127b54c175d6018c14edb",
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

    seen = {"archive.cbr": _sha256(cbr.read_bytes())}
    commands = {f"analyze-{section}": ["--section", section] for section in SECTIONS}
    commands.update({f"where-{name}": ["--where", where] for name, where in WHERES.items()})
    for name, options in commands.items():
        seen[name] = _stdout(["analyze", cbr, *options])
        assert _stdout(["analyze", jsonl, *options]) == seen[name], name
    seen["query-domain"] = _stdout(["query", "domain", QUERY_DOMAIN, cbr])
    assert _stdout(["query", "domain", QUERY_DOMAIN, jsonl]) == seen["query-domain"]
    for path in sorted((service_dir / "index").glob("*.json")):
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
