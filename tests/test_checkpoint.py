"""Crash-safe campaign resume (repro.faults.checkpoint).

A checkpointed scan must (a) produce exactly the dataset of a
non-checkpointed run, (b) resume after a crash — including with a
different worker count — to the bit-identical merged result, (c) treat
damaged shards as "not scanned yet", and (d) keep two different scans
under one ``--checkpoint-dir`` apart: each scan's shards live in a
directory named by its identity and shard size.
"""

from __future__ import annotations

import io
import multiprocessing

import pytest
from conftest import scan_checkpoint

from repro.analysis.artifacts import record_to_dict
from repro.artifacts import open_record_batches
from repro.artifacts.cbr import read_footer, write_records_cbr
from repro.cli import main
from repro.faults import (
    BreakerPolicy,
    CheckpointError,
    CheckpointStore,
    ResilienceConfig,
    RetryPolicy,
    parse_fault_plan,
    scan_digest,
    scan_fingerprint,
)
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

# Faults + resilience on, so checkpoint shards round-trip the failure
# taxonomy (not just the happy-path record fields), and a breaker is
# configured to prove the breaker pass composes with resume.
CONFIG = ScanConfig(
    faults=parse_fault_plan("blackhole:0.05,reset:0.06,vn-failure:0.04"),
    resilience=ResilienceConfig(
        connect_timeout_ms=20_000.0,
        retry=RetryPolicy(max_attempts=2),
        breaker=BreakerPolicy(failure_threshold=4, cooldown_attempts=6),
    ),
)
CHUNK = 64
N_DOMAINS = 300


def _scanner(population, workers: int = 1) -> Scanner:
    return Scanner(
        population,
        CONFIG,
        parallel=ParallelScanConfig(workers=workers, chunk_size=CHUNK),
    )


def _dataset_dicts(dataset) -> list[dict]:
    rows = []
    for result in dataset.results:
        rows.append(
            {
                "domain": result.domain.name,
                "resolved": result.resolved,
                "quic_support": result.quic_support,
                "resolved_ip": str(result.resolved_ip) if result.resolved_ip else None,
                "failure": result.failure.value if result.failure else None,
                "connections": [record_to_dict(c) for c in result.connections],
            }
        )
    return rows


@pytest.fixture(scope="module")
def targets(tiny_population):
    return tiny_population.domains[:N_DOMAINS]


@pytest.fixture(scope="module")
def plain_dataset(tiny_population, targets):
    """The ground truth: the same scan without any checkpointing."""
    return _scanner(tiny_population).scan(domains=targets)


class TestCheckpointedScan:
    def test_equals_non_checkpointed_run(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        dataset = _scanner(tiny_population).scan(
            domains=targets, checkpoint_dir=tmp_path / "ckpt"
        )
        assert _dataset_dicts(dataset) == _dataset_dicts(plain_dataset)

    def test_writes_all_shards_under_the_scans_name(
        self, tiny_population, targets, tmp_path
    ):
        directory = tmp_path / "ckpt"
        scanner = _scanner(tiny_population)
        scanner.scan(domains=targets, checkpoint_dir=directory)
        fingerprint = scan_fingerprint(
            tiny_population.config.seed, "cw20-2023", 4, 0, targets,
            repr(scanner.config),
        )
        store = scan_checkpoint(directory)
        assert store.name == scan_digest({**fingerprint, "chunk": CHUNK})
        assert sorted(p.name for p in directory.iterdir()) == [store.name]
        shards = sorted(p.name for p in store.iterdir())
        expected = -(-len(targets) // CHUNK)  # ceil division
        assert len(shards) == expected
        assert shards[0] == "shard-00000.cbr"

    def test_full_resume_never_rescans(
        self, tiny_population, targets, plain_dataset, tmp_path, monkeypatch
    ):
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        # With every shard on disk, a resume must not scan one domain.
        scanner = _scanner(tiny_population)
        monkeypatch.setattr(
            scanner,
            "_scan_domain",
            lambda *a, **k: pytest.fail("resume re-scanned a completed shard"),
        )
        dataset = scanner.scan(domains=targets, checkpoint_dir=directory)
        assert _dataset_dicts(dataset) == _dataset_dicts(plain_dataset)


#: The exhaustive crash sweep runs 48 scans, so it gets a smaller target
#: list: five shards, the last one partial.
SWEEP_CHUNK = 16
SWEEP_DOMAINS = 70
SWEEP_SHARDS = 5


def _sweep_scanner(population, pool: bool) -> Scanner:
    return Scanner(
        population,
        CONFIG,
        parallel=ParallelScanConfig(
            workers=2 if pool else 1, chunk_size=SWEEP_CHUNK, force_pool=pool
        ),
    )


def _artifact_bytes(dataset) -> bytes:
    buffer = io.BytesIO()
    write_records_cbr(dataset.connection_records(), buffer)
    return buffer.getvalue()


def _shard_files(directory) -> dict[str, bytes]:
    """The shard files of the one scan checkpointed under ``directory``."""
    return {p.name: p.read_bytes() for p in directory.glob("*/shard-*.cbr")}


class TestCrashAndResume:
    def test_interrupted_scan_resumes_bit_identically(
        self, tiny_population, tmp_path
    ):
        """Every crash point, not a hand-picked one.

        For each shard ``k`` (and ``k = n_shards``: nothing fails),
        either its checkpoint save fails or its scan raises, inline and
        in a forced two-worker pool; the resume runs on the *other*
        executor.  Dataset, cbr artifact and every shard file must equal
        the uninterrupted run's, and exactly the shards that reached the
        disk are not scanned again.
        """
        targets = tiny_population.domains[:SWEEP_DOMAINS]
        with _sweep_scanner(tiny_population, pool=False) as scanner:
            reference = scanner.scan(domains=targets, checkpoint_dir=tmp_path / "ref")
        want_rows = _dataset_dicts(reference)
        want_artifact = _artifact_bytes(reference)
        want_shards = _shard_files(tmp_path / "ref")
        assert len(want_shards) == SWEEP_SHARDS
        forked = multiprocessing.get_start_method() == "fork"

        real_save = CheckpointStore.save_shard
        real_scan = Scanner.scan_shard
        for pool in (False, True):
            for failing in ("save", "scan"):
                if pool and failing == "scan" and not forked:
                    continue  # a patched scan_shard reaches only forked workers
                for k in range(SWEEP_SHARDS + 1):
                    case = f"pool={pool} failing={failing} k={k}"
                    directory = tmp_path / f"ckpt-{pool}-{failing}-{k}"
                    doomed = (
                        targets[k * SWEEP_CHUNK].name if k < SWEEP_SHARDS else None
                    )

                    def failing_save(store, shard_index, shard):
                        if shard_index == k:
                            raise OSError("disk full")
                        real_save(store, shard_index, shard)

                    def failing_scan(scanner, domains, *args):
                        if domains[0].name == doomed:
                            raise RuntimeError("simulated crash")
                        return real_scan(scanner, domains, *args)

                    with pytest.MonkeyPatch.context() as patch:
                        if failing == "save":
                            patch.setattr(CheckpointStore, "save_shard", failing_save)
                        else:
                            patch.setattr(Scanner, "scan_shard", failing_scan)
                        with _sweep_scanner(tiny_population, pool) as crashing:
                            if k == SWEEP_SHARDS:
                                crashing.scan(domains=targets, checkpoint_dir=directory)
                            else:
                                with pytest.raises((OSError, RuntimeError)):
                                    crashing.scan(
                                        domains=targets, checkpoint_dir=directory
                                    )
                    on_disk = _shard_files(directory)
                    assert set(on_disk) <= {
                        f"shard-{i:05d}.cbr" for i in range(k)
                    }, case
                    if not pool or failing == "save":
                        # Every shard before the failing one was emitted,
                        # hence saved on the emitting thread, before the
                        # failure.  A pool's scan crash may surface while
                        # earlier shards still wait behind a straggler.
                        assert len(on_disk) == k, case

                    with _sweep_scanner(tiny_population, not pool) as resuming:
                        resumed = resuming.scan(
                            domains=targets, checkpoint_dir=directory
                        )
                        rescanned = resuming.last_scan_stats["units"]
                    assert rescanned == SWEEP_SHARDS - len(on_disk), case
                    assert _dataset_dicts(resumed) == want_rows, case
                    assert _artifact_bytes(resumed) == want_artifact, case
                    assert _shard_files(directory) == want_shards, case

    def test_retired_jsonl_shard_is_rescanned(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        """The pre-cbr shard format is gone: a directory that holds
        shard 0 only as ``shard-00000.jsonl`` re-scans it, never raises."""
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        shard = scan_checkpoint(directory) / "shard-00000.cbr"
        payload = shard.read_bytes()
        shard.unlink()
        (shard.parent / "shard-00000.jsonl").write_text('{"domain":"old.example"}\n')
        scanner = _scanner(tiny_population)
        resumed = scanner.scan(domains=targets, checkpoint_dir=directory)
        assert scanner.last_scan_stats["units"] == 1
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)
        assert shard.read_bytes() == payload

    def test_resume_with_different_worker_count(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        directory = tmp_path / "ckpt"
        _scanner(tiny_population, workers=1).scan(
            domains=targets, checkpoint_dir=directory
        )
        (scan_checkpoint(directory) / "shard-00002.cbr").unlink()  # crash loses one shard
        resumed = _scanner(tiny_population, workers=4).scan(
            domains=targets, checkpoint_dir=directory
        )
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)

    def test_corrupt_shard_is_rescanned(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        shard = scan_checkpoint(directory) / "shard-00001.cbr"
        payload = shard.read_bytes()
        shard.write_bytes(payload[: len(payload) // 2])  # torn write
        resumed = _scanner(tiny_population).scan(
            domains=targets, checkpoint_dir=directory
        )
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)
        # The re-scan also re-persisted the shard, intact again
        # (cbr encoding is deterministic, so bytes match exactly).
        assert shard.read_bytes() == payload

    def test_shard_cut_inside_its_head_is_rescanned(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        """Magic without a version byte was an IndexError, which the
        loader does not take for "not scanned yet"."""
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        shard = scan_checkpoint(directory) / "shard-00001.cbr"
        payload = shard.read_bytes()
        shard.write_bytes(payload[:4])
        resumed = _scanner(tiny_population).scan(
            domains=targets, checkpoint_dir=directory
        )
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)
        assert shard.read_bytes() == payload

    @pytest.mark.parametrize("cut", [3, 4, 10, 24, -40])
    def test_convert_of_a_torn_shard_fails_in_one_line_and_leaves_no_output(
        self, tiny_population, targets, tmp_path, cut
    ):
        """Inside the head, a chunk header, a payload, the index header,
        the footer: ``repro: error:``, never ``struct.error`` and half a
        merged artifact.  (Cut in the trailer, every frame is whole: the
        shard merges, without zones to carry.)"""
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        shard = scan_checkpoint(directory) / "shard-00001.cbr"
        payload = shard.read_bytes()
        if cut == 24:  # the 0x03 index frame: inside its header
            cut = read_footer(io.BytesIO(payload))["domain_index"]["at"] + 3
        shard.write_bytes(payload[:cut])
        merged = tmp_path / "merged.cbr"
        with pytest.raises(SystemExit, match="^repro: error: "):
            main(["convert", str(shard.parent), str(merged)])
        assert not merged.exists()
        shard.write_bytes(payload)
        assert main(["convert", str(shard.parent), str(merged)]) == 0
        assert read_footer(io.BytesIO(merged.read_bytes()))["records"] > 0


def _records(path) -> list[dict]:
    with open_record_batches(str(path)) as source:
        return [record_to_dict(record) for record in source.records()]


class TestCampaignIdentity:
    """A checkpoint's identity is its path: scans that differ in their
    fingerprint or their shard size each get a directory of their own
    under one ``--checkpoint-dir``, and ``repro convert`` of one of them
    merges that scan's records alone."""

    @pytest.mark.parametrize("differ", ["config", "week", "targets", "chunk"])
    def test_scans_that_differ_share_no_shard(
        self, tiny_population, targets, tmp_path, differ
    ):
        directory = tmp_path / "ckpt"
        base = _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        (first,) = directory.iterdir()
        scanner, kwargs = _scanner(tiny_population), {"domains": targets}
        if differ == "config":  # another fault and resilience regime
            scanner = Scanner(
                tiny_population, ScanConfig(), parallel=ParallelScanConfig(chunk_size=CHUNK)
            )
        elif differ == "week":
            kwargs["week_label"] = "cw21-2023"
        elif differ == "targets":
            kwargs["domains"] = targets[:-1]
        else:
            scanner = Scanner(
                tiny_population, CONFIG, parallel=ParallelScanConfig(chunk_size=CHUNK + 1)
            )
        other = scanner.scan(checkpoint_dir=directory, **kwargs)
        assert scanner.last_scan_stats["units"] > 0  # nothing was resumed
        (second,) = set(directory.iterdir()) - {first}
        for store, dataset in ((first, base), (second, other)):
            assert store.name.isalnum() and len(store.name) == 16
            merged = tmp_path / f"{store.name}.cbr"
            assert main(["convert", str(store), str(merged)]) == 0
            assert _records(merged) == [
                record_to_dict(record) for record in dataset.connection_records()
            ], differ

    def test_an_old_layout_directory_is_rescanned(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        """Shards and a ``manifest.json`` directly under the directory,
        as the retired layout wrote them, are neither read nor touched."""
        directory = tmp_path / "ckpt"
        _scanner(tiny_population).scan(domains=targets, checkpoint_dir=directory)
        store = scan_checkpoint(directory)
        for shard in store.iterdir():
            shard.rename(directory / shard.name)
        store.rmdir()
        (directory / "manifest.json").write_text("{not json")
        old = {path.name: path.read_bytes() for path in directory.iterdir()}
        scanner = _scanner(tiny_population)
        resumed = scanner.scan(domains=targets, checkpoint_dir=directory)
        assert scanner.last_scan_stats["units"] == -(-len(targets) // CHUNK)
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)
        assert {
            path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()
        } == old


class TestStoreInternals:
    FINGERPRINT = {"seed": 1, "targets": 2}

    def test_chunk_validation(self, tmp_path):
        with pytest.raises(CheckpointError, match="chunk must be >= 1"):
            CheckpointStore(tmp_path, self.FINGERPRINT, chunk=0)

    def test_load_missing_shard_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path, self.FINGERPRINT, chunk=4)
        assert store.load_shard(0, []) is None
        assert store.shards_loaded == 0

    def test_shard_domain_mismatch_is_none(self, tiny_population, tmp_path):
        store = CheckpointStore(tmp_path, self.FINGERPRINT, chunk=4)
        domains = tiny_population.domains
        store.save_shard(0, _scanner(tiny_population).scan(domains=domains[:1]).results)
        assert store.load_shard(0, domains[:1]) is not None
        assert store.load_shard(0, domains[1:2]) is None

    def test_non_cbr_bytes_at_shard_path_is_none(self, tiny_population, tmp_path):
        store = CheckpointStore(tmp_path, self.FINGERPRINT, chunk=4)
        store.shard_path(0).write_bytes(b"not a cbr file at all\n")
        assert store.load_shard(0, tiny_population.domains[:1]) is None

    def test_fingerprint_sensitivity(self, tiny_population):
        domains = tiny_population.domains[:10]
        base = scan_fingerprint(1, "cw20-2023", 4, 0, domains, "cfg")
        assert base == scan_fingerprint(1, "cw20-2023", 4, 0, domains, "cfg")
        assert base != scan_fingerprint(2, "cw20-2023", 4, 0, domains, "cfg")
        assert base != scan_fingerprint(1, "cw20-2023", 4, 0, domains, "other-cfg")
        assert base != scan_fingerprint(1, "cw20-2023", 4, 0, domains[:-1], "cfg")
        assert base != scan_fingerprint(1, "cw20-2023", 4, 1, domains, "cfg")


def _pool_scanner(population, workers: int) -> Scanner:
    return Scanner(
        population,
        CONFIG,
        parallel=ParallelScanConfig(
            workers=workers, chunk_size=CHUNK, force_pool=True
        ),
    )


class TestWorkStealingResume:
    """Crash-resume through the real process pool.

    Checkpoint under workers=4, lose shards, resume under workers=2:
    shard files are chunk-aligned whatever the worker count, so the
    mixed-worker merge stays bit-identical to an uninterrupted
    sequential run.
    """

    def test_checkpoint_4_workers_resume_2_workers(
        self, tiny_population, targets, plain_dataset, tmp_path
    ):
        first = _pool_scanner(tiny_population, workers=4)
        try:
            first.scan(domains=targets, checkpoint_dir=tmp_path)
        finally:
            first.close()
        store = scan_checkpoint(tmp_path)
        shard_files = sorted(p.name for p in store.glob("shard-*.cbr"))
        assert len(shard_files) == -(-N_DOMAINS // CHUNK)

        # Simulated crash: two shards never made it to disk.
        (store / "shard-00001.cbr").unlink()
        (store / "shard-00003.cbr").unlink()
        untouched = (store / "shard-00002.cbr").read_bytes()

        second = _pool_scanner(tiny_population, workers=2)
        try:
            resumed = second.scan(domains=targets, checkpoint_dir=tmp_path)
        finally:
            second.close()
        assert _dataset_dicts(resumed) == _dataset_dicts(plain_dataset)
        # The surviving shard was loaded, not rewritten.
        assert (store / "shard-00002.cbr").read_bytes() == untouched
        # The lost shards are back, re-persisted from worker payloads.
        assert sorted(p.name for p in store.glob("shard-*.cbr")) == shard_files
