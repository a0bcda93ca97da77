"""Tests for the configuration knobs and the Table 2 presets."""

import pytest

from repro.config import (
    BALSA_LEON_CONFIG,
    BAO_CONFIG,
    CONFIG_PRESETS,
    DEFAULT_CONFIG,
    PRESET_TITLES,
    GB,
    JOB_LEIS_CONFIG,
    LERO_CONFIG,
    LOGER_CONFIG,
    MB,
    OUR_FRAMEWORK_CONFIG,
    PAGE_SIZE_BYTES,
    PostgresConfig,
    RuntimeConfig,
    format_bytes,
    iter_presets,
    parse_tcp_url,
)
from repro.errors import ExperimentError


class TestDefaults:
    def test_default_matches_postgres_stock_values(self):
        assert DEFAULT_CONFIG.work_mem == 4 * MB
        assert DEFAULT_CONFIG.shared_buffers == 128 * MB
        assert DEFAULT_CONFIG.effective_cache_size == 4 * GB
        assert DEFAULT_CONFIG.geqo is True
        assert DEFAULT_CONFIG.geqo_threshold == 12

    def test_default_has_no_deviations(self):
        assert DEFAULT_CONFIG.diff_from_default() == {}

    def test_page_geometry(self):
        assert DEFAULT_CONFIG.shared_buffer_pages == (128 * MB) // PAGE_SIZE_BYTES


class TestPresets:
    def test_all_presets_registered(self):
        assert set(CONFIG_PRESETS) == {
            "default", "job_leis", "bao", "balsa_leon", "loger", "lero", "our_framework",
        }

    def test_balsa_leon_disables_bitmap_and_tid_scans(self):
        assert BALSA_LEON_CONFIG.enable_bitmapscan is False
        assert BALSA_LEON_CONFIG.enable_tidscan is False
        assert BALSA_LEON_CONFIG.geqo is False

    def test_our_framework_reenables_scans_and_raises_cache(self):
        assert OUR_FRAMEWORK_CONFIG.enable_bitmapscan is True
        assert OUR_FRAMEWORK_CONFIG.enable_tidscan is True
        assert OUR_FRAMEWORK_CONFIG.effective_cache_size == 32 * GB
        assert OUR_FRAMEWORK_CONFIG.autovacuum is False

    def test_parallelization_differences(self):
        assert LOGER_CONFIG.max_parallel_workers == 1
        assert LERO_CONFIG.max_parallel_workers == 0
        assert BALSA_LEON_CONFIG.max_worker_processes == 8

    def test_presets_iterate_in_table2_column_order_with_titles(self):
        names = [name for name, _ in iter_presets()]
        assert names == list(CONFIG_PRESETS) == list(PRESET_TITLES)
        assert [config for _, config in iter_presets()] == list(CONFIG_PRESETS.values())
        assert len(set(PRESET_TITLES.values())) == len(PRESET_TITLES)

    def test_memory_settings_match_table2(self):
        assert JOB_LEIS_CONFIG.work_mem == 2 * GB
        assert BAO_CONFIG.shared_buffers == 4 * GB
        assert BALSA_LEON_CONFIG.shared_buffers == 32 * GB
        assert LOGER_CONFIG.shared_buffers == 64 * GB


class TestBehaviour:
    def test_with_overrides_returns_new_object(self):
        tweaked = DEFAULT_CONFIG.with_overrides(work_mem=1 * GB)
        assert tweaked.work_mem == 1 * GB
        assert DEFAULT_CONFIG.work_mem == 4 * MB

    def test_geqo_enabled_threshold(self):
        assert DEFAULT_CONFIG.geqo_enabled_for(12) is True
        assert DEFAULT_CONFIG.geqo_enabled_for(11) is False
        disabled = DEFAULT_CONFIG.with_overrides(geqo=False)
        assert disabled.geqo_enabled_for(20) is False

    def test_to_dict_contains_every_knob(self):
        knobs = DEFAULT_CONFIG.to_dict()
        assert "enable_bitmapscan" in knobs
        assert "random_page_cost" in knobs
        assert knobs["geqo_threshold"] == 12

    def test_diff_from_default_reports_pairs(self):
        diff = BALSA_LEON_CONFIG.diff_from_default()
        assert diff["enable_bitmapscan"] == (True, False)
        assert "work_mem" in diff


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value, expected",
        [(4 * GB, "4 GB"), (128 * MB, "128 MB"), (8 * 1024, "8 KB"), (100, "100 B")],
    )
    def test_format(self, value, expected):
        assert format_bytes(value) == expected


class TestFingerprints:
    def test_equal_configs_equal_fingerprints(self):
        assert PostgresConfig().fingerprint() == PostgresConfig().fingerprint()
        rebuilt = DEFAULT_CONFIG.with_overrides()
        assert rebuilt.fingerprint() == DEFAULT_CONFIG.fingerprint()

    def test_every_preset_fingerprint_distinct(self):
        fingerprints = {config.fingerprint() for _, config in iter_presets()}
        assert len(fingerprints) == len(CONFIG_PRESETS)

    def test_single_knob_mutation_changes_fingerprint(self):
        base = DEFAULT_CONFIG
        mutated = base.with_overrides(geqo_threshold=base.geqo_threshold + 1)
        assert mutated.fingerprint() != base.fingerprint()
        # Reverting the knob restores the original fingerprint exactly.
        restored = mutated.with_overrides(geqo_threshold=base.geqo_threshold)
        assert restored.fingerprint() == base.fingerprint()

    def test_configs_are_hashable_value_objects(self):
        assert hash(PostgresConfig()) == hash(PostgresConfig())
        assert PostgresConfig() in {DEFAULT_CONFIG}


class TestRuntimeConfigDefaults:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.workers == 1
        assert config.executor_kind == "serial"
        assert config.store_dir is None and config.shard_count == 0

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            RuntimeConfig(executor_kind="gpu")

    def test_task_retries_defaults_to_one_and_rejects_negative(self):
        assert RuntimeConfig().task_retries == 1
        assert RuntimeConfig(task_retries=0).task_retries == 0
        with pytest.raises(ValueError):
            RuntimeConfig(task_retries=-1)

    def test_progress_interval_defaults_to_none_and_rejects_nonpositive(self):
        """The one place a sweep's snapshot interval is set: None means only
        the final snapshot, and a zero or negative interval never starts."""
        assert RuntimeConfig().progress_interval_s is None
        assert RuntimeConfig(progress_interval_s=0.05).progress_interval_s == 0.05
        for interval in (0, -1.0):
            with pytest.raises(ValueError, match="progress_interval_s"):
                RuntimeConfig(progress_interval_s=interval)

    def test_queue_url_accepts_only_tcp(self):
        assert RuntimeConfig().queue_url == "tcp://127.0.0.1:0"  # loopback, ephemeral port
        assert RuntimeConfig(queue_url="tcp://127.0.0.1:0").queue_url == "tcp://127.0.0.1:0"
        for directory_queue in ("file:///shared/q", "/shared/q"):
            with pytest.raises(ValueError):
                RuntimeConfig(queue_url=directory_queue)

    def test_queue_secret_keeps_none_apart_from_empty(self):
        """The sweep ignores the field; it keeps what its callers pass."""
        assert RuntimeConfig().queue_secret is None
        assert RuntimeConfig(queue_secret="").queue_secret == ""
        assert RuntimeConfig(queue_secret="s3cret").queue_secret == "s3cret"

    def test_queue_url_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            RuntimeConfig(queue_url="http://coordinator:80")

    def test_queue_url_malformed_tcp_rejected_at_construction(self):
        # Full parse at construction time: a port-less tcp url must not get as
        # far as run_grid before failing.
        with pytest.raises(ValueError):
            RuntimeConfig(queue_url="tcp://coordinator")


class TestTcpUrlParsing:
    """The one parser of ``tcp://host:port`` urls (plan clients, and the
    validation of ``RuntimeConfig.queue_url``)."""

    @pytest.mark.parametrize(
        ("url", "address"),
        [
            ("tcp://coordinator:1", ("coordinator", 1)),
            ("tcp://coordinator.example:65535", ("coordinator.example", 65535)),
            ("tcp://10.0.0.5:7077", ("10.0.0.5", 7077)),
            ("tcp://127.0.0.1:0", ("127.0.0.1", 0)),  # ephemeral
        ],
    )
    def test_hostnames_and_the_port_range_bounds_accepted(self, url, address):
        assert parse_tcp_url(url) == address

    @pytest.mark.parametrize(
        "url",
        [
            "tcp://", "tcp://host", "tcp://host:notaport", "tcp://host:70777", "nfs://x/y", "file://",
            "file:///shared/q", "/shared/q", "tcp://:7077", "tcp://host:-1", "tcp://host:65536",
            "tcp://host:7077/q", "TCP://host:7077",
        ],
    )
    def test_malformed_urls_rejected(self, url):
        with pytest.raises(ExperimentError):
            parse_tcp_url(url)
