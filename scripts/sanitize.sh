#!/usr/bin/env bash
# Sanitizer passes over the test suite (docs/OBSERVABILITY.md,
# ROADMAP.md "verify"):
#
#   1. ASan + UBSan over the full suite — memory errors and UB
#      anywhere in the library;
#   2. TSan over the concurrency-heavy subset (exec thread pool and
#      its work-stealing strips, the sharded LRU every cache is built
#      on, svc cache/service, the profile cache and the dedup grid
#      evaluation, obs metrics
#      and trace rings, trace enable/disable toggling, the telemetry
#      sampler thread and SLO watchdog, the tuning daemon and its
#      snapshot store, the streaming-resume path, the snapshot
#      corruption fuzz, the request-boundary fuzz (two submitters and
#      a mid-stream drain against the batcher), the settings space
#      block every request copy shares, the three-domain daemon
#      round-trip, the
#      analysis results shared between pool and caller threads, and a
#      loaded grid read by several threads at once) — the
#      lock-free metric stripes, the strip CAS pop/steal protocol,
#      the seqlock-protected trace slots, the cache paths, the
#      daemon's build join and batcher/drain handoffs and the
#      checkpoint store probed/extended by concurrent daemon batches
#      are where data races would live.
#
# Usage: scripts/sanitize.sh [--asan-only|--tsan-only]
# Build trees land in build-asan/ and build-tsan/ next to build/.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
run_asan=1
run_tsan=1
case "${1:-}" in
    --asan-only) run_tsan=0 ;;
    --tsan-only) run_asan=0 ;;
    "") ;;
    *)
        echo "usage: $0 [--asan-only|--tsan-only]" >&2
        exit 2
        ;;
esac

if [ "$run_asan" = 1 ]; then
    echo "== ASan + UBSan: full test suite =="
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMCDVFS_SANITIZE=address,undefined
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
fi

if [ "$run_tsan" = 1 ]; then
    echo "== TSan: exec / svc / obs concurrency subset =="
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMCDVFS_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target \
        exec_thread_pool_test exec_thread_pool_stress_test \
        exec_thread_pool_drain_test exec_thread_pool_steal_test \
        exec_sharded_lru_test \
        sim_profile_cache_test sim_profile_dedup_test \
        svc_grid_cache_test svc_grid_cache_property_test \
        svc_service_test sim_parallel_grid_test \
        obs_metrics_test obs_snapshot_golden_test \
        obs_instrumentation_test \
        obs_trace_test obs_trace_stress_test \
        obs_trace_toggle_stress_test \
        obs_timeseries_test obs_telemetry_test \
        daemon_snapshot_store_test daemon_tuning_daemon_test \
        svc_analysis_cache_test core_incremental_analysis_test \
        daemon_streaming_test \
        daemon_snapshot_fuzz_test integration_gpu_test \
        svc_shared_results_test sim_grid_io_test \
        daemon_request_fuzz_test dvfs_settings_test
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -R 'ThreadPool|ShardedLru|GridCache|Service|Obs|ParallelGrid|Trace|Daemon|SnapshotStore|AnalysisCache|Incremental|Streaming|ThreeDomain|Timeseries|Telemetry|SloWatchdog|ProfileCache|ProfileDedup|ProfileFingerprint|MemoizedCharacterization|SharedInputs|SharedResults|GridIo|RequestFuzz|SettingsSpace'
fi

echo "sanitize: all requested passes clean"
