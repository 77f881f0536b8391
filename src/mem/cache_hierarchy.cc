#include "mem/cache_hierarchy.hh"

#include "common/units.hh"

namespace mcdvfs
{

HierarchyConfig
HierarchyConfig::paperDefault()
{
    HierarchyConfig config;
    config.l1.name = "l1";
    config.l1.sizeBytes = 64 * kKiB;
    config.l1.associativity = 4;
    config.l1.lineBytes = 64;
    config.l1.latencyCycles = 2;

    config.l2.name = "l2";
    config.l2.sizeBytes = 2 * kMiB;
    config.l2.associativity = 16;
    config.l2.lineBytes = 64;
    config.l2.latencyCycles = 12;
    return config;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : l1_(config.l1), l2_(config.l2),
      nextLinePrefetch_(config.nextLinePrefetch)
{
}

CacheHierarchy::Prefetch
CacheHierarchy::prefetchNextLine(std::uint64_t addr)
{
    // Prefetch fills consume bandwidth and read energy but are not
    // demand-latency exposed.  Line sizes are powers of two.
    const std::uint64_t line = l2_.config().lineBytes;
    Prefetch pf;
    pf.line = (addr & ~(line - 1)) + line;
    if (!l2_.probe(pf.line)) {
        pf.victim = l2_.fill(pf.line, /*dirty=*/false);
        pf.issued = true;
        ++prefetches_;
    }
    return pf;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    prefetches_ = 0;
}

void
CacheHierarchy::clearStats()
{
    l1_.clearStats();
    l2_.clearStats();
}

} // namespace mcdvfs
