#include "trace/trace_generator.hh"

namespace mcdvfs
{

namespace
{

/** @c spec, once validate() has accepted it. */
const PhaseSpec &
validated(const PhaseSpec &spec)
{
    spec.validate();
    return spec;
}

} // namespace

TraceGenerator::TraceGenerator(const PhaseSpec &spec, std::uint64_t seed)
    : spec_(validated(spec)), rng_(seed),
      tiers_{Tier{kHotBase,
                  Rng::Bound(spec_.hotBytes / PhaseSpec::kAccessBytes)},
             Tier{kWarmBase,
                  Rng::Bound(spec_.warmBytes / PhaseSpec::kAccessBytes)}},
      coldWords_(spec_.coldBytes / PhaseSpec::kAccessBytes)
{
    // Cumulative edges in mix order (load, store, branch, fp, mul, GPU
    // kick).  A draw below an edge's uniform53Threshold() is exactly a
    // uniform() below the edge.
    double edge = spec_.loadFrac;
    loadEdge_ = Rng::uniform53Threshold(edge);
    edge += spec_.storeFrac;
    memEdge_ = Rng::uniform53Threshold(edge);
    // A GPU kick edge of 0 (CPU-only phases) leaves the sum unchanged,
    // so the stream is identical to the two-domain generator's.
    const double op_fracs[] = {spec_.branchFrac, spec_.fpFrac,
                               spec_.mulFrac, spec_.gpuKickFrac};
    for (std::size_t i = 0; i < opEdges_.size(); ++i) {
        edge += op_fracs[i];
        opEdges_[i] = Rng::uniform53Threshold(edge);
    }
    hotEdge_ = Rng::uniform53Threshold(spec_.hotFrac);
    warmEdge_ = Rng::uniform53Threshold(spec_.hotFrac + spec_.warmFrac);

    // Start the sequential cold stream at a seed-dependent offset so
    // different samples touch different rows.
    coldCursor_ = rng_.uniformInt(coldWords_) * PhaseSpec::kAccessBytes;
}

void
TraceGenerator::generate(Count n, std::vector<InstrRecord> &out)
{
    out.reserve(out.size() + n);
    for (Count i = 0; i < n; ++i)
        out.push_back(next());
}

} // namespace mcdvfs
