#include "svc/fingerprint.hh"

namespace mcdvfs
{
namespace svc
{

namespace
{

void
addCache(HashBuilder &h, const CacheConfig &cache)
{
    h.add(cache.name)
        .add(cache.sizeBytes)
        .add(std::uint64_t{cache.associativity})
        .add(std::uint64_t{cache.lineBytes})
        .add(std::uint64_t{cache.latencyCycles});
}

void
addDramConfig(HashBuilder &h, const DramConfig &dram)
{
    h.add(std::uint64_t{dram.banks})
        .add(std::uint64_t{dram.rowBytes})
        .add(std::uint64_t{dram.busBytes})
        .add(std::uint64_t{dram.lineBytes});
}

void
addDramTiming(HashBuilder &h, const DramTiming &timing)
{
    h.add(timing.tRp)
        .add(timing.tRcd)
        .add(timing.tCas)
        .add(timing.interfaceCycles)
        .add(timing.maxUtilization);
}

void
addRails(HashBuilder &h, const RailCurrents &rails)
{
    h.add(rails.vdd1).add(rails.vdd2);
}

} // namespace

std::uint64_t
fingerprintConfig(const SystemConfig &config)
{
    HashBuilder h;

    const SampleSimulatorConfig &sampler = config.sampler;
    h.add(static_cast<std::uint64_t>(sampler.simInstructionsPerSample))
        .add(static_cast<std::uint64_t>(sampler.warmupInstructions));
    addCache(h, sampler.hierarchy.l1);
    addCache(h, sampler.hierarchy.l2);
    h.add(sampler.hierarchy.nextLinePrefetch);
    addDramConfig(h, sampler.dram);

    const TimingParams &timing = config.timing;
    h.add(timing.l2StallExposure)
        .add(timing.bwUtilizationCap)
        .add(static_cast<std::uint64_t>(timing.fixedPointIterations))
        .add(timing.modelBandwidth)
        .add(std::uint64_t{timing.l2LatencyCycles});
    addDramTiming(h, timing.dramTiming);
    addDramConfig(h, timing.dramConfig);

    const CpuPowerParams &cpu = config.cpuPower;
    h.add(cpu.peakDynamic)
        .add(cpu.peakBackground)
        .add(cpu.leakageAtVmax)
        .add(cpu.stallActivity);

    const GpuPowerParams &gpu = config.gpuPower;
    h.add(gpu.peakDynamic)
        .add(gpu.peakBackground)
        .add(gpu.leakageAtVmax);

    const DramPowerParams &dram = config.dramPower;
    h.add(dram.vdd1).add(dram.vdd2).add(dram.specFreq);
    addRails(h, dram.idd0);
    addRails(h, dram.idd2n);
    addRails(h, dram.idd3n);
    addRails(h, dram.idd4r);
    addRails(h, dram.idd4w);
    addRails(h, dram.idd5);
    addRails(h, dram.idd2p);
    h.add(dram.enablePowerDown)
        .add(dram.powerDownResidency)
        .add(dram.backgroundStaticFrac)
        .add(dram.burstStaticFrac)
        .add(dram.tRc)
        .add(dram.tRefi)
        .add(dram.tRfc);

    h.add(config.measurementNoise);
    return h.digest();
}

} // namespace svc
} // namespace mcdvfs
