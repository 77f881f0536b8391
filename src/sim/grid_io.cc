#include "sim/grid_io.hh"

#include <iomanip>
#include <sstream>
#include <vector>

#include "common/binio.hh"
#include "common/logging.hh"

namespace mcdvfs
{

void
saveGrid(const MeasuredGrid &grid, std::ostream &os)
{
    // Two-domain grids keep the historical v1 bytes; three-domain
    // grids write v2, which adds the GPU ladder line, two GPU profile
    // fields, and a sixth cell column.
    const bool has_gpu = grid.space().hasGpu();
    os << (has_gpu ? "mcdvfs-grid v2\n" : "mcdvfs-grid v1\n");
    os << "workload " << grid.workload() << '\n';
    os << "samples " << grid.sampleCount() << " instructions "
       << grid.instructionsPerSample() << '\n';

    os << "cpu";
    for (const Hertz f : grid.space().cpuLadder().steps())
        os << ' ' << toMegaHertz(f);
    os << '\n';
    os << "mem";
    for (const Hertz f : grid.space().memLadder().steps())
        os << ' ' << toMegaHertz(f);
    os << '\n';
    if (has_gpu) {
        os << "gpu";
        for (const Hertz f : grid.space().gpuLadder().steps())
            os << ' ' << toMegaHertz(f);
        os << '\n';
    }

    os << std::setprecision(17);
    if (grid.hasProfiles()) {
        for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
            const SampleProfile &p = grid.profile(s);
            os << "profile " << s;
            for (const auto rate : storedProfileRates(has_gpu))
                os << ' ' << p.*rate;
            os << ' ' << p.phaseName << '\n';
        }
    }
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            const GridCell &cell = grid.cell(s, k);
            os << "cell " << s << ' ' << k << ' ' << cell.seconds << ' '
               << cell.cpuEnergy << ' ' << cell.memEnergy << ' '
               << cell.busyFrac << ' ' << cell.bwUtil;
            if (has_gpu)
                os << ' ' << cell.gpuEnergy;
            os << '\n';
        }
    }
}

std::string
saveGridToString(const MeasuredGrid &grid)
{
    std::ostringstream os;
    saveGrid(grid, os);
    return os.str();
}

MeasuredGrid
loadGrid(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) ||
        (line != "mcdvfs-grid v1" && line != "mcdvfs-grid v2"))
        fatal("grid io: missing or unsupported header");
    const bool has_gpu = line == "mcdvfs-grid v2";

    std::string keyword;
    std::string workload;
    {
        std::getline(is, line);
        std::istringstream ls(line);
        if (!(ls >> keyword >> workload) || keyword != "workload")
            fatal("grid io: expected 'workload'");
    }

    std::size_t samples = 0;
    Count instructions = 0;
    {
        std::getline(is, line);
        std::istringstream ls(line);
        std::string kw2;
        if (!(ls >> keyword >> samples >> kw2 >> instructions) ||
            keyword != "samples" || kw2 != "instructions") {
            fatal("grid io: expected 'samples N instructions M'");
        }
    }

    auto read_ladder = [&is, &line](const char *name) {
        std::getline(is, line);
        std::istringstream ls(line);
        std::string kw;
        if (!(ls >> kw) || kw != name)
            fatal("grid io: expected '", name, "' ladder");
        std::vector<Hertz> steps;
        double mhz = 0.0;
        while (ls >> mhz)
            steps.push_back(megaHertz(mhz));
        return FrequencyLadder(std::move(steps));
    };
    FrequencyLadder cpu = read_ladder("cpu");
    FrequencyLadder mem = read_ladder("mem");
    SettingsSpace space =
        has_gpu ? SettingsSpace(std::move(cpu), std::move(mem),
                                read_ladder("gpu"))
                : SettingsSpace(std::move(cpu), std::move(mem));

    MeasuredGrid grid(workload, std::move(space), samples, instructions);

    std::vector<SampleProfile> profiles;
    std::size_t cells_read = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        ls >> keyword;
        if (keyword == "profile") {
            SampleProfile p;
            std::size_t s = 0;
            ls >> s;
            for (const auto rate : storedProfileRates(has_gpu))
                ls >> p.*rate;
            if (!(ls >> p.phaseName))
                fatal("grid io: malformed profile line");
            if (s != profiles.size())
                fatal("grid io: profiles out of order");
            profiles.push_back(std::move(p));
        } else if (keyword == "cell") {
            std::size_t s = 0;
            std::size_t k = 0;
            GridCell cell;
            if (!(ls >> s >> k >> cell.seconds >> cell.cpuEnergy >>
                  cell.memEnergy >> cell.busyFrac >> cell.bwUtil)) {
                fatal("grid io: malformed cell line");
            }
            if (has_gpu && !(ls >> cell.gpuEnergy))
                fatal("grid io: malformed cell line");
            if (s >= samples || k >= grid.settingCount())
                fatal("grid io: cell index out of range");
            const MeasuredGrid::RowView row = grid.fillRow(s);
            row.seconds[k] = cell.seconds;
            row.cpuEnergy[k] = cell.cpuEnergy;
            row.memEnergy[k] = cell.memEnergy;
            row.busyFrac[k] = cell.busyFrac;
            row.bwUtil[k] = cell.bwUtil;
            row.gpuEnergy[k] = cell.gpuEnergy;
            ++cells_read;
        } else {
            fatal("grid io: unexpected token '", keyword, "'");
        }
    }
    if (cells_read != samples * grid.settingCount())
        fatal("grid io: expected ", samples * grid.settingCount(),
              " cells, got ", cells_read);
    for (std::size_t s = 0; s < samples; ++s)
        grid.updateSampleAggregates(s);
    if (!profiles.empty())
        grid.setProfiles(std::move(profiles));
    return grid;
}

MeasuredGrid
loadGridFromString(const std::string &text)
{
    std::istringstream is(text);
    return loadGrid(is);
}

namespace
{

/**
 * Upper bound on a plausible body (a fine-space grid of thousands of
 * samples is tens of MiB); a corrupted sample count must not turn into
 * a multi-GiB allocation.
 */
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

} // namespace

std::uint32_t
gridBodyFormat(const MeasuredGrid &grid)
{
    return grid.space().hasGpu() ? 2 : 1;
}

void
writeGridBody(ByteWriter &w, const MeasuredGrid &grid)
{
    // Two-domain grids produce the historical v1 body byte for byte;
    // the GPU ladder, the two GPU profile fields and the sixth cell
    // column exist only in format 2.
    const bool has_gpu = gridBodyFormat(grid) == 2;
    const std::size_t doubles_per_cell = has_gpu ? 6 : 5;
    const std::size_t doubles_per_profile =
        storedProfileRates(has_gpu).size();
    // Cells and profiles are nearly all of it: one allocation (a
    // profile's phase name is budgeted at up to 60 bytes).
    w.reserve(grid.sampleCount() *
                  (grid.settingCount() * doubles_per_cell +
                   (grid.hasProfiles() ? doubles_per_profile + 8 : 0)) *
                  sizeof(double) +
              256);

    w.str(grid.workload());
    w.u64(grid.sampleCount());
    w.u64(grid.instructionsPerSample());

    const auto write_ladder = [&w](const FrequencyLadder &ladder) {
        w.u32(static_cast<std::uint32_t>(ladder.size()));
        for (const Hertz f : ladder.steps())
            w.f64(f);
    };
    write_ladder(grid.space().cpuLadder());
    write_ladder(grid.space().memLadder());
    if (has_gpu)
        write_ladder(grid.space().gpuLadder());

    w.u8(grid.hasProfiles() ? 1 : 0);
    if (grid.hasProfiles()) {
        for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
            const SampleProfile &p = grid.profile(s);
            w.str(p.phaseName);
            for (const auto rate : storedProfileRates(has_gpu))
                w.f64(p.*rate);
        }
    }

    // Cell by cell, as readGridBody expects: one append per row.
    const std::size_t cell_bytes = doubles_per_cell * sizeof(double);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        char *cell = w.extend(grid.settingCount() * cell_bytes);
        for (std::size_t k = 0; k < grid.settingCount();
             ++k, cell += cell_bytes) {
            storeF64(cell, grid.secondsAt(s, k));
            storeF64(cell + 8, grid.cpuEnergyAt(s, k));
            storeF64(cell + 16, grid.memEnergyAt(s, k));
            storeF64(cell + 24, grid.busyFracAt(s, k));
            storeF64(cell + 32, grid.bwUtilAt(s, k));
            if (has_gpu)
                storeF64(cell + 40, grid.gpuEnergyAt(s, k));
        }
    }
}

MeasuredGrid
readGridBody(ByteReader &r, std::uint32_t format)
{
    if (format != 1 && format != 2)
        fatal("grid body: unsupported format ", format, " (expected 1 or 2)");
    const bool has_gpu = format == 2;

    std::string workload = r.str();
    const std::uint64_t samples = r.u64();
    const Count instructions = r.u64();

    const auto read_ladder = [&r](const char *name) {
        const std::uint32_t count = r.u32();
        if (count == 0 || count > 1'000'000)
            fatal("grid body: implausible ", name, " ladder size ",
                  count);
        const char *steps_at =
            r.bytes(count * sizeof(double), "ladder").data();
        std::vector<Hertz> steps(count);
        for (std::uint32_t i = 0; i < count; ++i)
            steps[i] = loadF64(steps_at + i * sizeof(double));
        return FrequencyLadder(std::move(steps));
    };
    FrequencyLadder cpu = read_ladder("cpu");
    FrequencyLadder mem = read_ladder("mem");
    SettingsSpace space =
        has_gpu ? SettingsSpace(std::move(cpu), std::move(mem),
                                read_ladder("gpu"))
                : SettingsSpace(std::move(cpu), std::move(mem));

    const std::size_t settings = space.size();
    const std::size_t cell_bytes = (has_gpu ? 6 : 5) * sizeof(double);
    const std::size_t row_bytes = settings * cell_bytes;
    if (samples > kMaxPayloadBytes / row_bytes)
        fatal("grid body: implausible sample count ", samples);
    // The rows alone take row_bytes each: a count the bytes left cannot
    // hold is a corrupt body, rejected before the grid is allocated.
    if (samples > r.remaining() / row_bytes)
        fatal("grid body: ", samples, " samples need more than the ",
              r.remaining(), " bytes left");

    MeasuredGrid grid(std::move(workload), std::move(space),
                      static_cast<std::size_t>(samples), instructions);

    const std::uint8_t has_profiles = r.u8();
    if (has_profiles > 1)
        fatal("grid body: corrupt profile marker ",
              static_cast<unsigned>(has_profiles));
    if (has_profiles == 1) {
        std::vector<SampleProfile> profiles(samples);
        for (std::uint64_t s = 0; s < samples; ++s) {
            SampleProfile &p = profiles[s];
            p.phaseName = r.str();
            for (const auto rate : storedProfileRates(has_gpu))
                p.*rate = r.f64();
        }
        grid.setProfiles(std::move(profiles));
    }

    // The grid keeps one column per quantity: each row is one bounds
    // check, then a strided decode.
    for (std::uint64_t s = 0; s < samples; ++s) {
        const char *cell = r.bytes(row_bytes, "grid row").data();
        MeasuredGrid::RowView row = grid.fillRow(s);
        for (std::size_t k = 0; k < settings; ++k, cell += cell_bytes) {
            row.seconds[k] = loadF64(cell);
            row.cpuEnergy[k] = loadF64(cell + 8);
            row.memEnergy[k] = loadF64(cell + 16);
            row.busyFrac[k] = loadF64(cell + 24);
            row.bwUtil[k] = loadF64(cell + 32);
            if (has_gpu)
                row.gpuEnergy[k] = loadF64(cell + 40);
        }
        grid.updateSampleAggregates(s);
    }
    r.expectEnd();
    return grid;
}

} // namespace mcdvfs
