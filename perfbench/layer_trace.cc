#include "layer_trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "common/logging.hh"

namespace perfbench
{

namespace
{

/** Parent links resolved to positions: root and depth of every span. */
struct Tree
{
    std::vector<std::size_t> root;
    std::vector<std::size_t> depth;
    /** Time each span's children cover, clipped to the span. */
    std::vector<double> childUs;
};

Tree
buildTree(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> at;
    for (std::size_t i = 0; i < spans.size(); ++i)
        at.emplace(spans[i].id, i);
    Tree tree;
    tree.root.resize(spans.size());
    tree.depth.resize(spans.size());
    tree.childUs.assign(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t node = i;
        std::size_t depth = 0;
        for (auto it = at.find(spans[node].parent);
             spans[node].parent != 0 && it != at.end();
             it = at.find(spans[node].parent)) {
            node = it->second;
            ++depth;
        }
        tree.root[i] = node;
        tree.depth[i] = depth;
        const auto parent = at.find(spans[i].parent);
        if (spans[i].parent != 0 && parent != at.end()) {
            const Span &p = spans[parent->second];
            const double covered =
                std::min(spans[i].endUs, p.endUs) -
                std::max(spans[i].startUs, p.startUs);
            tree.childUs[parent->second] += std::max(0.0, covered);
        }
    }
    return tree;
}

} // namespace

void
SpanRecorder::add(std::uint64_t id, const char *name,
                  Clock::time_point start, Clock::time_point end,
                  std::uint64_t parent, std::uint64_t request)
{
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    spans_.push_back(Span{name, id, parent, request, us(start),
                          std::max(us(start), us(end))});
}

std::string
SpanRecorder::selfTimeTable() const
{
    const Tree tree = buildTree(spans_);
    struct Row
    {
        std::string root;
        std::string name;
        std::size_t depth = 0;
        /** Start of the row's first span (orders rows under a root). */
        double firstUs = 0.0;
        std::size_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };
    std::vector<Row> rows;
    std::map<std::pair<std::string, std::string>, std::size_t> row_of;
    std::map<std::string, double> root_total;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const std::string root = spans_[tree.root[i]].name;
        const double dur = span.endUs - span.startUs;
        if (tree.root[i] == i)
            root_total[root] += dur;
        const auto key = std::make_pair(root, std::string(span.name));
        auto it = row_of.find(key);
        if (it == row_of.end()) {
            it = row_of.emplace(key, rows.size()).first;
            rows.push_back(Row{root, span.name, tree.depth[i],
                               span.startUs, 0, 0.0, 0.0});
        }
        Row &row = rows[it->second];
        ++row.count;
        row.totalUs += dur;
        row.selfUs += std::max(0.0, dur - tree.childUs[i]);
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.root != b.root)
            return a.root < b.root;
        if ((a.depth == 0) != (b.depth == 0))
            return a.depth == 0;
        return a.firstUs < b.firstUs;
    });

    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-36s %8s %12s %12s %10s\n",
                  "span (indented under its root)", "count", "mean_us",
                  "self_us", "self_share");
    out += line;
    for (const Row &row : rows) {
        const std::string label =
            std::string(2 * row.depth, ' ') + row.name;
        const double share =
            root_total[row.root] > 0.0 ? row.selfUs / root_total[row.root]
                                       : 0.0;
        std::snprintf(line, sizeof(line),
                      "%-36s %8zu %12.3f %12.3f %9.1f%%\n", label.c_str(),
                      row.count, row.totalUs / row.count,
                      row.selfUs / row.count, 100.0 * share);
        out += line;
    }
    return out;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const Tree tree = buildTree(spans_);
    // Greedy interval partitioning of root spans into lanes; children
    // draw on their root's lane so every lane nests properly.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (tree.root[i] == i)
            roots.push_back(i);
    }
    std::sort(roots.begin(), roots.end(), [this](std::size_t a, std::size_t b) {
        return spans_[a].startUs < spans_[b].startUs;
    });
    std::vector<std::size_t> lane(spans_.size(), 0);
    std::vector<double> lane_end;
    for (const std::size_t r : roots) {
        std::size_t l = 0;
        while (l < lane_end.size() && lane_end[l] > spans_[r].startUs)
            ++l;
        if (l == lane_end.size())
            lane_end.push_back(0.0);
        lane_end[l] = spans_[r].endUs;
        lane[r] = l;
    }

    std::ofstream out(path);
    if (!out)
        mcdvfs::fatal("perfbench: cannot write trace '", path, "'");
    out.precision(12);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
            << lane[tree.root[i]] + 1 << ", \"ts\": " << s.startUs
            << ", \"dur\": " << s.endUs - s.startUs
            << ", \"args\": {\"span\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"request_id\": " << s.requestId << "}}";
    }
    out << "\n]}\n";
    if (!out)
        mcdvfs::fatal("perfbench: failed writing trace '", path, "'");
}

} // namespace perfbench
