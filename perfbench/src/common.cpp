#include "common.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {
namespace {

const std::int64_t g_processStartNs = nowNs();

} // namespace

std::int64_t
processStartNs()
{
    return g_processStartNs;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 0.0;
}

std::string
fsTypeName(const std::string& path)
{
    struct statfs st{};
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
        return "ext4";
    case 0x01021994UL:
        return "tmpfs";
    case 0x794C7630UL:
        return "overlayfs";
    case 0x58465342UL:
        return "xfs";
    case 0x9123683EUL:
        return "btrfs";
    case 0x6969UL:
        return "nfs";
    case 0x65735546UL:
        return "fuse";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
    }
    }
}

double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return std::numeric_limits<double>::quiet_NaN();
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &original_))
            cpus_.push_back(c);
    }
    if (cpus_.size() < 2)
        cpus_.clear();
}

CpuRotation::~CpuRotation()
{
    if (restore_)
        sched_setaffinity(0, sizeof original_, &original_);
}

void
CpuRotation::next()
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[at_], &one);
    at_ = (at_ + 1) % cpus_.size();
    if (sched_setaffinity(0, sizeof one, &one) == 0)
        restore_ = true;
}

} // namespace perfbench
