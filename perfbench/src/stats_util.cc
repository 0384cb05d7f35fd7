#include "stats_util.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** 1-based nearest rank of @p level over @p n samples. */
std::size_t
rankOf(std::size_t n, double level)
{
    const double exact = std::ceil(level * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(exact), 1, n);
}

} // namespace

TailPercentile
percentileOf(std::vector<double> samples, double percentile)
{
    TailPercentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = rankOf(samples.size(), percentile / 100.0);
    out.percentile = percentile;
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

TailPercentile
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailPercentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    static constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
    for (const double pct : kLadder) {
        const std::size_t rank = rankOf(samples.size(), pct / 100.0);
        const std::size_t beyond = samples.size() - rank;
        if (beyond >= min_beyond) {
            out.percentile = pct;
            out.value = samples[rank - 1];
            out.beyond = beyond;
            return out;
        }
    }
    return out;
}

void
Digest::addBytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= p[i];
        state *= 0x100000001b3ULL;
    }
}

void
Digest::add(std::uint64_t v)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    addBytes(bytes, sizeof(bytes));
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

std::string
Digest::hex() const
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i)
        out[static_cast<std::size_t>(15 - i)] = kHex[(state >> (4 * i)) & 0xf];
    return out;
}

} // namespace perfbench
