#include "pisa/register_array.h"

#include <algorithm>

#include "common/logging.h"
#include "pisa/pipeline.h"
#include "pisa/stage.h"

namespace ask::pisa {

RegisterArray::RegisterArray(std::string name, std::size_t num_entries,
                             std::uint32_t width_bits)
    : name_(std::move(name)),
      width_bits_(width_bits),
      values_(num_entries, 0)
{
    if (width_bits < 1 || width_bits > 64)
        fail_config("register width must be 1..64 bits: ", name_);
    if (num_entries == 0)
        fail_config("empty register array: ", name_);
    max_value_ = width_bits == 64 ? ~0ULL : ((1ULL << width_bits) - 1);
}

void
RegisterArray::width_overflow(std::uint64_t value) const
{
    panic("value 0x", std::hex, value, " overflows ", std::dec,
          width_bits_, "-bit register in '", name_, "'");
}

std::uint64_t
RegisterArray::cp_read(std::size_t index) const
{
    ASK_ASSERT(index < values_.size(), "cp_read out of range in '", name_, "'");
    return values_[index];
}

void
RegisterArray::cp_write(std::size_t index, std::uint64_t value)
{
    ASK_ASSERT(index < values_.size(), "cp_write out of range in '", name_, "'");
    check_width(value);
    values_[index] = value;
}

void
RegisterArray::cp_clear(std::size_t first, std::size_t count)
{
    ASK_ASSERT(first + count <= values_.size(),
               "cp_clear region out of range in '", name_, "'");
    std::fill(values_.begin() + static_cast<std::ptrdiff_t>(first),
              values_.begin() + static_cast<std::ptrdiff_t>(first + count), 0);
}

std::span<const std::uint64_t>
RegisterArray::cp_view(std::size_t first, std::size_t count) const
{
    ASK_ASSERT(first <= values_.size() && count <= values_.size() - first,
               "cp_view region out of range in '", name_, "'");
    return std::span<const std::uint64_t>(values_).subspan(first, count);
}

std::size_t
RegisterArray::sram_bytes() const
{
    // Entries are bit-packed in SRAM (a 1-bit array of W entries costs
    // W bits, matching the paper's 256 + 256x32 bit = 1056 B per-channel
    // accounting).
    return (values_.size() * width_bits_ + 7) / 8;
}

}  // namespace ask::pisa
