#include "bcc/message.h"

#include <stdexcept>
#include <string>

#include "common/encoding.h"

namespace bcclap::bcc {

Message& Message::push(std::uint64_t value, int bits) {
  if (bits < 1 || bits > 64) {
    throw std::invalid_argument("Message::push: field width " +
                                std::to_string(bits) +
                                " is outside [1, 64] bits");
  }
  if (bits < 64 && value >> bits != 0) {
    throw std::invalid_argument("Message::push: value " +
                                std::to_string(value) + " does not fit in " +
                                std::to_string(bits) + " bits");
  }
  if (count_ == kMaxFields) {
    throw std::length_error("Message::push: more than " +
                            std::to_string(kMaxFields) + " fields");
  }
  values_[count_++] = value;
  total_bits_ += bits;
  return *this;
}

Message& Message::push_id(std::size_t id, std::size_t n) {
  return push(static_cast<std::uint64_t>(id), enc::id_bits(n));
}

Message& Message::push_flag(bool flag) { return push(flag ? 1 : 0, 1); }

}  // namespace bcclap::bcc
