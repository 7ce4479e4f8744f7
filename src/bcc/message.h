// A broadcast message: a short sequence of bit-sized fields.
//
// Both models bound the per-round message to B = Theta(log n) bits. We keep
// messages structured (fields with explicit widths) rather than raw bits so
// algorithm code stays readable, and let the network charge
// ceil(total_bits / B) rounds for a logical message that exceeds B — this is
// exactly how the paper accounts for the (1 + log W / log n) factors in
// Lemma 3.2.
//
// Every protocol message in the paper is a constant number of ids and
// weights, so the fields live inline (at most kMaxFields of them): a
// Message is a small trivially copyable value with no heap storage, and a
// superstep's traffic is one flat array of them (bcc/network.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bcclap::bcc {

class Message {
 public:
  static constexpr std::size_t kMaxFields = 4;

  Message() = default;

  // Appends a `bits`-wide field. Throws std::invalid_argument unless
  // 1 <= bits <= 64 and value < 2^bits (an over-wide value would be
  // charged fewer rounds than its real width), and std::length_error
  // when the message already holds kMaxFields fields.
  Message& push(std::uint64_t value, int bits);
  // Convenience: a field holding an ID in [0, n).
  Message& push_id(std::size_t id, std::size_t n);
  // A single flag bit.
  Message& push_flag(bool flag);

  std::uint64_t field(std::size_t i) const { return values_[i]; }
  std::size_t num_fields() const { return count_; }
  int total_bits() const { return total_bits_; }

 private:
  std::array<std::uint64_t, kMaxFields> values_{};
  int total_bits_ = 0;
  std::uint8_t count_ = 0;
};

}  // namespace bcclap::bcc
