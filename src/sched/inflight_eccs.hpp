// The ECCs whose EccArrival events are pending, keyed by event tag (the
// command's index in workload order).  Tags arrive in increasing order but
// may be taken in any order (an ECC-unsorted workload is one feed window),
// so slot i holds tag base_ + i.  Taken slots at the front are trimmed in
// place once they are half the vector, which never shrinks capacity: at
// steady state put/take allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "workload/ecc.hpp"

namespace es::sched {

class InflightEccs {
 public:
  /// Stores `ecc` under `tag`.  Precondition: `tag` exceeds every tag put
  /// so far, unless the store is empty.
  void put(std::uint64_t tag, const workload::Ecc& ecc) {
    if (live_ == 0) {
      slots_.clear();
      head_ = 0;
      base_ = tag;
    }
    ES_EXPECTS(tag >= base_ + slots_.size());
    slots_.resize(tag - base_);  // tags skipped here are never taken
    slots_.push_back(Slot{ecc, true});
    ++live_;
  }

  /// Removes and returns the command stored under `tag`.
  /// Precondition: it is in flight.
  workload::Ecc take(std::uint64_t tag) {
    ES_EXPECTS(tag >= base_ && tag - base_ < slots_.size());
    Slot& slot = slots_[tag - base_];
    ES_EXPECTS(slot.live);
    slot.live = false;
    --live_;
    const workload::Ecc ecc = slot.ecc;
    while (head_ < slots_.size() && !slots_[head_].live) ++head_;
    if (head_ >= kMinTrim && 2 * head_ >= slots_.size()) {
      slots_.erase(slots_.begin(),
                   slots_.begin() + static_cast<std::ptrdiff_t>(head_));
      base_ += head_;
      head_ = 0;
    }
    return ecc;
  }

  /// Commands in flight.
  std::size_t size() const { return live_; }

 private:
  struct Slot {
    workload::Ecc ecc;
    bool live = false;
  };
  static constexpr std::size_t kMinTrim = 64;

  std::vector<Slot> slots_;  ///< slot i holds tag base_ + i
  std::uint64_t base_ = 0;
  std::size_t head_ = 0;     ///< slots before it are all taken
  std::size_t live_ = 0;
};

}  // namespace es::sched
