// Read-only bytes plus the owner that keeps them valid.
//
// The receive path hands transport memory up the stack without copying it:
// an shm pool slot, an rdma receive buffer from the reader's registration
// cache, an inproc queue entry. A ByteLease is a view into that memory plus
// a shared owner whose deleter hands the memory back to its transport.
// Copies share the owner; the memory returns when the last copy drops, on
// whichever thread that happens. A lease keeps its memory valid on its own:
// it may outlive the link, the endpoint and the runtime it came from
// (DESIGN.md "Lease rules").
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/common.h"

namespace flexio {

class ByteLease {
 public:
  ByteLease() = default;

  /// `bytes` must stay valid while `owner` is alive.
  ByteLease(ByteView bytes, std::shared_ptr<const void> owner)
      : view_(bytes), owner_(std::move(owner)) {}

  /// Heap bytes owned by the lease itself (no copy: the vector moves in).
  explicit ByteLease(std::vector<std::byte> bytes) {
    auto heap = std::make_shared<const std::vector<std::byte>>(std::move(bytes));
    view_ = ByteView(*heap);
    owner_ = std::move(heap);
  }

  const std::byte* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const std::byte* begin() const { return view_.data(); }
  const std::byte* end() const { return view_.data() + view_.size(); }
  const std::byte& operator[](std::size_t i) const { return view_[i]; }

  ByteView view() const { return view_; }
  const std::shared_ptr<const void>& owner() const { return owner_; }

  /// Narrow to [offset, offset + count), sharing the owner.
  ByteLease subspan(std::size_t offset,
                    std::size_t count = std::dynamic_extent) const {
    return ByteLease(view_.subspan(offset, count), owner_);
  }

  /// Drop this reference; the memory returns once no copy holds it.
  void reset() {
    view_ = {};
    owner_.reset();
  }

 private:
  ByteView view_;
  std::shared_ptr<const void> owner_;
};

}  // namespace flexio
