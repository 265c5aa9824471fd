#include "serve/publisher.h"

#include <utility>

namespace grepair {
namespace serve {

Generation* SnapshotPublisher::Writable() {
  std::lock_guard<std::mutex> lock(mu_);
  const int w = published_ < 0 ? 0 : 1 - published_;
  if (slots_[w] == nullptr) {
    slots_[w] = std::make_shared<Generation>();
    slots_[w]->epoch = epoch_;
  } else if (slots_[w]->pins.load(std::memory_order_acquire) != 0) {
    // Retired but still pinned: abandon it to its readers (the shared_ptr
    // they hold keeps it alive) and start the next generation fresh. The
    // pin count of an unpublished slot only decreases, so a zero read here
    // is stable for the writer.
    slots_[w] = std::make_shared<Generation>();
    slots_[w]->epoch = epoch_;
    ++abandoned_;
  } else if (slots_[w]->epoch != epoch_) {
    // The backing graph was swapped since this store was built; its
    // watermark is meaningless against the new delta log. Drop the store
    // so the caller rebuilds from the current graph.
    slots_[w]->store.reset();
    slots_[w]->backlog.clear();
    slots_[w]->watermark = 0;
    slots_[w]->epoch = epoch_;
  }
  return slots_[w].get();
}

void SnapshotPublisher::Publish(uint64_t batch, std::vector<Violation> backlog) {
  std::lock_guard<std::mutex> lock(mu_);
  const int w = published_ < 0 ? 0 : 1 - published_;
  if (slots_[w] == nullptr || !slots_[w]->has_store()) return;
  slots_[w]->backlog = std::move(backlog);
  slots_[w]->batch = batch;
  slots_[w]->generation = next_generation_++;
  published_ = w;
}

ReadLease SnapshotPublisher::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (published_ < 0) return ReadLease();
  std::shared_ptr<Generation> gen = slots_[published_];
  // Relaxed is enough for the increment: the mutex orders it against the
  // writer's slot flip, and only the DECREMENT needs to carry the reads.
  gen->pins.fetch_add(1, std::memory_order_relaxed);
  return ReadLease(std::shared_ptr<const Generation>(std::move(gen)));
}

void SnapshotPublisher::BeginNewEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
}

uint64_t SnapshotPublisher::CurrentGeneration() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_ < 0 ? 0 : slots_[published_]->generation;
}

size_t SnapshotPublisher::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& s : slots_)
    if (s != nullptr) total += s->MemoryBytes();
  return total;
}

}  // namespace serve
}  // namespace grepair
