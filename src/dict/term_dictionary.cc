#include "dict/term_dictionary.h"

#include <mutex>
#include <stdexcept>

namespace ucqn {

TermDictionary::TermDictionary() {
  // Reserve id 0 for Δ-null. The slot holds a spelling no quoted
  // constant can collide with only by convention — what actually keeps
  // it unreachable is that it is never entered into `ids_`, so Intern
  // can never hand it out for a constant (including one spelled
  // "null", which gets its own ordinary id).
  Chunk* chunk = new Chunk();
  chunk->entries[0] = "null";
  chunks_[0].store(chunk, std::memory_order_release);
  size_.store(1, std::memory_order_release);
}

TermDictionary::~TermDictionary() {
  for (std::atomic<Chunk*>& chunk : chunks_) {
    delete chunk.load(std::memory_order_relaxed);
  }
}

TermDictionary& TermDictionary::Global() {
  static TermDictionary* dictionary = new TermDictionary();
  return *dictionary;
}

std::uint32_t TermDictionary::Intern(std::string_view name) {
  {
    // Fast path: already interned. Shared lock — re-interning a known
    // constant (the overwhelmingly common case once a query warms up)
    // never serializes against other readers.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned it between the locks.
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;

  const std::size_t id = size_.load(std::memory_order_relaxed);
  const std::size_t chunk_index = id >> kChunkBits;
  const std::size_t slot = id & (kChunkSize - 1);
  if (chunk_index >= kMaxChunks) {
    throw std::length_error("TermDictionary: id space exhausted");
  }
  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk->entries[slot] = std::string(name);
  ids_.emplace(std::string_view(chunk->entries[slot]),
               static_cast<std::uint32_t>(id));
  // Publish after the entry is fully constructed: decoders that
  // acquire a size > id are guaranteed to see the string.
  size_.store(id + 1, std::memory_order_release);
  return static_cast<std::uint32_t>(id);
}

std::uint32_t TermDictionary::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kAbsentId : it->second;
}

std::uint32_t TermDictionary::EncodeGround(const Term& t) {
  if (t.IsNull()) return kNullId;
  return Intern(t.name());
}

const std::string& TermDictionary::Decode(std::uint32_t id) const {
  // No bounds check beyond the debug-friendly chunk walk: the contract
  // is "ids minted by this dictionary", and every caller got the id
  // from Intern/EncodeGround. The acquire load pairs with Intern's
  // release store.
  const Chunk* chunk =
      chunks_[id >> kChunkBits].load(std::memory_order_acquire);
  return chunk->entries[id & (kChunkSize - 1)];
}

Term TermDictionary::DecodeTerm(std::uint32_t id) const {
  if (id == kNullId) return Term::Null();
  return Term::Constant(Decode(id));
}

}  // namespace ucqn
