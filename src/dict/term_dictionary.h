#ifndef UCQN_DICT_TERM_DICTIONARY_H_
#define UCQN_DICT_TERM_DICTIONARY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ast/term.h"

namespace ucqn {

// Dense ids for the ground terms flowing through the executor's inner
// loops. The paper's semantics only ever need *equality* over a finite
// active domain — never string order or content — so every constant is
// interned once into a uint32 and joins, wave dedup, cache keys, and
// negated-literal membership probes all run over flat id vectors
// (rdf3x's id-encoded triples, DictionarySegment, are the exemplar).
// Sources answer in ids too (Source::FetchEncoded), so on the executor's
// path strings are decoded back only at result materialization (each
// distinct answer tuple once) and at JSON/protocol boundaries.
//
// Id space:
//   - kNullId (0) is reserved for the paper's distinguished Δ-null
//     (Ex. 7). No constant ever maps to it — the constant spelled
//     "null" gets an ordinary id, preserving the kind distinction.
//   - Constants get consecutive ids starting at 1, in first-intern
//     order. Ids are stable for the process lifetime and never reused;
//     the dictionary only grows (the active domain of a query session
//     is finite, and entries are a few dozen bytes each).
//   - kAbsentId never names a term. It marks "no value here" in packed
//     call signatures (an output slot, or an input slot the binding
//     does not ground) and in columnar frontiers.
//
// Concurrency: Intern takes the exclusive lock only when the term is
// genuinely new; the common re-intern of a known constant runs under a
// shared lock, and Decode is lock-free. Storage is an append-only
// array of fixed-size chunks — a published id's string never moves, so
// decoders need only an acquire load of the size to see fully
// constructed entries.
class TermDictionary {
 public:
  static constexpr std::uint32_t kNullId = 0;
  static constexpr std::uint32_t kAbsentId = 0xFFFFFFFFu;

  TermDictionary();
  // Frees every chunk. Global() is never destroyed: it stays a leaked
  // singleton so decoders running during static destruction stay valid.
  ~TermDictionary();
  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;
  TermDictionary(TermDictionary&&) = delete;
  TermDictionary& operator=(TermDictionary&&) = delete;

  // The process-wide dictionary every execution shares. Executions on
  // different threads intern into the same id space, which is what lets
  // the shared cache key physical calls by id across queries.
  static TermDictionary& Global();

  // Returns the id of constant `name`, interning it on first sight.
  // Thread-safe; a given spelling yields the same id forever.
  std::uint32_t Intern(std::string_view name);

  // Like Intern, but never inserts: kAbsentId when `name` was never
  // interned. Lock-free on the miss path is not needed (callers are
  // cold paths); uses the same table under the insert mutex.
  std::uint32_t Find(std::string_view name) const;

  // Encodes a ground term: null → kNullId, constant → Intern(name).
  // Precondition: t.IsGround() (variables never appear in tuples).
  std::uint32_t EncodeGround(const Term& t);

  // Decodes an id minted by this dictionary. Lock-free. id must be
  // kNullId or a previously returned Intern id.
  const std::string& Decode(std::uint32_t id) const;

  // Decode to a Term, restoring the kind: kNullId → Term::Null(),
  // everything else → Term::Constant(Decode(id)).
  Term DecodeTerm(std::uint32_t id) const;

  // Ids minted so far, including the reserved null slot.
  std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  // 4096 strings per chunk, 4096 chunks: 16M distinct constants before
  // the dictionary refuses to grow — far beyond any active domain here,
  // and the bound is what keeps Decode a two-load array walk.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 4096;

  struct Chunk {
    std::array<std::string, kChunkSize> entries;
  };

  // Readers index `chunks_` after an acquire load of `size_`; writers
  // fully construct the entry before the release store that publishes
  // it. Chunks never move and live until the dictionary is destroyed.
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<std::size_t> size_{0};

  // Table lock: shared for lookups of known constants, exclusive for
  // the rare first-sight insert. Padded away from the hot atomic above
  // so lock traffic doesn't invalidate the decoders' cache line.
  alignas(64) mutable std::shared_mutex mu_;
  // Keys are views into chunk storage (stable: chunks never move and a
  // stored std::string's buffer is never touched again).
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

// A tuple or call signature as flat ids. Hash/equality are pure integer
// loops — the representation the executor's dedup maps, anti-join
// probes, and frontier columns are built on.
using EncodedTuple = std::vector<std::uint32_t>;

struct EncodedTupleHash {
  std::size_t operator()(const EncodedTuple& t) const {
    std::size_t seed = t.size();
    for (std::uint32_t id : t) HashCombine(&seed, id);
    return seed;
  }
};

}  // namespace ucqn

#endif  // UCQN_DICT_TERM_DICTIONARY_H_
