#ifndef TREELOCAL_SUPPORT_DIGEST_H_
#define TREELOCAL_SUPPORT_DIGEST_H_

#include <cstddef>
#include <cstdint>

namespace treelocal::support {

// Digest primitives behind the engine family's transcript digest chain and
// the snapshot format's integrity hash (src/local/snapshot.h). Everything
// here is deterministic, platform-independent (no pointer/layout input),
// and cheap enough for per-round use.

// 64-bit FNV-1a offset basis; also the seed of every digest chain (the
// "digest after -1 rounds").
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

// 64-bit FNV-1a over a byte range. Used as the snapshot file integrity
// hash: any single-bit corruption or truncation changes the value.
uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t seed = kDigestSeed);

// SplitMix64 finalizer: the cheap word mixer the chain is built from.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Per-message content hash, keyed on the SENDER's external (node, port) so
// the value is invariant to engine layout (Network's BFS ranks move
// channel indices, not senders) and to shard scheduling. A round's message
// accumulator is the SUM mod 2^64 of these: commutative, so an engine's
// lanes accumulate independently in any order, and invertible, so a
// last-write-wins overwrite on a port subtracts the earlier send back out.
// The third mixing step folds in a retired second message word as 0, which
// keeps every one-word digest equal to the one recorded when messages could
// carry two words.
constexpr uint64_t MessageHash(int sender, int port, int64_t word0,
                               uint8_t size) {
  uint64_t h = Mix64((static_cast<uint64_t>(static_cast<uint32_t>(sender))
                      << 32) |
                     static_cast<uint32_t>(port));
  h = Mix64(h ^ static_cast<uint64_t>(word0));
  h = Mix64(h);
  h = Mix64(h ^ (static_cast<uint64_t>(size) + 1));
  return h;
}

// One digest-chain step: the transcript digest after a round, from the
// previous digest and the round's observable counters plus the message
// accumulator (0 when content digests are off — the chain then covers the
// per-round active/message counters only). Identical stats + accumulators
// imply an identical chain, which is what the resume and cross-engine
// bit-identity tests pin.
constexpr uint64_t ChainDigest(uint64_t prev, int64_t active_nodes,
                               int64_t messages_sent, uint64_t message_acc) {
  uint64_t h = Mix64(prev ^ static_cast<uint64_t>(active_nodes));
  h = Mix64(h ^ static_cast<uint64_t>(messages_sent));
  h = Mix64(h ^ message_acc);
  return h;
}

}  // namespace treelocal::support

#endif  // TREELOCAL_SUPPORT_DIGEST_H_
