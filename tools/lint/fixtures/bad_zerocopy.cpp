// lint-fixture-path: src/net/fixture_zerocopy.cpp
//
// Known-bad zero-copy snippets: every deep copy of packet bytes on the
// hot path must fire, header-field copies and allowlisted lines must not,
// and a pragma that suppresses nothing must fire as lint-pragma.
// NOT part of the build — compiled only by `tools/lint/run.py --self-test`.
#include <algorithm>
#include <cstring>
#include <vector>

namespace fixture {

struct Buffer {
  Buffer clone(unsigned headroom = 0) const;
  std::vector<unsigned char> to_vector() const;
  static Buffer copy_of(const unsigned char* p, unsigned n);
  unsigned char* data();
  unsigned size() const;
};
struct Chain {
  Buffer coalesce() const;
};
struct Packet {
  Buffer payload;
};

inline void deep_copies(Packet& pkt, const Packet& src, Chain& chain,
                        unsigned char* dst_payload, unsigned char* hdr) {
  std::memcpy(dst_payload, pkt.payload.data(), pkt.payload.size());  // expect(zero-copy)
  std::copy(src.payload.data(),  // expect(zero-copy)
            src.payload.data() + src.payload.size(), dst_payload);
  pkt.payload = src.payload.clone();        // expect(zero-copy)
  auto flat = chain.coalesce();             // expect(zero-copy)
  auto vec = pkt.payload.to_vector();       // expect(zero-copy)
  auto copy = Buffer::copy_of(pkt.payload.data(), pkt.payload.size());  // expect(zero-copy)
  // A header-field copy carries no payload bytes and must stay silent:
  std::memcpy(hdr, dst_payload, 14);
  (void)flat;
  (void)vec;
  (void)copy;
}

inline void allowlisted(Packet& pkt) {
  // The pragma (with a reason) silences the rule on its line:
  pkt.payload = pkt.payload.clone();  // lint:allow(zero-copy): explicit COW before an in-place patch
}

inline void orphaned_pragma(Packet& pkt) {
  // A pragma whose rule fires on no line it covers (the copy it excused
  // is gone) is itself reported:
  pkt.payload = Buffer{};  // lint:allow(zero-copy): legacy copy  expect(lint-pragma)
}

}  // namespace fixture
