#include "consensus/pbft_messages.hpp"

namespace spider::pbft {

Sha256Digest request_digest(BytesView request) { return Sha256::hash(request); }

Sha256Digest batch_digest(const std::vector<Bytes>& requests) {
  return Sha256::hash(codec::encode(requests));
}

}  // namespace spider::pbft
